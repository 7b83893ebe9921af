"""Per-layer metrics derived from the spans of one traced run.

A span is [name, start_ns, end_ns, parent_index, note]. Self time is a
span's duration minus the durations of its direct children, so the self
times of one run add up to the traced `cli.main` span. Every `_ms` and
`_s` metric below is a self time summed over all calls of the function.
"""

import statistics

PER_LAYER = [
    ("voronoi.partition_ms", "ms"),
    ("voronoi.partition_calls", "count"),
    ("voronoi.graph_ms", "ms"),
    ("voronoi.partition_temp_mb_computed", "MiB"),
    ("voronoi.edges", "count"),
    ("target.cell_masses_ms", "ms"),
    ("target.cell_masses_calls", "count"),
    ("transport.round_self_ms", "ms"),
    ("transport.gradient_move_ms", "ms"),
    ("transport.moved_share", "share"),
    ("transport.isolated", "count"),
    ("transport.perturbed", "count"),
    ("primal_dual.run_pd_ms", "ms"),
    ("primal_dual.converge_pd_s", "s"),
    ("primal_dual.iterations", "count"),
    ("primal_dual.us_per_iteration", "us"),
    ("primal_dual.tau_halvings", "count"),
    ("primal_dual.pd_residual_ms", "ms"),
    ("grid.pd_flow_step_ms", "ms"),
    ("grid.inner_steps", "count"),
    ("grid.pd_flow_step_bytes_computed", "B"),
    ("grid.transport_step_ms", "ms"),
    ("grid.kkt_residual_ms", "ms"),
    ("grid.lyapunov_ms", "ms"),
    ("grid.steady_potentials_s", "s"),
    ("flow.min_cost_flow_ms", "ms"),
    ("cli.write_csv_ms", "ms"),
    ("cli.csv_bytes", "B"),
    ("cli.cpu_s", "s"),
    ("cli.cpu_per_wall", "ratio"),
    ("cli.trace_overhead_s", "s"),
    ("cli.final_mass_variance", "1"),
    ("cli.final_net_cost", "cost"),
    ("cli.final_density_error", "1"),
]

# Counts that must repeat exactly between traced runs of one seed.
EXACT = [
    "voronoi.partition_calls",
    "voronoi.edges",
    "target.cell_masses_calls",
    "transport.moved_share",
    "transport.isolated",
    "transport.perturbed",
    "primal_dual.iterations",
    "primal_dual.tau_halvings",
    "grid.inner_steps",
    "grid.pd_flow_step_bytes_computed",
]


def self_ns(spans):
    """Self time of every span, in the order of `spans`."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class SpanTable:
    """Self times, call counts and notes of the spans, grouped by name."""

    def __init__(self, spans):
        self.self_ns = {}
        self.total_ns = {}
        self.calls = {}
        self.notes = {}
        for (name, start, end, _, note), own in zip(spans, self_ns(spans)):
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.total_ns[name] = self.total_ns.get(name, 0) + end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            if note is not None:
                self.notes.setdefault(name, []).append(note)

    def ms(self, *names):
        return sum(self.self_ns.get(n, 0) for n in names) / 1e6

    def note_sum(self, name, key):
        return sum(note[key] for note in self.notes.get(name, []))

    def share(self, name, of):
        """Total time of `name` as a share of the total time of `of`."""
        return self.total_ns.get(name, 0) / self.total_ns[of]


def span_metrics(spans):
    """The per-layer metrics one traced run's spans determine."""
    t = SpanTable(spans)
    partitions = t.notes.get("voronoi.build_partition", [])
    graphs = t.notes.get("voronoi.neighbor_graph", [])
    agents = t.note_sum("transport.transport_round", "agents")
    iterations = t.note_sum("primal_dual.converge_pd", "iterations")
    converge_s = t.ms("primal_dual.converge_pd") / 1e3
    return {
        "voronoi.partition_ms": t.ms("voronoi.build_partition"),
        "voronoi.partition_calls": t.calls.get("voronoi.build_partition", 0),
        "voronoi.graph_ms": t.ms("voronoi.neighbor_graph"),
        "voronoi.partition_temp_mb_computed": max(
            (p["sites"] * p["cells"] * 2 * 8 / 2**20 for p in partitions), default=0.0
        ),
        "voronoi.edges": statistics.fmean(g["edges"] for g in graphs) if graphs else 0.0,
        "target.cell_masses_ms": t.ms("target.cell_masses"),
        "target.cell_masses_calls": t.calls.get("target.cell_masses", 0),
        "transport.round_self_ms": t.ms("transport.transport_round"),
        "transport.gradient_move_ms": t.ms("transport.local_gradient", "transport.proximal_step"),
        "transport.moved_share": (
            t.note_sum("transport.transport_round", "moved") / agents if agents else 0.0
        ),
        "transport.isolated": t.note_sum("transport.transport_round", "isolated"),
        "transport.perturbed": t.note_sum("transport.transport_round", "perturbed"),
        "primal_dual.run_pd_ms": t.ms("primal_dual.run_pd", "primal_dual.run_primal"),
        "primal_dual.converge_pd_s": converge_s,
        "primal_dual.iterations": iterations,
        "primal_dual.us_per_iteration": converge_s * 1e6 / iterations if iterations else 0.0,
        "primal_dual.tau_halvings": t.note_sum("primal_dual.converge_pd", "tau_halvings"),
        "primal_dual.pd_residual_ms": t.ms("primal_dual.pd_residual"),
        "grid.pd_flow_step_ms": t.ms("grid.pd_flow_step"),
        "grid.inner_steps": (
            t.calls.get("grid.pd_flow_step", 0) + t.calls.get("grid.relaxed_primal_step", 0)
        ),
        "grid.pd_flow_step_bytes_computed": t.note_sum("grid.pd_flow_step", "bytes"),
        "grid.transport_step_ms": t.ms("grid.transport_step"),
        "grid.kkt_residual_ms": t.ms("grid.kkt_residual"),
        "grid.lyapunov_ms": t.ms("grid.lyapunov"),
        "grid.steady_potentials_s": t.ms("grid.steady_potentials") / 1e3,
        "flow.min_cost_flow_ms": t.ms("flow.min_cost_flow"),
        "cli.write_csv_ms": t.ms("cli.write_csv"),
    }
