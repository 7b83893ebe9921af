"""Command-line harness: seeded experiment runs and figure-data recipes.

Subcommands: `agents` (transport rounds), `pde` (grid solver),
`oracle-check` (primal-dual vs. min-cost-flow agreement), and `fig N`
(N in 2..6, emits the data behind the standard figures). Each figure
curve is its command, `agents` or `pde`, run on an override of the
config: one agent run path and one grid run path serve them all. All
output is CSV, written row by row from the sink of each run's loop;
re-running a config with the same seed is byte-identical. --threads
(at least 1) splits the rows of a large grid's inner flow steps across
that many threads, in `pde` and figs 4-6, and never changes a byte;
`agents`, figs 2-3 and `oracle-check` compute sequentially.
"""

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .flow import min_cost_flow
from .geometry import Domain
from .grid import (
    GridState,
    PositivityError,
    density_error,
    density_on_grid,
    random_density,
    run_coupled,
    saturated_potentials,
    step_count,
)
from .primal_dual import converge_pd, dual_objective, feasibility_violation, mass_imbalance, zero_state
from .rng import STREAM_ORACLE, STREAM_TARGET, SplitMix64, derive
from .target import DensityField, QuadratureGrid, cell_masses, load_pgm
from .transport import TransportConfig, initial_positions, run_experiment
from .voronoi import build_partition, neighbor_graph

AGENT_HEADER = ["k", "mass_variance", "net_cost", "dual_objective", "feasibility_violation", "connected"]
POSITION_HEADER = ["k", "agent", "x", "y", "owner_mass"]
PDE_HEADER = ["t", "V", "E", "kkt_stationarity", "kkt_feasibility", "kkt_slackness", "mass_error"]
ORACLE_GAP_TOL = 1e-4  # largest |dual value - flow value| oracle_check accepts
ORACLE_FEAS_TOL = 1e-6  # largest edge violation oracle_check accepts
ORACLE_MAX_ITER = 20_000_000  # converge_pd budget: ill-conditioned instances need millions of steps


def csv_line(row):
    """One CSV line of Python ints and floats (flags as 0/1), by their repr.

    The row builders convert numpy values to Python ones, once per array
    where they can, so formatting needs no per-value type checks.
    """
    return ",".join(map(repr, row)) + "\n"


@contextmanager
def open_csv(path, header):
    """Open a CSV file, write its header line and yield the file.

    The caller writes `csv_line`s as its rows arrive, so no line
    outlives its write. A grid command writes each record inside its
    run, and a positivity stop leaves the records taken before it in the
    file; any other error removes the file, so a failed command leaves
    no output of it.
    """
    try:
        with open(path, "w", newline="\n") as f:
            f.write(",".join(header) + "\n")
            yield f
    except PositivityError:
        raise
    except Exception:
        Path(path).unlink(missing_ok=True)
        raise


def write_csv(path, header, rows):
    """Write the rows of an iterable, each formatted as it is yielded."""
    with open_csv(path, header) as f:
        f.writelines(map(csv_line, rows))


def build_target(cfg, seed):
    """Target density over the default domain, unnormalized.

    A missing Gaussian mean is seeded. An agent command normalizes the
    target on its quadrature (`values_on`), a grid command on its grid
    (`density_on_grid`).
    """
    domain = Domain()
    if cfg.target_kind == "uniform":
        return DensityField.uniform(domain)
    if cfg.target_kind == "pgm":
        data = Path(cfg.target_pgm_path).read_bytes()
        return load_pgm(data, domain)
    means = cfg.target_means
    if means is None:
        gen = SplitMix64(derive(seed, STREAM_TARGET))
        means = np.array([[gen.next_float(), gen.next_float()]])
    covs = cfg.target_covariances
    if covs is None:
        covs = np.repeat(2.0 * np.eye(2)[None, :, :], len(means), axis=0)
    weights = cfg.target_weights
    return DensityField.gaussian_mixture(means, covs, weights, domain)


def transport_config(cfg):
    return TransportConfig(eps=cfg.eps, tau=cfg.tau, inner_iters=cfg.inner_iters,
                           rounds=cfg.rounds, fixed_dual=cfg.fixed_dual, radius=cfg.radius)


def _agent_row(r):
    return r.k, r.mass_variance, r.net_cost, r.dual_objective, r.feasibility_violation, int(r.connected)


def _pde_row(r):
    return r.t, r.V, r.E, r.kkt.stationarity, r.kkt.feasibility, r.kkt.slackness, r.mass_error


def _density_error_row(r):
    """A fig 5/6 row: the `pde` row with the density error sqrt(2V) after t."""
    return r.t, float(np.sqrt(2.0 * r.V)), *_pde_row(r)[1:]


def _agent_loop(cfg):
    """The one agent run path: builds cfg's quadrature, target values and
    initial positions once and returns `run(c, sink)`, which runs them with
    the transport of c, cfg or a copy at another `transport.n`, and returns
    the final state."""
    q = QuadratureGrid(Domain(), cfg.quad_resolution)
    dens = build_target(cfg, cfg.seed).values_on(q)
    positions = initial_positions(cfg.n_agents, q.domain, cfg.seed)

    def run(c, sink=lambda *_: None):
        return run_experiment(positions, transport_config(c), dens, q, sink, c.seed)

    return run


def run_agents(cfg, out_dir):
    """Write each round's metrics row and position rows as the loop hands them over."""
    last = [None]  # the latest record, for the summary line

    with (
        open_csv(out_dir / "metrics.csv", AGENT_HEADER) as metrics,
        open_csv(out_dir / "positions.csv", POSITION_HEADER) as agents,
    ):

        def record(state, cells, r):
            metrics.write(csv_line(_agent_row(r)))
            rows = zip(state.positions.tolist(), cells.masses.tolist())
            agents.writelines(csv_line((r.k, a, x, y, mass)) for a, ((x, y), mass) in enumerate(rows))
            last[0] = r

        _agent_loop(cfg)(cfg, record)
    print(
        f"agents: {cfg.rounds} rounds, final mass variance {last[0].mass_variance:.3e}, "
        f"net cost {last[0].net_cost:.6f}"
    )
    return 0


def _pde_state(cfg):
    """Initial grid state and target masses of cfg."""
    rho_star = density_on_grid(build_target(cfg, cfg.seed), cfg.grid_nx, cfg.grid_ny)
    if cfg.grid_rho0 == "target":
        zero = np.flatnonzero(~(rho_star > 0))
        if len(zero):
            x, y = int(zero[0]) % cfg.grid_nx, int(zero[0]) // cfg.grid_nx
            raise ConfigError(
                f"grid.rho0 = target needs a strictly positive target, but it is 0 at node "
                f"({x},{y}) of the {cfg.grid_nx}x{cfg.grid_ny} grid; widen the target or use "
                "grid.rho0 = random"
            )
        rho0 = rho_star.copy()
    else:
        rho0 = random_density(cfg.grid_nx, cfg.grid_ny, cfg.seed)
    state = GridState(cfg.grid_nx, cfg.grid_ny, rho0, cost=cfg.grid_cost, dt=cfg.grid_dt)
    if cfg.grid_warm_start:
        state.phi, state.lam = saturated_potentials(state, rho_star)
    return state, rho_star


def _grid_run(cfg, f, row, threads, watch=lambda state: None):
    """The one grid run path: the grid loop `run_coupled` of cfg from
    `_pde_state(cfg)`. Writes row(report) of each record to f as the loop
    takes it and hands every state to `watch`; returns the final state
    and the target masses."""
    state, rho_star = _pde_state(cfg)

    def record(s, report):
        if report is not None:
            f.write(csv_line(row(report)))
        watch(s)

    final = run_coupled(
        state, rho_star, cfg.grid_mode, record, inner_n=cfg.grid_inner,
        horizon=cfg.grid_horizon, lam_fixed=cfg.grid_lam_fixed,
        record_every=cfg.record_every, threads=threads,
    )
    return final, rho_star


def run_pde(cfg, out_dir, threads=1):
    """Write each record of the run to metrics.csv as the loop takes it.

    A positivity stop leaves the rows recorded before it and fails the
    command (`main` reports the error).
    """
    last = [None]  # the latest record, for the summary line

    def row(report):
        last[0] = report
        return _pde_row(report)

    with open_csv(out_dir / "metrics.csv", PDE_HEADER) as f:
        final, rho_star = _grid_run(cfg, f, row, threads)
    print(
        f"pde[{cfg.grid_mode}]: t={final.t:.3f}, V={last[0].V:.3e}, "
        f"density error {density_error(final, rho_star):.3e}"
    )
    return 0


def oracle_instance(seed, r):
    """Graph, imbalance and residual tolerance of oracle instance r of a seed.

    A violated edge contributes cost * violation to the saddle residual,
    so the tolerance shrinks with the shortest edge or the feasibility
    bar holds only by luck.
    """
    domain = Domain()
    q = QuadratureGrid(domain, 64)
    gen = SplitMix64(derive(seed, STREAM_ORACLE, r))
    n = 5 + gen.next_u64() % 16  # 5..20 nodes
    sites = domain.lo + gen.uniforms(2 * n).reshape(n, 2) * domain.extent
    partition = build_partition(sites, q)
    graph = neighbor_graph(partition)
    b = mass_imbalance(cell_masses(partition, DensityField.uniform(domain).values_on(q)))
    shortest = float(graph.costs.min()) if len(graph.costs) else 1.0
    return graph, b, min(1e-8, 0.5 * ORACLE_FEAS_TOL * shortest)


def oracle_check(cfg, n_instances=10):
    """Converge the dual on random instances and compare with the flow value."""
    worst_gap = 0.0
    worst_feas = 0.0
    failures = 0
    for r in range(n_instances):
        graph, b, tol = oracle_instance(cfg.seed, r)
        state, info = converge_pd(zero_state(graph), b, graph, tol=tol, max_iter=ORACLE_MAX_ITER)
        value, _ = min_cost_flow(graph.edges, graph.costs, b)
        gap = abs(dual_objective(state.phi, b) - value)
        feas = feasibility_violation(state.phi, graph)
        ok = info["converged"] and gap <= ORACLE_GAP_TOL and feas <= ORACLE_FEAS_TOL
        status = "ok" if ok else "FAIL"
        print(
            f"instance {r}: n={graph.n} gap={gap:.3e} feasibility={feas:.3e} "
            f"iterations={info['iterations']} {status}"
        )
        worst_gap = max(worst_gap, gap)
        worst_feas = max(worst_feas, feas)
        failures += 0 if ok else 1
    if failures:
        print(f"oracle check FAILED on {failures}/{n_instances} instances")
        return 1
    print(f"oracle check passed: max gap {worst_gap:.3e}, max feasibility {worst_feas:.3e}")
    return 0


def run_fig(cfg, number, out_dir, threads=1):
    """Write the data of figure `number`: each curve is the `agents` or the
    `pde` run of a `dataclasses.replace` of cfg."""
    if number in (2, 3):
        run = _agent_loop(cfg)
        if number == 3:
            costs = [[n, run(replace(cfg, inner_iters=n)).cost] for n in range(1, 11)]
            write_csv(out_dir / "fig3.csv", ["n", "net_cost"], costs)
            print("fig 3: wrote fig3.csv")
            return 0
        for n in (1, 5, 10):
            with open_csv(out_dir / f"fig2_n{n}.csv", AGENT_HEADER) as f:
                run(replace(cfg, inner_iters=n), lambda state, cells, r: f.write(csv_line(_agent_row(r))))
        print("fig 2: wrote fig2_n1.csv fig2_n5.csv fig2_n10.csv")
        return 0
    # fig 4 is the `pde` run of cfg plus density snapshots
    if number == 4:
        steps = step_count(cfg.grid_horizon, cfg.grid_dt)
        snap_steps = {round(k * steps / 4) for k in range(5)}
        snaps, calls = [], count()

        def watch(s):
            if next(calls) in snap_steps:
                snaps.append((s.t, s.rho))  # states never write their arrays

        with open_csv(out_dir / "fig4_metrics.csv", PDE_HEADER) as f:
            final, rho_star = _grid_run(cfg, f, _pde_row, threads, watch)
        star = rho_star.tolist()
        snap_rows = (
            (t, *final.node_xy(i), r, r_star)
            for t, rho in snaps
            for i, (r, r_star) in enumerate(zip(rho.tolist(), star))
        )
        write_csv(out_dir / "fig4_density.csv", ["t", "ix", "iy", "rho", "rho_star"], snap_rows)
        print("fig 4: wrote fig4_density.csv fig4_metrics.csv")
        return 0
    # figs 5 and 6: density error over time at several grid.n. Fig 5 warm-starts
    # at the saturated stationary pair: from the cold default the multiplier
    # threshold keeps the density frozen on any usable horizon. A positivity
    # stop keeps the rows recorded up to it, and the next curve runs.
    mode = "on_the_fly_pd" if number == 5 else "on_the_fly_fixed"
    written = []
    for n in (1, 2, 5, 10):
        curve = replace(cfg, grid_mode=mode, grid_inner=n, grid_warm_start=(number == 5))
        name = f"fig{number}_n{n}.csv"
        try:
            with open_csv(out_dir / name, ["t", "density_error"] + PDE_HEADER[1:]) as f:
                _grid_run(curve, f, _density_error_row, threads)
        except PositivityError as exc:
            print(f"fig {number}: n={n} stopped after t={exc.t:.4f}: {exc}")
            name += " (partial)"
        written.append(name)
    print(f"fig {number}: wrote " + " ".join(written))
    return 0


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="path to a key-value config file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--out", type=Path, help="output directory (default: config output.dir)")
    parser.add_argument("--threads", type=int, default=1, help="threads for a large grid's inner "
                        "flow steps (at least 1); output is the same for every count")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="swarm-ot", description="Distributed multi-agent optimal transport harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("agents", "pde", "oracle-check"):
        _add_common(sub.add_parser(name))
    fig = sub.add_parser("fig")
    fig.add_argument("number", type=int, choices=range(2, 7))
    _add_common(fig)
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        cfg = ExperimentConfig() if args.config is None else load_config(Path(args.config).read_text())
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must be a 64-bit unsigned integer")
            cfg.seed = args.seed
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command in ("agents", "pde") and cfg.mode not in (None, args.command):
            raise ConfigError(f"config mode '{cfg.mode}' does not match command '{args.command}'")
        if args.command == "agents":
            return run_agents(cfg, out_dir)
        if args.command == "pde":
            return run_pde(cfg, out_dir, args.threads)
        if args.command == "oracle-check":
            return oracle_check(cfg)
        return run_fig(cfg, args.number, out_dir, args.threads)
    except (ConfigError, ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
