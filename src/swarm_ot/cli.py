"""Command-line harness: seeded experiment runs and figure-data recipes.

Subcommands: `agents` (transport rounds), `pde` (grid solver),
`oracle-check` (primal-dual vs. min-cost-flow agreement), and `fig N`
(N in 2..6, emits the data behind the standard figures). All output is
CSV; re-running a config with the same seed is byte-identical. Every
command computes sequentially: --threads is validated (at least 1) and
otherwise unused, so it never changes results.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .flow import FlowProblem, min_cost_flow
from .geometry import Domain, MetricCost
from .grid import (
    GridState,
    PositivityError,
    coupled_states,
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


def write_csv(path, header, rows):
    """Write rows of Python ints and floats (flags as 0/1) by their repr.

    The row builders convert numpy values to Python ones, once per array
    where they can, so formatting needs no per-value type checks.
    """
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def build_target(cfg, domain, seed):
    """Target density from config; a missing Gaussian mean is seeded."""
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
    field = DensityField.gaussian_mixture(means, covs, weights, domain)
    return field.normalize(QuadratureGrid(domain, cfg.quad_resolution))


def transport_config(cfg, fixed_dual=None, inner_iters=None):
    return TransportConfig(
        eps=cfg.eps,
        tau=cfg.tau,
        inner_iters=cfg.inner_iters if inner_iters is None else inner_iters,
        rounds=cfg.rounds,
        fixed_dual=fixed_dual,
        radius=cfg.radius,
    )


def _agent_rows(records):
    return [
        [r.k, r.mass_variance, r.net_cost, r.dual_objective, r.feasibility_violation, int(r.connected)]
        for r in records
    ]


def _position_rows(snapshots):
    rows = []
    for k, positions, masses in snapshots:
        for a, ((x, y), mass) in enumerate(zip(positions.tolist(), masses.tolist())):
            rows.append([k, a, x, y, mass])
    return rows


def _pde_rows(reports):
    return [
        [r.t, r.V, r.E, r.kkt.stationarity, r.kkt.feasibility, r.kkt.slackness, r.mass_error]
        for r in reports
    ]


def run_agents(cfg, out_dir):
    domain = Domain()
    metric = MetricCost()
    q = QuadratureGrid(domain, cfg.quad_resolution)
    target = build_target(cfg, domain, cfg.seed)
    tcfg = transport_config(cfg, fixed_dual=cfg.fixed_dual)
    positions = initial_positions(cfg.n_agents, domain, cfg.seed)
    records, snapshots = run_experiment(positions, tcfg, target, metric, q, cfg.seed)
    write_csv(out_dir / "metrics.csv", AGENT_HEADER, _agent_rows(records))
    write_csv(out_dir / "positions.csv", POSITION_HEADER, _position_rows(snapshots))
    last = records[-1]
    print(
        f"agents: {cfg.rounds} rounds, final mass variance {last.mass_variance:.3e}, "
        f"net cost {last.net_cost:.6f}"
    )
    return 0


def _pde_state(cfg, warm_start=None):
    """Initial grid state and target masses; warm_start defaults to cfg's."""
    target = build_target(cfg, Domain(), cfg.seed)
    rho_star = density_on_grid(target, cfg.grid_nx, cfg.grid_ny)
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
    if cfg.grid_warm_start if warm_start is None else warm_start:
        state.phi, state.lam = saturated_potentials(state, rho_star)
    return state, rho_star


def _grid_loop_args(cfg):
    """Keywords of the grid loop (`run_coupled`, `coupled_states`) that
    every grid command takes from the config."""
    return dict(
        horizon=cfg.grid_horizon,
        lam_fixed=cfg.grid_lam_fixed,
        record_every=cfg.record_every,
    )


def run_pde(cfg, out_dir):
    state, rho_star = _pde_state(cfg)
    reports, final = run_coupled(
        state, rho_star, cfg.grid_mode, inner_n=cfg.grid_inner, **_grid_loop_args(cfg)
    )
    write_csv(out_dir / "metrics.csv", PDE_HEADER, _pde_rows(reports))
    print(
        f"pde[{cfg.grid_mode}]: t={final.t:.3f}, V={reports[-1].V:.3e}, "
        f"density error {density_error(final, rho_star):.3e}"
    )
    return 0


def oracle_check(cfg, n_instances=10, tol=1e-4, feas_tol=1e-6):
    """Converge the dual on random instances and compare with the flow value."""
    domain = Domain()
    metric = MetricCost()
    q = QuadratureGrid(domain, 64)
    dens = DensityField.uniform(domain).values_on(q)
    worst_gap = 0.0
    worst_feas = 0.0
    failures = 0
    for r in range(n_instances):
        inst_seed = derive(cfg.seed, STREAM_ORACLE, r)
        gen = SplitMix64(inst_seed)
        n = 5 + gen.next_u64() % 16  # 5..20 nodes
        sites = domain.lo + gen.uniforms(2 * n).reshape(n, 2) * domain.extent
        partition = build_partition(sites, q)
        graph = neighbor_graph(partition, metric)
        b = mass_imbalance(cell_masses(partition, dens))
        # A violated edge contributes cost * violation to the saddle
        # residual, so the residual tolerance must shrink with the
        # shortest edge or the feasibility bar holds only by luck. The
        # iteration budget is sized for ill-conditioned instances whose
        # slowest mode needs several million steps.
        shortest = float(graph.costs.min()) if len(graph.costs) else 1.0
        tol_r = min(1e-8, 0.5 * feas_tol * shortest)
        state, info = converge_pd(
            zero_state(graph), b, graph, tol=tol_r, max_iter=20_000_000
        )
        value, _ = min_cost_flow(FlowProblem(graph, b))
        gap = abs(dual_objective(state.phi, b) - value)
        feas = feasibility_violation(state.phi, graph)
        ok = info["converged"] and gap <= tol and feas <= feas_tol
        status = "ok" if ok else "FAIL"
        print(
            f"instance {r}: n={n} gap={gap:.3e} feasibility={feas:.3e} "
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


def run_fig(cfg, number, out_dir):
    domain = Domain()
    metric = MetricCost()
    if number in (2, 3):
        q = QuadratureGrid(domain, cfg.quad_resolution)
        target = build_target(cfg, domain, cfg.seed)
        positions = initial_positions(cfg.n_agents, domain, cfg.seed)
        if number == 2:
            for n in (1, 5, 10):
                tcfg = transport_config(cfg, inner_iters=n)
                records, _ = run_experiment(positions, tcfg, target, metric, q, cfg.seed)
                write_csv(out_dir / f"fig2_n{n}.csv", AGENT_HEADER, _agent_rows(records))
            print("fig 2: wrote fig2_n1.csv fig2_n5.csv fig2_n10.csv")
        else:
            rows = []
            for n in range(1, 11):
                tcfg = transport_config(cfg, inner_iters=n)
                records, _ = run_experiment(positions, tcfg, target, metric, q, cfg.seed)
                rows.append([n, records[-1].net_cost])
            write_csv(out_dir / "fig3.csv", ["n", "net_cost"], rows)
            print("fig 3: wrote fig3.csv")
        return 0
    # figures 4-6 record through the grid loop of `pde`: fig 4 is one
    # `pde` run plus density snapshots, figs 5 and 6 one run per curve
    if number == 4:
        state, rho_star = _pde_state(cfg)
        steps = step_count(cfg.grid_horizon, state.dt)
        snap_steps = {round(k * steps / 4) for k in range(5)}
        states = coupled_states(
            state, rho_star, cfg.grid_mode, inner_n=cfg.grid_inner, **_grid_loop_args(cfg)
        )
        reports, snap_rows = [], []
        for step, (s, report) in enumerate(states):
            if report is not None:
                reports.append(report)
            if step in snap_steps:
                snap_rows += [
                    [s.t, *s.node_xy(i), rho, star]
                    for i, (rho, star) in enumerate(zip(s.rho.tolist(), rho_star.tolist()))
                ]
            del s  # dropped before the next step and record: see grid.coupled_states
        write_csv(out_dir / "fig4_density.csv", ["t", "ix", "iy", "rho", "rho_star"], snap_rows)
        write_csv(out_dir / "fig4_metrics.csv", PDE_HEADER, _pde_rows(reports))
        print("fig 4: wrote fig4_density.csv fig4_metrics.csv")
        return 0
    # figures 5 and 6: density error vs time for several inner step counts.
    # fig 5 warm-starts the potentials at the saturated stationary pair;
    # from the cold default the multiplier threshold keeps the density
    # frozen on any usable horizon. A positivity stop still yields the
    # rows recorded up to the stop.
    mode = "on_the_fly_pd" if number == 5 else "on_the_fly_fixed"
    state, rho_star = _pde_state(cfg, warm_start=(number == 5))
    written = []
    for n in (1, 2, 5, 10):
        halted = False
        try:
            reports, _ = run_coupled(state, rho_star, mode, inner_n=n, **_grid_loop_args(cfg))
        except PositivityError as exc:
            print(f"fig {number}: n={n} stopped after t={exc.t:.4f}: {exc}")
            reports, halted = exc.reports, True
        name = f"fig{number}_n{n}.csv"
        rows = [[r.t, float(np.sqrt(2.0 * r.V))] + _pde_rows([r])[0][1:] for r in reports]
        write_csv(out_dir / name, ["t", "density_error"] + PDE_HEADER[1:], rows)
        written.append(name + (" (partial)" if halted else ""))
    print(f"fig {number}: wrote " + " ".join(written))
    return 0


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="path to a key-value config file")
    parser.add_argument("--seed", type=int, help="overrides the config seed")
    parser.add_argument("--out", type=Path, help="output directory (default: config output.dir)")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility (at least 1); computation is sequential",
    )


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
        if args.config is not None:
            cfg = load_config(Path(args.config).read_text())
        else:
            cfg = ExperimentConfig()
            if args.command == "pde":
                cfg.mode = "pde"
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must be a 64-bit unsigned integer")
            cfg.seed = args.seed
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "agents":
            if cfg.mode not in ("agents", "agents_fixed_dual"):
                raise ConfigError(f"config mode '{cfg.mode}' does not match command 'agents'")
            return run_agents(cfg, out_dir)
        if args.command == "pde":
            if cfg.mode != "pde":
                raise ConfigError(f"config mode '{cfg.mode}' does not match command 'pde'")
            return run_pde(cfg, out_dir)
        if args.command == "oracle-check":
            return oracle_check(cfg)
        return run_fig(cfg, args.number, out_dir)
    except (ConfigError, ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
