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
from contextlib import contextmanager
from itertools import count
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .flow import FlowProblem, min_cost_flow
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


def build_target(cfg, seed, q=None):
    """Target density over q's domain (the default one without q).

    A missing Gaussian mean is seeded. A Gaussian mixture is normalized
    on q; without q it is left unnormalized, which is all a grid command
    needs, since `density_on_grid` divides by its own node sum.
    """
    domain = Domain() if q is None else q.domain
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
    return field if q is None else field.normalize(q)


def transport_config(cfg, inner_iters=None):
    return TransportConfig(
        eps=cfg.eps,
        tau=cfg.tau,
        inner_iters=cfg.inner_iters if inner_iters is None else inner_iters,
        rounds=cfg.rounds,
        fixed_dual=cfg.fixed_dual,
        radius=cfg.radius,
    )


# The agent row builders are generators: `write_csv` formats each row
# as it is made, so a command holds its records but never their CSV
# text. A grid run's sink formats and writes each record as it is taken.
def _agent_rows(records):
    for r in records:
        yield r.k, r.mass_variance, r.net_cost, r.dual_objective, r.feasibility_violation, int(r.connected)


def _position_rows(snapshots):
    for k, positions, masses in snapshots:
        for a, ((x, y), mass) in enumerate(zip(positions.tolist(), masses.tolist())):
            yield k, a, x, y, mass


def _pde_row(r):
    return r.t, r.V, r.E, r.kkt.stationarity, r.kkt.feasibility, r.kkt.slackness, r.mass_error


def _density_error_row(r):
    """A fig 5/6 row: the `pde` row with the density error sqrt(2V) after t."""
    return r.t, float(np.sqrt(2.0 * r.V)), *_pde_row(r)[1:]


def run_agents(cfg, out_dir):
    domain = Domain()
    q = QuadratureGrid(domain, cfg.quad_resolution)
    target = build_target(cfg, cfg.seed, q)
    tcfg = transport_config(cfg)
    positions = initial_positions(cfg.n_agents, domain, cfg.seed)
    records, snapshots = run_experiment(positions, tcfg, target, q, cfg.seed)
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
    if cfg.grid_warm_start if warm_start is None else warm_start:
        state.phi, state.lam = saturated_potentials(state, rho_star)
    return state, rho_star


def _grid_loop_args(cfg):
    """Keywords of the grid loop `run_coupled` that every grid command
    takes from the config."""
    return dict(
        horizon=cfg.grid_horizon,
        lam_fixed=cfg.grid_lam_fixed,
        record_every=cfg.record_every,
    )


def run_pde(cfg, out_dir):
    """Write each record of the run to metrics.csv as the loop takes it.

    A positivity stop leaves the rows recorded before it and fails the
    command (`main` reports the error).
    """
    state, rho_star = _pde_state(cfg)
    last = [None]  # the latest record, for the summary line

    with open_csv(out_dir / "metrics.csv", PDE_HEADER) as f:

        def record(state, report):
            if report is not None:
                f.write(csv_line(_pde_row(report)))
                last[0] = report

        final = run_coupled(
            state, rho_star, cfg.grid_mode, record, inner_n=cfg.grid_inner, **_grid_loop_args(cfg)
        )
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
        value, _ = min_cost_flow(FlowProblem(graph, b))
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


def run_fig(cfg, number, out_dir):
    domain = Domain()
    if number in (2, 3):
        q = QuadratureGrid(domain, cfg.quad_resolution)
        target = build_target(cfg, cfg.seed, q)
        positions = initial_positions(cfg.n_agents, domain, cfg.seed)
        if number == 2:
            for n in (1, 5, 10):
                tcfg = transport_config(cfg, inner_iters=n)
                records, _ = run_experiment(positions, tcfg, target, q, cfg.seed)
                write_csv(out_dir / f"fig2_n{n}.csv", AGENT_HEADER, _agent_rows(records))
            print("fig 2: wrote fig2_n1.csv fig2_n5.csv fig2_n10.csv")
        else:
            rows = []
            for n in range(1, 11):
                tcfg = transport_config(cfg, inner_iters=n)
                records, _ = run_experiment(positions, tcfg, target, q, cfg.seed)
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
        snaps, calls = [], count()
        with open_csv(out_dir / "fig4_metrics.csv", PDE_HEADER) as f:

            def record(s, report):
                if report is not None:
                    f.write(csv_line(_pde_row(report)))
                if next(calls) in snap_steps:
                    snaps.append((s.t, s.rho))  # states never write their arrays

            run_coupled(
                state, rho_star, cfg.grid_mode, record, inner_n=cfg.grid_inner,
                **_grid_loop_args(cfg),
            )
        star = rho_star.tolist()
        snap_rows = (
            (t, *state.node_xy(i), r, r_star)
            for t, rho in snaps
            for i, (r, r_star) in enumerate(zip(rho.tolist(), star))
        )
        write_csv(out_dir / "fig4_density.csv", ["t", "ix", "iy", "rho", "rho_star"], snap_rows)
        print("fig 4: wrote fig4_density.csv fig4_metrics.csv")
        return 0
    # figures 5 and 6: density error vs time for several inner step counts.
    # fig 5 warm-starts the potentials at the saturated stationary pair;
    # from the cold default the multiplier threshold keeps the density
    # frozen on any usable horizon. A positivity stop keeps the rows
    # recorded up to the stop, and the next curve runs.
    mode = "on_the_fly_pd" if number == 5 else "on_the_fly_fixed"
    state, rho_star = _pde_state(cfg, warm_start=(number == 5))
    written = []
    for n in (1, 2, 5, 10):
        name = f"fig{number}_n{n}.csv"
        try:
            with open_csv(out_dir / name, ["t", "density_error"] + PDE_HEADER[1:]) as f:

                def record(s, report):
                    if report is not None:
                        f.write(csv_line(_density_error_row(report)))

                run_coupled(state, rho_star, mode, record, inner_n=n, **_grid_loop_args(cfg))
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
