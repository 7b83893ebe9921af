"""Acceptance gate: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible under
`pytest -s`) and asserts the stated tolerances. Runtime budgets are
asserted where a criterion carries one.
"""

import time

import numpy as np

import swarm_ot as so
from conftest import collect, run_python
from swarm_ot import cli
from swarm_ot.rng import STREAM_TARGET, derive

DOM = so.Domain()


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _seeded_gaussian_target(seed, q=None):
    """Gaussian target with covariance 2I and a seeded mean in [0,1]^2."""
    gen = so.SplitMix64(derive(seed, STREAM_TARGET))
    mean = np.array([[gen.next_float(), gen.next_float()]])
    field = so.DensityField.gaussian_mixture(mean, np.array([2.0 * np.eye(2)]), domain=DOM)
    return field.normalize(q) if q is not None else field


def test_criterion_1_dual_matches_flow_oracle():
    started = time.time()
    worst_gap = 0.0
    worst_feas = 0.0
    for r in range(10):
        graph, b, tol = cli.oracle_instance(0, r)
        assert so.is_connected(graph)
        state, info = so.converge_pd(so.zero_state(graph), b, graph, tol=tol)
        assert info["converged"]
        value, _ = so.min_cost_flow(so.FlowProblem(graph, b))
        worst_gap = max(worst_gap, abs(so.dual_objective(state.phi, b) - value))
        worst_feas = max(worst_feas, so.feasibility_violation(state.phi, graph))
    elapsed = time.time() - started
    ok = worst_gap <= 1e-4 and worst_feas <= 1e-6 and elapsed < 10.0
    _report(
        1, ok,
        f"10 graphs, max gap {worst_gap:.2e} <= 1e-4, "
        f"max feasibility {worst_feas:.2e} <= 1e-6, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_two_node_closed_form():
    graph = so.NeighborGraph(2, [[0, 1]], [1.0])
    b = np.array([0.2, -0.2])
    state, info = so.converge_pd(so.zero_state(graph), b, graph, tau=0.1, tol=1e-10)
    value = so.dual_objective(state.phi, b)
    gap = state.phi[0] - state.phi[1]
    ok = (
        info["converged"]
        and abs(value - 0.2) <= 1e-6
        and abs(gap - 1.0) <= 1e-5
        and abs(state.lam[0] - 0.2) <= 1e-5
    )
    _report(
        2, ok,
        f"dual {value:.8f} = 0.2 +/- 1e-6, phi gap {gap:.6f} -> 1, lam {state.lam[0]:.6f} -> 0.2",
    )


def test_criterion_3_exponential_decay_slope():
    started = time.time()
    rho_star = so.density_on_grid(_seeded_gaussian_target(0), 20, 20)
    s = so.GridState(20, 20, so.random_density(20, 20, 0), dt=1e-3)
    reports = []
    so.run_coupled(s, rho_star, "inner_steady_state", collect(reports), horizon=2.0,
                   record_every=100)
    ts = np.array([r.t for r in reports])
    vs = np.array([r.V for r in reports])
    slope = float(np.polyfit(ts, np.log(vs), 1)[0])
    elapsed = time.time() - started
    ok = abs(slope + 2.0) <= 0.1 and elapsed < 60.0
    _report(3, ok, f"log V slope {slope:.4f} = -2 +/- 5%, {elapsed:.1f}s < 60s")


def test_criterion_4_fixed_dual_lyapunov():
    started = time.time()
    rho_star = so.density_on_grid(_seeded_gaussian_target(0), 20, 20)
    s = so.GridState(20, 20, so.random_density(20, 20, 0), dt=1e-3)
    reports = []
    final = so.run_coupled(
        s, rho_star, "on_the_fly_fixed", collect(reports), inner_n=1, horizon=50.0,
        lam_fixed=1.0, record_every=1,
    )
    worst_rise = float(np.diff([r.E for r in reports]).max())
    err = so.density_error(final, rho_star)
    elapsed = time.time() - started
    ok = worst_rise <= 1e-10 and err < 1e-3 and elapsed < 120.0
    _report(
        4, ok,
        f"worst E rise {worst_rise:.2e} <= 1e-10 over {len(reports) - 1} steps, "
        f"final density error {err:.2e} < 1e-3 at t=50, {elapsed:.1f}s < 120s",
    )


def test_criterion_5_conservation_and_positivity_soak():
    rho_star = so.density_on_grid(_seeded_gaussian_target(0), 20, 20)
    s = so.GridState(20, 20, so.random_density(20, 20, 0), dt=1e-3)
    # transport_step raises on any nonpositive density, so completing the
    # run certifies positivity at every one of the 10,000 steps
    reports = []
    final = so.run_coupled(
        s, rho_star, "on_the_fly_fixed", collect(reports), inner_n=1, horizon=10.0,
        lam_fixed=1.0, record_every=1,
    )
    worst_mass = max(r.mass_error for r in reports)
    ok = len(reports) == 10_001 and worst_mass <= 1e-12 and bool(np.all(final.rho > 0))
    _report(
        5, ok,
        f"10000 steps, worst |sum rho - 1| {worst_mass:.2e} <= 1e-12, density stayed positive",
    )


def test_criterion_6_stage_cost_bounds():
    q = so.QuadratureGrid(DOM, 128)
    target = _seeded_gaussian_target(1, q)
    details = []
    ok = True
    for cfg in (
        so.TransportConfig(eps=0.02, tau=1.0, inner_iters=10, rounds=12),
        so.TransportConfig(eps=0.02, tau=1.0, inner_iters=10, rounds=12, fixed_dual=1.0),
    ):
        positions = so.initial_positions(12, DOM, seed=1)
        records, snapshots = so.run_experiment(positions, cfg, target, q, seed=1)
        lower = so.discrete_ot_cost(snapshots[0][1], snapshots[-1][1])
        stage_cost = records[-1].net_cost
        steps = np.array([
            np.linalg.norm(b[1] - a[1], axis=1).max()
            for a, b in zip(snapshots, snapshots[1:])
        ])
        mode = "pd" if cfg.fixed_dual is None else "fixed"
        ok = ok and stage_cost >= lower - 1e-9 and float(steps.max()) <= 0.02 + 1e-12
        details.append(f"{mode}: cost {stage_cost:.5f} >= {lower:.5f}, max step {steps.max():.5f}")
    _report(6, ok, "; ".join(details))


def test_criterion_7_inner_iterations_improve_balance():
    started = time.time()
    q = so.QuadratureGrid(DOM, 256)
    ok = True
    details = []
    for seed in (1, 2, 3):
        target = _seeded_gaussian_target(seed, q)
        positions = so.initial_positions(30, DOM, seed)
        final = {}
        initial = None
        for n in (1, 10):
            cfg = so.TransportConfig(eps=0.02, tau=1.0, inner_iters=n, rounds=40)
            records, _ = so.run_experiment(positions, cfg, target, q, seed)
            initial = records[0].mass_variance
            final[n] = records[-1].mass_variance
        ok = ok and final[10] < 0.5 * initial and final[10] <= final[1]
        details.append(
            f"seed {seed}: {final[10]:.2e} < 0.5 * {initial:.2e} and <= {final[1]:.2e}"
        )
    elapsed = time.time() - started
    ok = ok and elapsed < 60.0
    _report(7, ok, "; ".join(details) + f"; {elapsed:.1f}s < 60s")


def test_criterion_8_kkt_closure_on_1x2_grid():
    s = so.GridState(2, 1, np.array([0.3, 0.7]), dt=0.1)
    rho_star = np.array([0.5, 0.5])
    for _ in range(100_000):
        s = so.pd_flow_step(s, rho_star)
        kkt = so.kkt_residual(s, rho_star)
        if max(kkt.stationarity, kkt.slackness) <= 1e-9:
            break
    kkt = so.kkt_residual(s, rho_star)
    gap = s.phi[1] - s.phi[0]
    ok = (
        kkt.stationarity <= 1e-6
        and kkt.slackness <= 1e-6
        and kkt.feasibility <= 1e-6
        and abs(gap - 1.0) <= 1e-6
        and abs(s.lam[0] - 0.2) <= 1e-6
    )
    _report(
        8, ok,
        f"stationarity {kkt.stationarity:.1e}, slackness {kkt.slackness:.1e} <= 1e-6, "
        f"phi gap {gap:.7f} = 1 +/- 1e-6, lam {s.lam[0]:.7f} = 0.2 +/- 1e-6",
    )


def test_criterion_9_thread_count_never_changes_output(tmp_path):
    agents_cfg = tmp_path / "agents.cfg"
    agents_cfg.write_text(
        "mode = agents\nseed = 5\ntransport.N = 10\ntransport.K = 3\n"
        "transport.n = 5\nquadrature.resolution = 64\ntarget.kind = gaussian\n"
    )
    pde_cfg = tmp_path / "pde.cfg"
    pde_cfg.write_text(
        "mode = pde\nseed = 5\ngrid.nx = 8\ngrid.ny = 8\ngrid.dt = 1e-2\n"
        "grid.T = 0.1\ntarget.kind = uniform\n"
    )
    outputs = {}
    for threads in ("1", "4"):
        for name, cfg in (("agents", agents_cfg), ("pde", pde_cfg)):
            out = tmp_path / f"{name}_t{threads}"
            res = run_python(["-m", "swarm_ot", name, "--config", str(cfg),
                              "--threads", threads, "--out", str(out)])
            assert res.returncode == 0, res.stderr
            outputs[(name, threads)] = {
                p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))
            }
    ok = (
        outputs[("agents", "1")] == outputs[("agents", "4")]
        and outputs[("pde", "1")] == outputs[("pde", "4")]
        and len(outputs[("agents", "1")]) == 2
        and len(outputs[("pde", "1")]) == 1
    )
    _report(9, ok, "agents and pde CSVs byte-identical for --threads 1 vs 4")
