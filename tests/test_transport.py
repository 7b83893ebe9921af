"""Agent transport round tests.

The proximal step is validated against a brute-force search over the
ball, and the local gradient against affine functions it must recover
exactly. Round-level tests pin fixed points and the balancing trend.
"""

import numpy as np
import pytest

import swarm_ot as so
from swarm_ot import cli, transport
from swarm_ot import Domain, MetricCost, QuadratureGrid, SwarmState, TransportConfig


def uniform_setup(n=64):
    dom = Domain()
    metric = MetricCost()
    q = QuadratureGrid(dom, n)
    return dom, metric, q, so.DensityField.uniform(dom)


def test_config_validation():
    with pytest.raises(ValueError):
        TransportConfig(eps=0.0)
    with pytest.raises(ValueError):
        TransportConfig(tau=-1.0)
    with pytest.raises(ValueError):
        TransportConfig(inner_iters=-1)
    with pytest.raises(ValueError):
        TransportConfig(fixed_dual=0.0)
    TransportConfig(inner_iters=0, rounds=0)  # both zero are legitimate


def test_local_gradient_recovers_affine_fields():
    gen = so.SplitMix64(31)
    positions = gen.uniforms(12).reshape(6, 2)
    a, bx, by = 0.7, -1.3, 2.1
    phi = a + bx * positions[:, 0] + by * positions[:, 1]
    g = so.local_gradient(0, positions, phi, [1, 2, 3, 4, 5])
    np.testing.assert_allclose(g, [bx, by], atol=1e-9)


def test_local_gradient_hand_case():
    # two neighbors straddling agent 0 along x with phi = x: slope (1, 0)
    positions = np.array([[0.5, 0.5], [0.3, 0.5], [0.8, 0.5]])
    phi = positions[:, 0].copy()
    g = so.local_gradient(0, positions, phi, [1, 2])
    np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-12)


def test_local_gradient_constant_field_is_zero():
    positions = np.array([[0.5, 0.5], [0.2, 0.1], [0.9, 0.8]])
    g = so.local_gradient(0, positions, np.full(3, 4.2), [1, 2])
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_local_gradient_collinear_neighborhood_stays_in_span():
    # all neighbors along the x-axis: no information about the y slope
    positions = np.array([[0.5, 0.5], [0.3, 0.5], [0.7, 0.5]])
    phi = np.array([0.0, -0.2, 0.2])
    g = so.local_gradient(0, positions, phi, [1, 2])
    assert g[1] == pytest.approx(0.0, abs=1e-12)
    assert g[0] == pytest.approx(1.0, abs=1e-9)


def test_local_gradient_isolated_agent_is_zero():
    positions = np.array([[0.5, 0.5]])
    np.testing.assert_array_equal(so.local_gradient(0, positions, np.array([3.0]), []), 0.0)


def test_proximal_step_stays_for_subcritical_gradients():
    dom, metric, _, _ = uniform_setup()
    x = np.array([0.5, 0.5])
    np.testing.assert_array_equal(so.proximal_step(x, np.zeros(2), 0.02, metric, dom), x)
    # ||g|| = xi exactly: moving trades cost one-for-one, so stay
    np.testing.assert_array_equal(
        so.proximal_step(x, np.array([1.0, 0.0]), 0.02, metric, dom), x
    )


def test_proximal_step_moves_to_ball_boundary():
    dom, metric, _, _ = uniform_setup()
    x = np.array([0.5, 0.5])
    z = so.proximal_step(x, np.array([2.0, 0.0]), 0.02, metric, dom)
    np.testing.assert_allclose(z, [0.48, 0.5], atol=1e-15)
    assert metric.distance(x, z) == pytest.approx(0.02)


def test_proximal_step_clamps_to_domain():
    dom, metric, _, _ = uniform_setup()
    z = so.proximal_step(np.array([0.005, 0.5]), np.array([3.0, 0.0]), 0.02, metric, dom)
    np.testing.assert_allclose(z, [0.0, 0.5])


def test_proximal_step_beats_brute_force_search():
    # no point of the ball does better on c(x, z) + g . (z - x)
    dom = Domain((-1.0, -1.0), (2.0, 2.0))
    metric = MetricCost(xi=1.5)
    eps = 0.1
    x = np.array([0.5, 0.5])
    for gvec in ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5], [0.0, -4.0]):
        g = np.array(gvec)
        z = so.proximal_step(x, g, eps, metric, dom)
        obj = metric.distance(x, z) + g @ (z - x)
        radii = np.linspace(0.0, eps / metric.xi, 21)
        angles = np.linspace(0.0, 2.0 * np.pi, 73)
        for r in radii:
            for t in angles:
                cand = x + r * np.array([np.cos(t), np.sin(t)])
                cand_obj = metric.distance(x, cand) + g @ (cand - x)
                assert obj <= cand_obj + 1e-9


def test_symmetric_quadrants_are_a_fixed_point():
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    cfg = TransportConfig(eps=0.05, tau=1.0, inner_iters=10)
    state, diag = so.transport_round(SwarmState(positions), cfg, target, metric, dom, q)
    np.testing.assert_array_equal(state.positions, positions)
    np.testing.assert_allclose(diag["masses"], 0.25, atol=1e-12)
    assert state.cost == 0.0


def test_zero_inner_iterations_mean_no_first_move():
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.2, 0.4], [0.8, 0.6]])
    cfg = TransportConfig(eps=0.05, inner_iters=0)
    state, diag = so.transport_round(SwarmState(positions), cfg, target, metric, dom, q)
    np.testing.assert_array_equal(state.positions, positions)
    assert diag["dual_objective"] == 0.0


def test_step_lengths_never_exceed_eps():
    dom, metric, q, target = uniform_setup()
    gen = so.SplitMix64(3)
    positions = gen.uniforms(20).reshape(10, 2)
    cfg = TransportConfig(eps=0.03, tau=1.0, inner_iters=10)
    state = SwarmState(positions)
    for _ in range(5):
        state, diag = so.transport_round(state, cfg, target, metric, dom, q)
        assert diag["step_lengths"].max() <= 0.03 + 1e-12


def test_duplicate_positions_are_nudged_apart():
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]])
    cfg = TransportConfig(eps=0.02, inner_iters=2)
    state, diag = so.transport_round(SwarmState(positions, seed=9), cfg, target, metric, dom, q)
    assert diag["perturbed"] == [1]
    assert len(state.positions) == 3


def test_corner_duplicates_stay_in_the_domain():
    # most nudge directions from a corner point out of the domain
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(eps=0.02, tau=0.3, inner_iters=5)
    for seed in range(6):
        state = SwarmState(np.array([[0.0, 0.0], [0.0, 0.0], [0.6, 0.4]]), seed=seed)
        for k in range(5):
            state, diag = so.transport_round(state, cfg, target, metric, dom, q)
            if k == 0:
                assert diag["perturbed"] == [1]
                assert not np.array_equal(state.prev_sites[0], state.prev_sites[1])
            assert all(dom.contains(p) for p in state.prev_sites)
            assert all(dom.contains(p) for p in state.positions)


def test_single_agent_is_rejected():
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig()
    with pytest.raises(ValueError):
        so.transport_round(SwarmState(np.array([[0.5, 0.5]])), cfg, target, metric, dom, q)


def test_fixed_dual_round_keeps_multipliers_out_of_carryover():
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(fixed_dual=1.0, inner_iters=5)
    state = SwarmState(np.array([[0.2, 0.5], [0.8, 0.5]]))
    state, _ = so.transport_round(state, cfg, target, metric, dom, q)
    assert state.prev_lam == {}


def test_transport_round_follows_cfg_fixed_dual():
    # with cfg.fixed_dual set, the round's potentials are run_primal's
    # with every multiplier at that weight
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(fixed_dual=1.0, tau=0.5, inner_iters=5)
    positions = np.array([[0.2, 0.5], [0.8, 0.5]])
    fixed, diag = so.transport_round(SwarmState(positions), cfg, target, metric, dom, q)
    graph = so.neighbor_graph(so.build_partition(positions, metric, dom, q), metric)
    start = so.PotentialState(np.zeros(2), np.ones(len(graph.edges)), graph.edges)
    ref = so.run_primal(start, diag["imbalance"], graph, cfg.tau, cfg.inner_iters)
    np.testing.assert_array_equal(fixed.prev_phi, ref.phi)


def test_potentials_warm_start_from_previous_round():
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.25, 0.5], [0.85, 0.5]])
    cfg = TransportConfig(eps=0.01, tau=0.5, inner_iters=20)
    state, _ = so.transport_round(SwarmState(positions), cfg, target, metric, dom, q)
    assert state.prev_phi is not None and state.prev_sites is not None
    assert set(state.prev_lam) == {(0, 1)}


def test_variance_decreases_over_rounds():
    dom, metric, q, target = uniform_setup(128)
    positions = so.initial_positions(16, dom, seed=4)
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=10, rounds=15)
    records, snapshots = so.run_experiment(positions, cfg, target, metric, dom, q, seed=4)
    assert len(records) == 16 and len(snapshots) == 16
    assert records[-1].mass_variance < 0.5 * records[0].mass_variance
    # net cost accumulates monotonically
    costs = [r.net_cost for r in records]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_zero_rounds_yield_only_the_initial_record():
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.2, 0.4], [0.8, 0.6]])
    cfg = TransportConfig(rounds=0)
    records, snapshots = so.run_experiment(positions, cfg, target, metric, dom, q)
    assert len(records) == 1 and len(snapshots) == 1
    assert records[0].k == 0 and records[0].net_cost == 0.0


def test_runs_are_deterministic():
    dom, metric, q, target = uniform_setup()
    positions = so.initial_positions(8, dom, seed=12)
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=5, rounds=6)
    r1, s1 = so.run_experiment(positions, cfg, target, metric, dom, q, seed=12)
    r2, s2 = so.run_experiment(positions, cfg, target, metric, dom, q, seed=12)
    assert r1 == r2
    for (k1, p1, m1), (k2, p2, m2) in zip(s1, s2):
        assert k1 == k2
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(m1, m2)


def test_seeded_positions_are_reproducible_and_in_domain():
    dom = Domain()
    p1 = so.initial_positions(20, dom, seed=5)
    p2 = so.initial_positions(20, dom, seed=5)
    np.testing.assert_array_equal(p1, p2)
    assert np.all(p1 >= 0.0) and np.all(p1 < 1.0)
    assert not np.array_equal(p1, so.initial_positions(20, dom, seed=6))


# the `agents_nudged` digest configuration: `_dedupe` nudges agents in
# some of its rounds
AGENTS_NUDGED = """\
mode = agents
transport.N = 10
transport.K = 20
transport.n = 5
quadrature.resolution = 64
target.means = 0.98 0.98
target.covariances = 0.001 0 0 0.001
transport.eps = 0.1
transport.tau = 0.3
"""


def count_calls(monkeypatch, module, names):
    """Wrap each named function of the module with a call counter."""
    counts = dict.fromkeys(names, 0)

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


MEASURES = ("build_partition", "neighbor_graph", "cell_masses")


def nudged_rounds(monkeypatch):
    """Count rounds in which `_dedupe` nudged an agent."""
    rounds = []
    round_fn = transport.transport_round

    def watched(*args, **kwargs):
        state, diag = round_fn(*args, **kwargs)
        rounds.append(bool(diag["perturbed"]))
        return state, diag

    monkeypatch.setattr(transport, "transport_round", watched)
    return rounds


def test_each_position_set_is_measured_once(monkeypatch):
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=5, rounds=6)
    counts = count_calls(monkeypatch, transport, MEASURES)
    nudged = nudged_rounds(monkeypatch)
    so.run_experiment(so.initial_positions(8, dom, seed=3), cfg, target, metric, dom, q, seed=3)
    assert nudged == [False] * cfg.rounds
    assert counts == dict.fromkeys(MEASURES, cfg.rounds + 1)


def test_a_nudged_round_measures_its_cells_again(monkeypatch, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(AGENTS_NUDGED)
    counts = count_calls(monkeypatch, transport, MEASURES)
    nudged = nudged_rounds(monkeypatch)
    assert cli.main(["agents", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(nudged) == 20 and any(nudged)
    assert counts == dict.fromkeys(MEASURES, 20 + 1 + sum(nudged))


def round_bits(result):
    state, diag = result
    arrays = (state.positions, state.prev_sites, state.prev_phi, *(
        np.asarray(v) for v in diag.values()
    ))
    return (
        [a.tobytes() for a in arrays],
        (state.k, state.cost, state.seed, state.prev_lam),
        list(diag),
    )


def test_a_round_given_its_cells_matches_one_that_measures_them(monkeypatch):
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(eps=0.05, tau=0.5, inner_iters=5)
    positions = so.initial_positions(6, dom, seed=8)
    state = SwarmState(positions, seed=8)
    cells = transport._measure(positions, target, metric, dom, q, cfg.radius)
    other = transport._measure(positions[::-1].copy(), target, metric, dom, q, cfg.radius)
    measured = so.transport_round(state, cfg, target, metric, dom, q)
    counts = count_calls(monkeypatch, transport, MEASURES)
    given = so.transport_round(state, cfg, target, metric, dom, q, cells)
    assert counts == dict.fromkeys(MEASURES, 0)
    assert round_bits(given) == round_bits(measured)
    # cells of other sites are measured again at the round's positions
    given = so.transport_round(state, cfg, target, metric, dom, q, other)
    assert counts == dict.fromkeys(MEASURES, 1)
    assert round_bits(given) == round_bits(measured)


def test_a_round_whose_dedupe_nudges_measures_its_cells_again(monkeypatch):
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(eps=0.05, tau=0.5, inner_iters=5)
    positions = np.array([[0.2, 0.3], [0.7, 0.6], [0.2, 0.3]])
    state = SwarmState(positions, seed=2)
    cells = transport._measure(positions, target, metric, dom, q, cfg.radius)
    measured = so.transport_round(state, cfg, target, metric, dom, q)
    assert measured[1]["perturbed"] == [2]
    counts = count_calls(monkeypatch, transport, MEASURES)
    given = so.transport_round(state, cfg, target, metric, dom, q, cells)
    assert counts == dict.fromkeys(MEASURES, 1)
    assert round_bits(given) == round_bits(measured)
