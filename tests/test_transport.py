"""Agent transport round tests.

The proximal step is validated against a brute-force search over the
ball, and the local gradient against affine functions it must recover
exactly. Round-level tests pin fixed points and the balancing trend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    state, diag = so.transport_round(SwarmState(positions), cfg, target, metric, q)
    np.testing.assert_array_equal(state.positions, positions)
    np.testing.assert_allclose(diag["masses"], 0.25, atol=1e-12)
    assert state.cost == 0.0


def test_zero_inner_iterations_mean_no_first_move():
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.2, 0.4], [0.8, 0.6]])
    cfg = TransportConfig(eps=0.05, inner_iters=0)
    state, diag = so.transport_round(SwarmState(positions), cfg, target, metric, q)
    np.testing.assert_array_equal(state.positions, positions)
    assert diag["dual_objective"] == 0.0


def test_step_lengths_never_exceed_eps():
    dom, metric, q, target = uniform_setup()
    gen = so.SplitMix64(3)
    positions = gen.uniforms(20).reshape(10, 2)
    cfg = TransportConfig(eps=0.03, tau=1.0, inner_iters=10)
    state = SwarmState(positions)
    for _ in range(5):
        state, diag = so.transport_round(state, cfg, target, metric, q)
        assert diag["step_lengths"].max() <= 0.03 + 1e-12


def test_duplicate_positions_are_nudged_apart():
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]])
    cfg = TransportConfig(eps=0.02, inner_iters=2)
    state, diag = so.transport_round(SwarmState(positions, seed=9), cfg, target, metric, q)
    assert diag["perturbed"] == [1]
    assert len(state.positions) == 3


def test_corner_duplicates_stay_in_the_domain():
    # most nudge directions from a corner point out of the domain
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(eps=0.02, tau=0.3, inner_iters=5)
    for seed in range(6):
        state = SwarmState(np.array([[0.0, 0.0], [0.0, 0.0], [0.6, 0.4]]), seed=seed)
        for k in range(5):
            sites, perturbed = transport._dedupe(state, dom)
            if k == 0:
                assert perturbed == [1]
                assert not np.array_equal(sites[0], sites[1])
            assert all(dom.contains(p) for p in sites)
            state, diag = so.transport_round(state, cfg, target, metric, q)
            assert diag["perturbed"] == perturbed
            assert all(dom.contains(p) for p in state.positions)


def test_single_agent_is_rejected():
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig()
    with pytest.raises(ValueError):
        so.transport_round(SwarmState(np.array([[0.5, 0.5]])), cfg, target, metric, q)


def test_fixed_dual_round_keeps_multipliers_out_of_carryover():
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(fixed_dual=1.0, inner_iters=5)
    state = SwarmState(np.array([[0.2, 0.5], [0.8, 0.5]]))
    state, _ = so.transport_round(state, cfg, target, metric, q)
    assert state.prev_lam == {}


def test_transport_round_follows_cfg_fixed_dual():
    # with cfg.fixed_dual set, the round's potentials are run_primal's
    # with every multiplier at that weight
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(fixed_dual=1.0, tau=0.5, inner_iters=5)
    positions = np.array([[0.2, 0.5], [0.8, 0.5]])
    fixed, diag = so.transport_round(SwarmState(positions), cfg, target, metric, q)
    graph = so.neighbor_graph(so.build_partition(positions, q), metric)
    start = so.PotentialState(np.zeros(2), np.ones(len(graph.edges)), graph.edges)
    ref = so.run_primal(start, diag["imbalance"], graph, cfg.tau, cfg.inner_iters)
    np.testing.assert_array_equal(fixed.prev_phi, ref.phi)


def inner_starts(monkeypatch):
    """Record (starting state, returned phi) of every inner solve."""
    solves = []
    for name in ("run_pd", "run_primal"):
        def watched(s, *args, solve=getattr(transport, name)):
            start = (s.phi.copy(), s.lam.copy())
            out = solve(s, *args)
            solves.append((start, out.phi.copy()))
            return out

        monkeypatch.setattr(transport, name, watched)
    return solves


def test_potentials_warm_start_from_previous_round(monkeypatch):
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.25, 0.5], [0.85, 0.5]])
    cfg = TransportConfig(eps=0.01, tau=0.5, inner_iters=20)
    state, _ = so.transport_round(SwarmState(positions), cfg, target, metric, q)
    assert state.prev_phi.shape == (2,) and np.any(state.prev_phi)
    assert set(state.prev_lam) == {(0, 1)}
    solves = inner_starts(monkeypatch)
    so.transport_round(state, cfg, target, metric, q)
    [((phi0, lam0), _)] = solves
    assert phi0.tobytes() == state.prev_phi.tobytes()
    assert lam0.tolist() == [state.prev_lam[(0, 1)]]


def test_prev_phi_holds_one_potential_per_agent():
    positions = np.array([[0.2, 0.5], [0.8, 0.5], [0.5, 0.1]])
    SwarmState(positions, prev_phi=np.zeros(3))
    for phi in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="prev_phi"):
            SwarmState(positions, prev_phi=phi)


def test_variance_decreases_over_rounds():
    dom, metric, q, target = uniform_setup(128)
    positions = so.initial_positions(16, dom, seed=4)
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=10, rounds=15)
    records, snapshots = so.run_experiment(positions, cfg, target, metric, q, seed=4)
    assert len(records) == 16 and len(snapshots) == 16
    assert records[-1].mass_variance < 0.5 * records[0].mass_variance
    # net cost accumulates monotonically
    costs = [r.net_cost for r in records]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_zero_rounds_yield_only_the_initial_record():
    dom, metric, q, target = uniform_setup()
    positions = np.array([[0.2, 0.4], [0.8, 0.6]])
    cfg = TransportConfig(rounds=0)
    records, snapshots = so.run_experiment(positions, cfg, target, metric, q)
    assert len(records) == 1 and len(snapshots) == 1
    assert records[0].k == 0 and records[0].net_cost == 0.0


def test_runs_are_deterministic():
    dom, metric, q, target = uniform_setup()
    positions = so.initial_positions(8, dom, seed=12)
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=5, rounds=6)
    r1, s1 = so.run_experiment(positions, cfg, target, metric, q, seed=12)
    r2, s2 = so.run_experiment(positions, cfg, target, metric, q, seed=12)
    assert r1 == r2
    for (k1, p1, m1), (k2, p2, m2) in zip(s1, s2):
        assert k1 == k2
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(m1, m2)


def test_an_agent_run_keeps_to_a_domain_off_the_unit_square():
    # the run reads its domain from the quadrature alone
    dom = Domain((-1.0, 2.0), (3.0, 3.0))
    q = QuadratureGrid(dom, 48, 24)
    target = so.DensityField.gaussian_mixture([2.0, 2.6], 0.3 * np.eye(2), domain=dom).normalize(q)
    positions = so.initial_positions(12, dom, seed=2)
    positions[0] = [5.0, 0.0]  # outside: clamped to the corner (3, 2)
    cfg = TransportConfig(eps=0.05, tau=0.05, inner_iters=10, rounds=15)
    r1, s1 = so.run_experiment(positions, cfg, target, MetricCost(), q, seed=2)
    r2, s2 = so.run_experiment(positions, cfg, target, MetricCost(), q, seed=2)
    assert s1[0][1][0].tolist() == [3.0, 2.0]
    assert all(dom.contains(p) for _, pos, _ in s1 for p in pos)
    assert r1 == r2
    assert [(p.tobytes(), m.tobytes()) for _, p, m in s1] == [
        (p.tobytes(), m.tobytes()) for _, p, m in s2
    ]
    assert r1[-1].mass_variance < r1[0].mass_variance


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
    so.run_experiment(so.initial_positions(8, dom, seed=3), cfg, target, metric, q, seed=3)
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
    arrays = (state.positions, state.prev_phi, *(
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
    dens = target.values_on(q)
    cells = transport._measure(positions, metric, q, cfg.radius, dens)
    other = transport._measure(positions[::-1].copy(), metric, q, cfg.radius, dens)
    measured = so.transport_round(state, cfg, target, metric, q)
    counts = count_calls(monkeypatch, transport, MEASURES)
    given = so.transport_round(state, cfg, target, metric, q, cells)
    assert counts == dict.fromkeys(MEASURES, 0)
    assert round_bits(given) == round_bits(measured)
    # cells of other sites are measured again at the round's positions
    given = so.transport_round(state, cfg, target, metric, q, other)
    assert counts == dict.fromkeys(MEASURES, 1)
    assert round_bits(given) == round_bits(measured)


def test_a_round_whose_dedupe_nudges_measures_its_cells_again(monkeypatch):
    dom, metric, q, target = uniform_setup()
    cfg = TransportConfig(eps=0.05, tau=0.5, inner_iters=5)
    positions = np.array([[0.2, 0.3], [0.7, 0.6], [0.2, 0.3]])
    state = SwarmState(positions, seed=2)
    cells = transport._measure(positions, metric, q, cfg.radius, target.values_on(q))
    measured = so.transport_round(state, cfg, target, metric, q)
    assert measured[1]["perturbed"] == [2]
    counts = count_calls(monkeypatch, transport, MEASURES)
    given = so.transport_round(state, cfg, target, metric, q, cells)
    assert counts == dict.fromkeys(MEASURES, 1)
    assert round_bits(given) == round_bits(measured)


def test_a_nudged_round_evaluates_the_target_no_more(monkeypatch, tmp_path):
    # the run evaluates its target on the quadrature once; a round that
    # measures its nudged cells again reuses those values
    config = tmp_path / "run.cfg"
    config.write_text(AGENTS_NUDGED)
    raw_many = so.DensityField._raw_many
    evaluated = []

    def counted(self, points):
        evaluated.append(len(points))
        return raw_many(self, points)

    monkeypatch.setattr(so.DensityField, "_raw_many", counted)
    rounds = []
    round_fn = transport.transport_round

    def watched(*args, **kwargs):
        before = len(evaluated)
        state, diag = round_fn(*args, **kwargs)
        rounds.append((bool(diag["perturbed"]), len(evaluated) - before))
        return state, diag

    monkeypatch.setattr(transport, "transport_round", watched)
    assert cli.main(["agents", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(rounds) == 20 and any(nudged for nudged, _ in rounds)
    assert [calls for _, calls in rounds] == [0] * 20


@pytest.mark.parametrize("fixed", [False, True], ids=["pd", "fixed_dual"])
def test_every_agent_warm_starts_from_its_own_potential(monkeypatch, tmp_path, fixed):
    # an agent's potential is carried by its index; a nearest-previous-site
    # lookup would hand some agents another agent's potential in this run
    config = tmp_path / "run.cfg"
    config.write_text(
        AGENTS_NUDGED.replace("mode = agents", "mode = agents_fixed_dual")
        + "transport.fixed_dual = 1.0\n"
        if fixed
        else AGENTS_NUDGED
    )
    solves = inner_starts(monkeypatch)
    sites = []
    dedupe = transport._dedupe

    def watched(state, domain):
        positions, perturbed = dedupe(state, domain)
        sites.append(positions)
        return positions, perturbed

    monkeypatch.setattr(transport, "_dedupe", watched)
    assert cli.main(["agents", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(solves) == len(sites) == 20
    assert not solves[0][0][0].any()
    for ((phi0, _), _), (_, phi) in zip(solves[1:], solves):
        assert phi0.tobytes() == phi.tobytes()
    nearest = [
        np.argmin(((now[:, None, :] - before[None, :, :]) ** 2).sum(axis=2), axis=1)
        for before, now in zip(sites, sites[1:])
    ]
    assert any(np.any(idx != np.arange(len(idx))) for idx in nearest)


def scalar_proximal_step(x, g, eps, metric, domain):
    """One agent's proximal step, spelled with `np.dot` as a reference."""
    norm = float(np.sqrt(np.dot(g, g)))
    if norm <= metric.xi:
        return x.copy()
    return domain.clamp(x - (eps / metric.xi) * g / norm)


# 5 * 2**k, so the 3-4-5 gradients below have norm exactly xi
XIS = [0.625, 1.25, 2.5, 5.0]


@st.composite
def step_cases(draw):
    xi = draw(st.sampled_from(XIS))
    # a small domain around the points makes many steps clamp
    lo = np.array([draw(st.floats(-1.0, 0.0)), draw(st.floats(-1.0, 0.0))])
    dom = Domain(lo, lo + [draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))])
    unit = st.floats(0.0, 1.0)
    coord = st.floats(-20.0, 20.0, allow_subnormal=True)
    # zero gradients, gradients of norm exactly xi (3-4-5 and axis
    # vectors), and arbitrary ones
    special = st.sampled_from([(0.0, 0.0), (xi, 0.0), (0.0, -xi), (-3 * xi / 5, 4 * xi / 5)])
    n = draw(st.integers(1, 12))
    x = np.array([dom.lo + dom.extent * [draw(unit), draw(unit)] for _ in range(n)])
    g = np.array([draw(st.one_of(special, st.tuples(coord, coord))) for _ in range(n)])
    eps = draw(st.floats(1e-6, 1.0))
    return x, g, eps, MetricCost(xi), dom


@settings(deadline=None, max_examples=200)
@given(step_cases())
def test_a_batched_proximal_step_is_the_rowwise_step_bit_for_bit(case):
    x, g, eps, metric, dom = case
    batched = so.proximal_step(x, g, eps, metric, dom)
    rows = np.array([so.proximal_step(x[i], g[i], eps, metric, dom) for i in range(len(x))])
    ref = np.array([scalar_proximal_step(x[i], g[i], eps, metric, dom) for i in range(len(x))])
    assert batched.shape == x.shape
    assert batched.tobytes() == rows.tobytes() == ref.tobytes()


def test_norm_exactly_xi_stays_put():
    # |(3, 4)| is 5 exactly, so the agent sits on the threshold and stays
    metric, dom = MetricCost(5.0), Domain()
    x = np.array([[0.5, 0.5], [0.5, 0.5]])
    g = np.array([[3.0, 4.0], [3.0, 4.0 + 1e-12]])
    moved = so.proximal_step(x, g, 0.1, metric, dom)
    assert np.array_equal(moved[0], x[0])
    assert not np.array_equal(moved[1], x[1])


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=40))
def test_row_norms_have_the_bits_of_the_vector_dot(rows):
    v = np.array(rows)
    ref = np.array([np.sqrt(np.dot(r, r)) for r in v])
    assert transport._row_norms(v).tobytes() == ref.tobytes()


def test_step_lengths_are_the_metric_distance_of_each_move():
    dom, _, q, target = uniform_setup()
    metric = MetricCost(1.7)
    cfg = TransportConfig(eps=0.08, tau=0.5, inner_iters=5, rounds=3)
    state = SwarmState(so.initial_positions(40, dom, seed=4), seed=4)
    for _ in range(cfg.rounds):
        before = state.positions
        state, diag = so.transport_round(state, cfg, target, metric, q)
        assert diag["perturbed"] == []  # so the round moved `before` itself
        steps = diag["step_lengths"]
        ref = [metric.distance(a, b) for a, b in zip(before, state.positions)]
        assert steps.tobytes() == np.array(ref).tobytes()
    assert np.count_nonzero(steps) > 0
