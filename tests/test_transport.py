"""Agent transport round tests.

The proximal step is validated against a brute-force search over the
ball, and the local gradient against affine functions it must recover
exactly. Round-level tests pin fixed points and the balancing trend.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import swarm_ot as so
from conftest import keep_records
from swarm_ot import cli, geometry, transport
from swarm_ot import Domain, QuadratureGrid, SwarmState, TransportConfig
from swarm_ot.config import load_config
from swarm_ot.rng import STREAM_PERTURB


def uniform_setup(n=64):
    dom = Domain()
    q = QuadratureGrid(dom, n)
    return dom, q, so.DensityField.uniform(dom).values_on(q)


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


def agent_gradient(i, positions, phi, neighbors):
    """Agent i's row of the batched fit on the star of i and its neighbors."""
    edges = [sorted((i, j)) for j in neighbors]
    graph = so.NeighborGraph(len(positions), edges, np.ones(len(edges)))
    return so.local_gradient(positions, phi, graph)[i]


def test_local_gradient_recovers_affine_fields():
    gen = so.SplitMix64(31)
    positions = gen.uniforms(12).reshape(6, 2)
    a, bx, by = 0.7, -1.3, 2.1
    phi = a + bx * positions[:, 0] + by * positions[:, 1]
    g = agent_gradient(0, positions, phi, [1, 2, 3, 4, 5])
    np.testing.assert_allclose(g, [bx, by], atol=1e-9)


def test_local_gradient_hand_case():
    # two neighbors straddling agent 0 along x with phi = x: slope (1, 0)
    positions = np.array([[0.5, 0.5], [0.3, 0.5], [0.8, 0.5]])
    phi = positions[:, 0].copy()
    g = agent_gradient(0, positions, phi, [1, 2])
    np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-12)


def test_local_gradient_constant_field_is_zero():
    positions = np.array([[0.5, 0.5], [0.2, 0.1], [0.9, 0.8]])
    g = agent_gradient(0, positions, np.full(3, 4.2), [1, 2])
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_local_gradient_collinear_neighborhood_stays_in_span():
    # all neighbors along the x-axis: no information about the y slope
    positions = np.array([[0.5, 0.5], [0.3, 0.5], [0.7, 0.5]])
    phi = np.array([0.0, -0.2, 0.2])
    g = agent_gradient(0, positions, phi, [1, 2])
    assert g[1] == pytest.approx(0.0, abs=1e-12)
    assert g[0] == pytest.approx(1.0, abs=1e-9)


def test_local_gradient_isolated_agent_is_zero():
    positions = np.array([[0.5, 0.5]])
    np.testing.assert_array_equal(agent_gradient(0, positions, np.array([3.0]), []), 0.0)


def neighborhoods(graph):
    """Each agent's index followed by its neighbors' indices."""
    offsets, neighbors = graph.adjacency()
    return [np.r_[i, neighbors[offsets[i] : offsets[i + 1]]] for i in range(graph.n)]


def lstsq_gradients(positions, phi, graph):
    """Reference fit: one `np.linalg.lstsq` per agent over its neighborhood,
    which gives the minimum-norm slope where the neighborhood is collinear."""
    grads = np.zeros((graph.n, 2))
    for i, idx in enumerate(neighborhoods(graph)):
        if len(idx) > 1:
            design = np.column_stack([np.ones(len(idx)), positions[idx] - positions[i]])
            grads[i] = np.linalg.lstsq(design, phi[idx], rcond=transport.GRAD_RCOND)[0][1:]
    return grads


# the closed form solves the centred normal equations, whose condition
# number is the square of the design's: on neighborhoods whose singular
# values are within FULL_RANK of each other, each gradient is within
# FIT_RTOL of lstsq's, relative to |g| + max |phi_j - phi_i| / sigma_min
FULL_RANK = 1e-3
FIT_RTOL = 1e-8


def assert_fits_match_on_full_rank_neighborhoods(positions, phi, graph):
    grads = so.local_gradient(positions, phi, graph)
    ref = lstsq_gradients(positions, phi, graph)
    assert grads.shape == (graph.n, 2)
    for i, idx in enumerate(neighborhoods(graph)):
        sigma = np.linalg.svd(positions[idx] - positions[idx].mean(axis=0), compute_uv=False)
        if len(idx) > 2 and sigma[-1] > FULL_RANK * sigma[0]:
            scale = np.abs(ref[i]).max() + np.abs(phi[idx] - phi[i]).max() / sigma[-1]
            assert np.abs(grads[i] - ref[i]).max() <= FIT_RTOL * scale


@st.composite
def fitted_graphs(draw):
    """Random graphs on 2 to 40 agents in the plane, on a coarse lattice
    (some neighborhoods collinear, some coincident) or in a thin strip,
    with potentials over several magnitudes."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["plane", "lattice", "strip"]))
    if layout == "plane":
        positions = rng.uniform(size=(n, 2))
    elif layout == "lattice":
        positions = rng.integers(0, 4, size=(n, 2)) / 4.0
    else:
        positions = rng.uniform(size=(n, 2)) * [1.0, 10.0 ** rng.uniform(-4, 0)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    phi = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    return positions, phi, so.NeighborGraph(n, edges, np.ones(len(edges)))


@settings(deadline=None, max_examples=200)
@given(fitted_graphs())
def test_the_batched_fit_matches_the_per_agent_lstsq(case):
    assert_fits_match_on_full_rank_neighborhoods(*case)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.floats(0.05, 0.5))
def test_the_batched_fit_matches_on_measured_radius_graphs(seed, n, radius):
    # a communication radius leaves some agents with few or no neighbors
    rng = np.random.default_rng(seed)
    dom, q, _ = uniform_setup(32)
    positions = rng.uniform(size=(n, 2))
    graph = so.neighbor_graph(so.build_partition(positions, q), radius)
    phi = rng.normal(size=n)
    assert_fits_match_on_full_rank_neighborhoods(positions, phi, graph)
    grads = so.local_gradient(positions, phi, graph)
    isolated = np.bincount(graph.edges.ravel(), minlength=n) == 0
    assert np.all(grads[isolated] == 0.0)


# directions whose multiples by a dyadic step are exact, so the points
# of each line are exactly collinear
LINE_DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (1.0, 2.0), (2.0, -1.0)]


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 30),
    st.sampled_from(LINE_DIRECTIONS + ["edge"]),
)
def test_a_collinear_neighborhood_gets_the_minimum_norm_slope(seed, n, line):
    """Every agent on one exact line, or clamped onto one edge of the
    domain: each fit is lstsq's minimum-norm slope, which lies along the
    line, and an axis-parallel line gets exactly no slope across it."""
    rng = np.random.default_rng(seed)
    if line == "edge":
        # points beyond a domain edge clamp onto it, on a grid of 1/16
        side = rng.integers(0, 4)
        outside = rng.integers(-8, 25, size=(n, 2)) / 16
        beyond = rng.uniform(0.0, 0.5, size=n)
        outside[:, side % 2] = -beyond if side < 2 else 1.0 + beyond
        positions = Domain().clamp(outside)
        direction = np.array([0.0, 1.0]) if side % 2 == 0 else np.array([1.0, 0.0])
    else:
        direction = np.array(line)
        base = rng.integers(-8, 9, size=(1, 2)) / 16
        positions = base + rng.integers(-16, 17, size=(n, 1)) / 64 * direction
    pairs = rng.integers(0, n, size=(3 * n, 2))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs.tolist() if a != b})
    graph = so.NeighborGraph(n, edges, np.ones(len(edges)))
    phi = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    grads = so.local_gradient(positions, phi, graph)
    ref = lstsq_gradients(positions, phi, graph)
    scale = np.abs(phi).max() * 64  # no two distinct points are closer than 1/64
    np.testing.assert_allclose(grads, ref, rtol=0, atol=FIT_RTOL * scale)
    across = grads @ [-direction[1], direction[0]]
    assert np.all(np.abs(across) <= FIT_RTOL * scale)
    if 0.0 in direction:
        assert np.all(across == 0.0)


@settings(deadline=None, max_examples=50)
@given(fitted_graphs(), st.sampled_from([1.0, 1e300, np.inf, np.nan]))
def test_an_isolated_agent_gets_a_zero_gradient(case, magnitude):
    # whatever its own potential, an agent with no edges has nothing to fit
    positions, phi, graph = case
    isolated = np.bincount(graph.edges.ravel(), minlength=graph.n) == 0
    assume(isolated.any())
    phi = np.where(isolated, magnitude * phi, phi)
    with np.errstate(all="raise"):
        grads = so.local_gradient(positions, phi, graph)
    assert np.all(grads[isolated] == 0.0)


def test_proximal_step_stays_for_subcritical_gradients():
    dom, _, _ = uniform_setup()
    x = np.array([0.5, 0.5])
    np.testing.assert_array_equal(so.proximal_step(x, np.zeros(2), 0.02, dom), x)
    # ||g|| = 1 exactly: moving trades cost one-for-one, so stay
    np.testing.assert_array_equal(
        so.proximal_step(x, np.array([1.0, 0.0]), 0.02, dom), x
    )


def test_proximal_step_moves_to_ball_boundary():
    dom, _, _ = uniform_setup()
    x = np.array([0.5, 0.5])
    z = so.proximal_step(x, np.array([2.0, 0.0]), 0.02, dom)
    np.testing.assert_allclose(z, [0.48, 0.5], atol=1e-15)
    assert np.linalg.norm(z - x) == pytest.approx(0.02)


def test_proximal_step_clamps_to_domain():
    dom, _, _ = uniform_setup()
    z = so.proximal_step(np.array([0.005, 0.5]), np.array([3.0, 0.0]), 0.02, dom)
    np.testing.assert_allclose(z, [0.0, 0.5])


def test_proximal_step_beats_brute_force_search():
    # no point of the ball does better on ||z - x|| + g . (z - x)
    dom = Domain((-1.0, -1.0), (2.0, 2.0))
    eps = 0.1
    x = np.array([0.5, 0.5])
    for gvec in ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5], [0.0, -4.0]):
        g = np.array(gvec)
        z = so.proximal_step(x, g, eps, dom)
        obj = np.linalg.norm(z - x) + g @ (z - x)
        radii = np.linspace(0.0, eps, 21)
        angles = np.linspace(0.0, 2.0 * np.pi, 73)
        for r in radii:
            for t in angles:
                cand = x + r * np.array([np.cos(t), np.sin(t)])
                cand_obj = np.linalg.norm(cand - x) + g @ (cand - x)
                assert obj <= cand_obj + 1e-9


def test_symmetric_quadrants_are_a_fixed_point():
    dom, q, dens = uniform_setup()
    positions = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    cfg = TransportConfig(eps=0.05, tau=1.0, inner_iters=10)
    state, diag = so.transport_round(SwarmState(positions), cfg, dens, q)
    np.testing.assert_array_equal(state.positions, positions)
    np.testing.assert_allclose(diag["masses"], 0.25, atol=1e-12)
    assert state.cost == 0.0


def test_zero_inner_iterations_mean_no_first_move():
    dom, q, dens = uniform_setup()
    positions = np.array([[0.2, 0.4], [0.8, 0.6]])
    cfg = TransportConfig(eps=0.05, inner_iters=0)
    state, diag = so.transport_round(SwarmState(positions), cfg, dens, q)
    np.testing.assert_array_equal(state.positions, positions)
    assert diag["dual_objective"] == 0.0


def test_step_lengths_never_exceed_eps():
    dom, q, dens = uniform_setup()
    gen = so.SplitMix64(3)
    positions = gen.uniforms(20).reshape(10, 2)
    cfg = TransportConfig(eps=0.03, tau=1.0, inner_iters=10)
    state = SwarmState(positions)
    for _ in range(5):
        state, diag = so.transport_round(state, cfg, dens, q)
        assert diag["step_lengths"].max() <= 0.03 + 1e-12


def test_duplicate_positions_are_nudged_apart():
    dom, q, dens = uniform_setup()
    positions = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]])
    cfg = TransportConfig(eps=0.02, inner_iters=2)
    state, diag = so.transport_round(SwarmState(positions, seed=9), cfg, dens, q)
    assert diag["perturbed"] == [1]
    assert len(state.positions) == 3


def test_corner_duplicates_stay_in_the_domain():
    # most nudge directions from a corner point out of the domain
    dom, q, dens = uniform_setup()
    cfg = TransportConfig(eps=0.02, tau=0.3, inner_iters=5)
    for seed in range(6):
        state = SwarmState(np.array([[0.0, 0.0], [0.0, 0.0], [0.6, 0.4]]), seed=seed)
        for k in range(5):
            sites, perturbed = transport._dedupe(state, dom)
            if k == 0:
                assert perturbed == [1]
                assert not np.array_equal(sites[0], sites[1])
            assert all(dom.contains(p) for p in sites)
            state, diag = so.transport_round(state, cfg, dens, q)
            assert diag["perturbed"] == perturbed
            assert all(dom.contains(p) for p in state.positions)


def loop_dedupe(state, domain):
    """The duplicate scan as a loop over a dict of float pairs, as a reference."""
    seen = {}
    perturbed = []
    positions = domain.clamp(state.positions)
    for i, pos in enumerate(positions):
        key = (float(pos[0]), float(pos[1]))
        if key in seen:
            gen = so.SplitMix64(so.derive(state.seed, STREAM_PERTURB, state.k, i))
            angle = 2.0 * np.pi * gen.next_float()
            step = 1e-9 * np.array([np.cos(angle), np.sin(angle)])
            outside = (pos + step < domain.lo) | (pos + step > domain.hi)
            positions[i] = pos + np.where(outside, -step, step)
            perturbed.append(i)
        else:
            seen[key] = i
    return positions, perturbed


@st.composite
def dedupe_cases(draw):
    # on the unit square 0.0 and -0.0 clamp onto the boundary, on the wider
    # box they stay inside; coordinates past the box clamp onto an edge or
    # a corner
    dom = draw(st.sampled_from([Domain(), Domain((-1.0, -1.0), (1.0, 1.0))]))
    coord = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, -3.0, 4.0]), st.floats(-2.0, 2.0)
    )
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=20))
    copies = draw(st.lists(st.sampled_from(points), max_size=20))
    positions = np.array(draw(st.permutations(points + copies)))
    k, seed = draw(st.integers(0, 10_000)), draw(st.integers(0, 2**64 - 1))
    return SwarmState(positions, k=k, seed=seed), dom


@settings(deadline=None, max_examples=300)
@given(dedupe_cases())
def test_the_sorted_duplicate_scan_is_the_dict_loop(case):
    state, dom = case
    positions, perturbed = transport._dedupe(state, dom)
    ref_positions, ref_perturbed = loop_dedupe(state, dom)
    assert perturbed == ref_perturbed
    assert positions.tobytes() == ref_positions.tobytes()


def dict_carry(inner, edges):
    """The multiplier carry through a dict keyed by agent pair, as a reference."""
    if inner is None:
        return np.zeros(len(edges))
    carried = dict(zip(map(tuple, inner.edges.tolist()), inner.lam.tolist()))
    return np.array([carried.get(e, 0.0) for e in map(tuple, edges.tolist())], dtype=float)


@st.composite
def carry_cases(draw):
    n = draw(st.integers(2, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    old = draw(st.lists(pair, unique=True, max_size=60))
    kind = draw(st.sampled_from(["identical", "disjoint", "overlapping"]))
    if kind == "identical":
        new = list(old)
    elif kind == "disjoint":
        new = [p for p in draw(st.lists(pair, unique=True, max_size=60)) if p not in old]
    else:
        new = draw(st.lists(st.sampled_from(old) | pair if old else pair, unique=True, max_size=60))
    # both lists in drawn order: unsorted, and with (i, j) apart from (j, i)
    new = np.array(draw(st.permutations(new)), dtype=np.int64).reshape(-1, 2)
    lam = st.one_of(st.just(-0.0), st.floats(0.0, 1e6, allow_subnormal=True))
    inner = so.PotentialState(
        np.zeros(n), draw(st.lists(lam, min_size=len(old), max_size=len(old))), old
    )
    return draw(st.sampled_from([inner, None])), new, n


@settings(deadline=None, max_examples=300)
@given(carry_cases())
def test_the_array_carry_is_the_dict_carry(case):
    inner, edges, n = case
    assert transport._carry(inner, edges, n).tobytes() == dict_carry(inner, edges).tobytes()


def test_single_agent_is_rejected():
    dom, q, dens = uniform_setup()
    cfg = TransportConfig()
    with pytest.raises(ValueError):
        so.transport_round(SwarmState(np.array([[0.5, 0.5]])), cfg, dens, q)


def test_a_fixed_dual_round_ignores_carried_multipliers():
    # every multiplier of a fixed round is cfg.fixed_dual, whatever it was handed
    dom, q, dens = uniform_setup()
    cfg = TransportConfig(fixed_dual=1.0, inner_iters=5)
    positions = np.array([[0.2, 0.5], [0.8, 0.5]])
    carried = so.PotentialState(np.zeros(2), [7.0], [[0, 1]])
    handed = so.transport_round(SwarmState(positions, inner=carried), cfg, dens, q)
    fresh = so.transport_round(SwarmState(positions), cfg, dens, q)
    assert round_bits(handed) == round_bits(fresh)
    assert handed[0].inner.lam.tolist() == [1.0]


def test_transport_round_follows_cfg_fixed_dual():
    # with cfg.fixed_dual set, the round's potentials are run_primal's
    # with every multiplier at that weight
    dom, q, dens = uniform_setup()
    cfg = TransportConfig(fixed_dual=1.0, tau=0.5, inner_iters=5)
    positions = np.array([[0.2, 0.5], [0.8, 0.5]])
    fixed, diag = so.transport_round(SwarmState(positions), cfg, dens, q)
    graph = so.neighbor_graph(so.build_partition(positions, q))
    start = so.PotentialState(np.zeros(2), np.ones(len(graph.edges)), graph.edges)
    ref = so.run_primal(start, diag["imbalance"], graph, cfg.tau, cfg.inner_iters)
    np.testing.assert_array_equal(fixed.inner.phi, ref.phi)


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
    dom, q, dens = uniform_setup()
    positions = np.array([[0.25, 0.5], [0.85, 0.5]])
    cfg = TransportConfig(eps=0.01, tau=0.5, inner_iters=20)
    state, _ = so.transport_round(SwarmState(positions), cfg, dens, q)
    assert state.inner.phi.shape == (2,) and np.any(state.inner.phi)
    assert state.inner.edges.tolist() == [[0, 1]]
    solves = inner_starts(monkeypatch)
    so.transport_round(state, cfg, dens, q)
    [((phi0, lam0), _)] = solves
    assert phi0.tobytes() == state.inner.phi.tobytes()
    assert lam0.tobytes() == state.inner.lam.tobytes()


def test_inner_holds_one_potential_per_agent_and_edges_between_agents():
    positions = np.array([[0.2, 0.5], [0.8, 0.5], [0.5, 0.1]])
    SwarmState(positions, inner=so.PotentialState(np.zeros(3), [1.0, 2.0], [[0, 1], [1, 2]]))
    for phi in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="inner must hold one potential per agent"):
            SwarmState(positions, inner=so.PotentialState(phi, [], []))
    # under the key i * N + j, edge (0, 5) would alias edge (1, 2) at N = 3;
    # the potentials' own edge list rejects it
    for edge in ([0, 5], [0, 3], [-1, 2]):
        with pytest.raises(ValueError, match=r"edge index -?\d+ of edge 0 is not a node 0\.\.2"):
            SwarmState(positions, inner=so.PotentialState(np.zeros(3), [1.0], [edge]))


def test_variance_decreases_over_rounds():
    dom, q, dens = uniform_setup(128)
    positions = so.initial_positions(16, dom, seed=4)
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=10, rounds=15)
    records = []
    final = so.run_experiment(positions, cfg, dens, q, keep_records(records), seed=4)
    assert len(records) == 16 and final.k == 15
    assert final.cost == records[-1].net_cost
    assert records[-1].mass_variance < 0.5 * records[0].mass_variance
    # net cost accumulates monotonically
    costs = [r.net_cost for r in records]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_zero_rounds_yield_only_the_initial_record():
    dom, q, dens = uniform_setup()
    positions = np.array([[0.2, 0.4], [0.8, 0.6]])
    cfg = TransportConfig(rounds=0)
    records = []
    final = so.run_experiment(positions, cfg, dens, q, keep_records(records))
    assert len(records) == 1 and final.k == 0
    assert records[0].k == 0 and records[0].net_cost == 0.0
    assert final.positions.tolist() == positions.tolist()


def run_rounds(positions, cfg, dens, q, seed):
    """A run's records, and its positions and cell masses stacked by round."""
    records, path, masses = [], [], []

    def keep(state, cells, record):
        records.append(record)
        path.append(state.positions)
        masses.append(cells.masses)

    so.run_experiment(positions, cfg, dens, q, keep, seed)
    return records, np.array(path), np.array(masses)


def same_runs(a, b):
    (r1, p1, m1), (r2, p2, m2) = a, b
    return r1 == r2 and p1.tobytes() == p2.tobytes() and m1.tobytes() == m2.tobytes()


def test_runs_are_deterministic():
    dom, q, dens = uniform_setup()
    positions = so.initial_positions(8, dom, seed=12)
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=5, rounds=6)
    run = run_rounds(positions, cfg, dens, q, seed=12)
    assert run[1].shape == (7, 8, 2) and run[2].shape == (7, 8)
    assert same_runs(run, run_rounds(positions, cfg, dens, q, seed=12))


def test_an_agent_run_keeps_to_a_domain_off_the_unit_square():
    # the run reads its domain from the quadrature alone
    dom = Domain((-1.0, 2.0), (3.0, 3.0))
    q = QuadratureGrid(dom, 48, 24)
    dens = so.DensityField.gaussian_mixture([2.0, 2.6], 0.3 * np.eye(2), domain=dom).values_on(q)
    positions = so.initial_positions(12, dom, seed=2)
    positions[0] = [5.0, 0.0]  # outside: clamped to the corner (3, 2)
    cfg = TransportConfig(eps=0.05, tau=0.05, inner_iters=10, rounds=15)
    run = run_rounds(positions, cfg, dens, q, seed=2)
    records, path, _ = run
    assert path[0, 0].tolist() == [3.0, 2.0]
    assert dom.contains(path)
    assert same_runs(run, run_rounds(positions, cfg, dens, q, seed=2))
    assert records[-1].mass_variance < records[0].mass_variance


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
    dom, q, dens = uniform_setup()
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=5, rounds=6)
    counts = count_calls(monkeypatch, transport, MEASURES)
    nudged = nudged_rounds(monkeypatch)
    so.run_experiment(so.initial_positions(8, dom, seed=3), cfg, dens, q, lambda *_: None, seed=3)
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
    inner = state.inner
    arrays = (state.positions, inner.phi, inner.lam, inner.edges, *(
        np.asarray(v) for v in diag.values()
    ))
    return (
        [a.tobytes() for a in arrays],
        (state.k, state.cost, state.seed),
        list(diag),
    )


def test_a_round_given_its_cells_matches_one_that_measures_them(monkeypatch):
    dom, q, dens = uniform_setup()
    cfg = TransportConfig(eps=0.05, tau=0.5, inner_iters=5)
    positions = so.initial_positions(6, dom, seed=8)
    state = SwarmState(positions, seed=8)
    cells = transport._measure(positions, q, cfg.radius, dens)
    other = transport._measure(positions[::-1].copy(), q, cfg.radius, dens)
    measured = so.transport_round(state, cfg, dens, q)
    counts = count_calls(monkeypatch, transport, MEASURES)
    given = so.transport_round(state, cfg, dens, q, cells)
    assert counts == dict.fromkeys(MEASURES, 0)
    assert round_bits(given) == round_bits(measured)
    # cells of other sites are measured again at the round's positions
    given = so.transport_round(state, cfg, dens, q, other)
    assert counts == dict.fromkeys(MEASURES, 1)
    assert round_bits(given) == round_bits(measured)


def test_a_round_whose_dedupe_nudges_measures_its_cells_again(monkeypatch):
    dom, q, dens = uniform_setup()
    cfg = TransportConfig(eps=0.05, tau=0.5, inner_iters=5)
    positions = np.array([[0.2, 0.3], [0.7, 0.6], [0.2, 0.3]])
    state = SwarmState(positions, seed=2)
    cells = transport._measure(positions, q, cfg.radius, dens)
    measured = so.transport_round(state, cfg, dens, q)
    assert measured[1]["perturbed"] == [2]
    counts = count_calls(monkeypatch, transport, MEASURES)
    given = so.transport_round(state, cfg, dens, q, cells)
    assert counts == dict.fromkeys(MEASURES, 1)
    assert round_bits(given) == round_bits(measured)


def test_a_nudged_round_evaluates_the_target_no_more(monkeypatch, tmp_path):
    # the command evaluates its target on the quadrature once; a round
    # that measures its nudged cells again reuses those values
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
    assert sum(evaluated) == 64 * 64  # one pass over the quadrature


@pytest.mark.parametrize("fixed", [False, True], ids=["pd", "fixed_dual"])
def test_every_agent_warm_starts_from_its_own_potential(monkeypatch, tmp_path, fixed):
    # an agent's potential is carried by its index; a nearest-previous-site
    # lookup would hand some agents another agent's potential in this run
    config = tmp_path / "run.cfg"
    config.write_text(AGENTS_NUDGED + "transport.fixed_dual = 1.0\n" if fixed else AGENTS_NUDGED)
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


def scalar_proximal_step(x, g, eps, domain):
    """One agent's proximal step, with its norm in Python float arithmetic
    as a reference."""
    norm = math.sqrt(g[0] * g[0] + g[1] * g[1])
    if norm <= 1.0:
        return x.copy()
    return domain.clamp(x - eps * g / norm)


@st.composite
def step_cases(draw):
    # a small domain around the points makes many steps clamp
    lo = np.array([draw(st.floats(-1.0, 0.0)), draw(st.floats(-1.0, 0.0))])
    dom = Domain(lo, lo + [draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))])
    unit = st.floats(0.0, 1.0)
    coord = st.floats(-20.0, 20.0, allow_subnormal=True)
    # zero gradients, gradients whose norm is exactly 1 as sqrt(x*x + y*y)
    # (axis vectors and (-0.6, 0.8)), and arbitrary ones
    special = st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-0.6, 0.8)])
    n = draw(st.integers(1, 12))
    x = np.array([dom.lo + dom.extent * [draw(unit), draw(unit)] for _ in range(n)])
    g = np.array([draw(st.one_of(special, st.tuples(coord, coord))) for _ in range(n)])
    eps = draw(st.floats(1e-6, 1.0))
    return x, g, eps, dom


@settings(deadline=None, max_examples=200)
@given(step_cases())
def test_a_batched_proximal_step_is_the_rowwise_step_bit_for_bit(case):
    x, g, eps, dom = case
    batched = so.proximal_step(x, g, eps, dom)
    rows = np.array([so.proximal_step(x[i], g[i], eps, dom) for i in range(len(x))])
    ref = np.array([scalar_proximal_step(x[i], g[i], eps, dom) for i in range(len(x))])
    assert batched.shape == x.shape
    assert batched.tobytes() == rows.tobytes() == ref.tobytes()


def test_norm_exactly_xi_stays_put():
    # |(1, 0)| is 1 exactly, so the agent sits on the threshold and stays;
    # one float more and it moves
    x = np.array([[0.5, 0.5], [0.5, 0.5]])
    g = np.array([[1.0, 0.0], [np.nextafter(1.0, 2.0), 0.0]])
    moved = so.proximal_step(x, g, 0.1, Domain())
    assert np.array_equal(moved[0], x[0])
    assert not np.array_equal(moved[1], x[1])


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=40))
def test_row_norms_have_the_bits_of_float_arithmetic(rows):
    # Python floats round each operation on its own, as IEEE prescribes
    ref = np.array([math.sqrt(x * x + y * y) for x, y in rows])
    assert geometry.lengths(np.array(rows)).tobytes() == ref.tobytes()


def test_step_lengths_are_the_metric_distance_of_each_move():
    dom, q, dens = uniform_setup()
    cfg = TransportConfig(eps=0.08, tau=0.5, inner_iters=5, rounds=3)
    state = SwarmState(so.initial_positions(40, dom, seed=4), seed=4)
    for _ in range(cfg.rounds):
        before = state.positions
        state, diag = so.transport_round(state, cfg, dens, q)
        assert diag["perturbed"] == []  # so the round moved `before` itself
        steps = diag["step_lengths"]
        ref = [math.sqrt(dx * dx + dy * dy) for dx, dy in (before - state.positions).tolist()]
        assert steps.tobytes() == np.array(ref).tobytes()
    assert np.count_nonzero(steps) > 0


def hops(graph, source):
    """Breadth-first hop counts from `source` on the graph; inf if unreached."""
    offsets, neighbors = graph.adjacency()
    dist = np.full(graph.n, np.inf)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbors[offsets[u]:offsets[u + 1]].tolist():
                if dist[v] == np.inf:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@settings(deadline=None, max_examples=50)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.sampled_from([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]),
)
def test_a_round_is_local(seed, n, use_radius, fixed, corner):
    """With n inner iterations, agent i's new position and potential read
    only agents within n + 2 hops: its imbalance reads its Voronoi
    neighbors' sites, n Jacobi steps reach n hops further, and its
    gradient reads its neighbors' potentials. Hops are counted on the
    Voronoi graph without a radius, which holds every edge a radius keeps.
    Moving an agent that stays farther than that leaves i's bits as they
    are."""
    rng = np.random.default_rng(seed)
    dom, q = Domain(), QuadratureGrid(Domain(), 64)
    dens = so.DensityField.gaussian_mixture([[0.6, 0.4]], [0.05 * np.eye(2)], None, dom).values_on(q)
    cfg = TransportConfig(eps=0.02, tau=0.5, inner_iters=n, radius=0.2 if use_radius else None,
                          fixed_dual=1.0 if fixed else None)
    state = SwarmState(rng.uniform(size=(60, 2)), seed=seed)
    for _ in range(2):
        state, _ = so.transport_round(state, cfg, dens, q)
    m = int(np.argmin(((state.positions - corner) ** 2).sum(axis=1)))
    moved = state.positions.copy()
    # aim away from the corner, so the clamp cannot shrink the move
    angle = rng.uniform(0, np.pi / 2)
    inward = (1 - 2 * np.asarray(corner)) * np.array([np.cos(angle), np.sin(angle)])
    moved[m] = dom.clamp(moved[m] + 0.03 * inward)
    parts = [so.build_partition(sites, q) for sites in (state.positions, moved)]
    # a draw is evidence only if the move hands some quadrature cell to
    # another agent; otherwise no imbalance changes
    assume(not np.array_equal(parts[0].owner, parts[1].owner))
    far = np.ones(len(moved), dtype=bool)
    for p in parts:
        far &= hops(so.neighbor_graph(p), m) > n + 2
    assume(far.any())
    other = SwarmState(moved, state.k, state.cost, state.seed, state.inner)
    a, _ = so.transport_round(state, cfg, dens, q)
    b, _ = so.transport_round(other, cfg, dens, q)
    np.testing.assert_array_equal(a.positions[far], b.positions[far])
    np.testing.assert_array_equal(a.inner.phi[far], b.inner.phi[far])
    assert not np.array_equal(a.inner.phi, b.inner.phi)  # the move reached someone


# N = 30 agents at the default tau on a concentrated target: the carried
# multipliers grow round over round until the potentials run away
CONCENTRATED = """\
mode = agents
transport.N = 30
transport.K = 40
transport.n = 1
transport.eps = 0.02
quadrature.resolution = 128
target.means = 0.5 0.5
target.covariances = 0.01 0 0 0.01
"""


def test_a_gradient_norm_overflow_raises_in_its_own_round(monkeypatch):
    cfg = load_config(CONCENTRATED)
    dom = Domain()
    q = QuadratureGrid(dom, cfg.quad_resolution)
    dens = cli.build_target(cfg, 0).values_on(q)
    fit, largest = transport.local_gradient, []

    def spy(positions, phi, graph):
        largest.append(np.abs(phi).max())
        return fit(positions, phi, graph)

    monkeypatch.setattr(transport, "local_gradient", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(so.DivergenceError, match="^primal-dual iteration diverged; reduce tau$"):
            so.run_experiment(so.initial_positions(30, dom, 0), cli.transport_config(cfg),
                              dens, q, lambda *_: None)
    # the round that raised still had finite potentials: its gradient
    # norm overflowed before its inner iteration diverged
    assert 1e200 < largest[-1] < np.inf


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(3, 30), st.floats(250.0, 308.0), st.booleans())
def test_potentials_whose_gradients_overflow_raise_divergence(seed, n, exponent, fixed):
    # finite potentials so large that a slope, or its norm, overflows:
    # zero inner steps hand the carried potentials to the fit unchanged
    rng = np.random.default_rng(seed)
    dom, q, dens = uniform_setup(32)
    positions = rng.uniform(size=(n, 2))
    graph = so.neighbor_graph(so.build_partition(positions, q))
    phi = rng.uniform(-1.0, 1.0, size=n) * 10.0**exponent
    inner = so.PotentialState(phi, np.zeros(len(graph.edges)), graph.edges)
    cfg = TransportConfig(inner_iters=0, fixed_dual=1.0 if fixed else None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(so.DivergenceError):
            so.transport_round(SwarmState(positions, seed=seed, inner=inner), cfg, dens, q)


def test_a_diverging_agents_run_leaves_no_csv(tmp_path, capsys):
    # `agents` writes its rows as the rounds arrive; a run that raises
    # mid-way removes both files, so a failed command leaves no output
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONCENTRATED)
    out = tmp_path / "out"
    assert cli.main(["agents", "--config", str(cfg), "--out", str(out)]) == 1
    assert "primal-dual iteration diverged" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()
    assert not (out / "positions.csv").exists()
