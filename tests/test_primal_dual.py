"""Primal-dual potential estimation tests.

The two-node problem has a closed-form saddle point, derived by hand:
with imbalance (b, -b) on a single edge of cost c, stationarity forces
lam * (phi_0 - phi_1) = b with |phi_0 - phi_1| = c whenever b != 0, so
the potential gap saturates the constraint and lam = |b| / c.
"""

import contextvars
import hashlib
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import swarm_ot as so
from swarm_ot import NeighborGraph, PotentialState, cli
from swarm_ot.flow import incidence
from swarm_ot import primal_dual
from swarm_ot.primal_dual import (
    THREAD_MIN_NODES,
    _net_outflow,
    edge_diff,
    grid_edges,
    grid_iterate,
    iterate,
    laplacian,
)


def two_node_graph(cost=1.0):
    return NeighborGraph(2, [[0, 1]], [cost])


def path_graph(costs):
    edges = [[k, k + 1] for k in range(len(costs))]
    return NeighborGraph(len(costs) + 1, edges, costs)


def test_mass_imbalance_sums_to_zero_when_masses_do():
    masses = np.array([0.5, 0.3, 0.2])
    b = so.mass_imbalance(masses)
    np.testing.assert_allclose(b, [1 / 3 - 0.5, 1 / 3 - 0.3, 1 / 3 - 0.2])
    assert b.sum() == pytest.approx(0.0, abs=1e-15)


def test_incidence_is_the_sparse_form_of_the_laplacian():
    # B.T diag(lam) B is the kernel's weighted Laplacian on the same edges
    edges = np.array([[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]])
    gen = so.SplitMix64(3)
    phi, lam = gen.uniforms(5), gen.uniforms(5)
    B = incidence(edges, 5)
    assert B.shape == (5, 5)
    np.testing.assert_array_equal(B @ phi, phi[edges[:, 0]] - phi[edges[:, 1]])
    np.testing.assert_allclose(B.T @ (lam * (B @ phi)), laplacian(phi, lam, edges), atol=1e-15)


def test_balanced_zero_state_is_a_fixed_point():
    g = two_node_graph()
    s = so.zero_state(g)
    out = so.run_pd(s, np.zeros(2), g, tau=0.5, n=1)
    np.testing.assert_array_equal(out.phi, 0.0)
    np.testing.assert_array_equal(out.lam, 0.0)
    assert so.pd_residual(out, np.zeros(2), g) == 0.0


def test_single_step_matches_hand_computation():
    # from zero: phi <- tau * b, lam <- max(0, tau * (0 - c^2 / 2))
    g = two_node_graph(cost=1.0)
    s = so.zero_state(g)
    b = np.array([0.2, -0.2])
    out = so.run_pd(s, b, g, tau=1.0, n=1)
    np.testing.assert_allclose(out.phi, [0.2, -0.2])
    np.testing.assert_array_equal(out.lam, 0.0)


def iterate_by_expressions(phi, lam, b, edges, half_c2, tau, n_steps, dual=True):
    """Reference kernel: each update as one expression of fresh arrays."""
    for _ in range(n_steps):
        dphi = edge_diff(phi, edges)
        lap = _net_outflow(lam * dphi, edges, len(phi))
        if dual:
            lam = np.maximum(0.0, lam + tau * (0.5 * dphi * dphi - half_c2))
        phi = phi + tau * (b - lap)
    return phi, lam


@st.composite
def kernel_cases(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = nx * ny
    edges = grid_edges(nx, ny)
    if draw(st.booleans()):  # the same edges as a plain (gather and bincount) list
        edges = np.asarray(edges)[draw(st.permutations(range(len(edges))))]
        edges = edges.reshape(-1, 2)
    finite = st.floats(-10.0, 10.0)
    phi = draw(arrays(float, n, elements=finite))
    lam = draw(arrays(float, len(edges), elements=st.floats(0.0, 10.0)))
    b = draw(arrays(float, n, elements=finite))
    return phi, lam, b, edges, draw(st.floats(0.0, 2.0)), draw(st.floats(1e-4, 1.0))


@settings(deadline=None, max_examples=200)
@given(kernel_cases(), st.integers(1, 3), st.booleans())
def test_in_place_kernel_has_the_bits_of_the_expressions(case, n_steps, dual):
    phi, lam, b, edges, half_c2, tau = case
    inputs = [a.copy() for a in (phi, lam, b)]
    got = iterate(phi, lam, b, edges, half_c2, tau, n_steps, dual)
    with np.errstate(all="ignore"):
        want = iterate_by_expressions(phi, lam, b, edges, half_c2, tau, n_steps, dual)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    for a, before in zip((phi, lam, b), inputs):  # the inputs are never written
        assert a.tobytes() == before.tobytes()


@st.composite
def small_graphs(draw):
    """A graph of 1-5 nodes whose edges may repeat or run both ways."""
    n = draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = np.array(draw(st.lists(pairs, max_size=8)) if n > 1 else [], dtype=np.int64)
    edges = edges.reshape(-1, 2)
    if len(edges) and draw(st.booleans()):  # one edge again, as given or reversed
        k = draw(st.integers(0, len(edges) - 1))
        edges = np.vstack([edges, edges[k][:: draw(st.sampled_from([1, -1]))]])
    finite = st.floats(-10.0, 10.0)
    phi = draw(arrays(float, n, elements=finite))
    lam = draw(arrays(float, len(edges), elements=st.floats(0.0, 10.0)))
    b = draw(arrays(float, n, elements=finite))
    half_c2 = draw(arrays(float, len(edges), elements=st.floats(0.0, 2.0)))
    return phi, lam, b, edges, half_c2


@settings(deadline=None, max_examples=200)
@given(st.lists(small_graphs(), min_size=2, max_size=4), st.floats(1e-4, 1.0),
       st.integers(1, 4), st.booleans())
def test_the_kernel_on_a_disjoint_union_is_the_kernel_on_each_graph(graphs, tau, n_steps, dual):
    # a node's update reads only its own edges, so graphs run side by side
    # in one call give each graph's bits: the base of a batched oracle
    node_at = np.cumsum([0] + [len(phi) for phi, *_ in graphs])
    edge_at = np.cumsum([0] + [len(lam) for _, lam, *_ in graphs])
    phi, lam, b, _, half_c2 = (np.concatenate(parts) for parts in zip(*graphs))
    edges = np.concatenate([graph[3] + k for graph, k in zip(graphs, node_at)])
    with np.errstate(all="ignore"):
        phi_u, lam_u = iterate(phi, lam, b, edges, half_c2, tau, n_steps, dual)
        for k, graph in enumerate(graphs):
            phi, lam = iterate(*graph, tau, n_steps, dual)
            assert phi.tobytes() == phi_u[node_at[k]:node_at[k + 1]].tobytes()
            assert lam.tobytes() == lam_u[edge_at[k]:edge_at[k + 1]].tobytes()


@st.composite
def slab_cases(draw):
    """A grid of up to 40x40 nodes with phi, lam and b on it.

    phi is all zeros in some cases, and lam is zero on about a third of
    the edges, where a falling potential makes a -0.0 flux.
    """
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n, e = nx * ny, ny * (nx - 1) + (ny - 1) * nx
    phi = np.zeros(n) if draw(st.booleans()) else rng.normal(size=n)
    lam = rng.uniform(0.0, 2.0, e) * (rng.uniform(size=e) > 0.3)
    return (ny, nx), phi, lam, rng.normal(size=n), draw(st.floats(0.0, 2.0)), draw(st.floats(1e-4, 1.0))


@settings(deadline=None, max_examples=200)
@given(slab_cases(), st.integers(1, 4), st.integers(0, 5), st.booleans())
def test_every_slab_count_gives_the_bits_of_one_slab(case, slabs, n_steps, dual):
    # below the size gate, called directly: more slabs than rows
    # included, and the sign of a zero counts
    shape, phi, lam, b, half_c2, tau = case
    with np.errstate(all="ignore"):
        one = grid_iterate(phi, lam, b, shape, half_c2, tau, n_steps, dual, 1)
        split = grid_iterate(phi, lam, b, shape, half_c2, tau, n_steps, dual, slabs)
    assert [a.tobytes() for a in split] == [a.tobytes() for a in one]


def above_the_gate():
    """phi, lam and b on the smallest square grid that `iterate` splits."""
    n = math.isqrt(THREAD_MIN_NODES - 1) + 1
    edges = grid_edges(n, n)
    gen = so.SplitMix64(5)
    return gen.uniforms(n * n), gen.uniforms(len(edges)), gen.uniforms(n * n), edges


@pytest.mark.parametrize("dual", [True, False])
def test_two_threads_take_no_more_memory_than_one_slab(monkeypatch, dual):
    # the slabs share one set of buffers. Each running numpy call holds
    # buffers of up to its buffer size, so the calls run with the
    # smallest; what two threads add then is the threads themselves and
    # the second slab's row above, a few KiB against the call's MiBs
    monkeypatch.setattr(primal_dual, "_usable_cores", lambda: 2)
    phi, lam, b, edges = above_the_gate()
    context = contextvars.copy_context()
    context.run(np.setbufsize, 16)

    def peak(threads):
        def call():
            return iterate(phi, lam, b, edges, 0.5, 0.1, 3, dual, threads)

        context.run(call)  # the first call's lazy set-up is not the kernel's
        tracemalloc.start()
        try:
            result = context.run(call)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    one, serial = peak(1)
    two, split = peak(2)
    assert [a.tobytes() for a in split] == [a.tobytes() for a in serial]
    # two results, one more pair and the flux buffer: three pairs of
    # arrays, or two and the flux when lam is held
    pair = phi.nbytes + (lam.nbytes if dual else 0)
    assert one <= 2 * pair + lam.nbytes + 16 * 1024
    assert two <= one + 16 * 1024


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_a_failing_slab_is_raised_in_the_caller_and_no_thread_outlives_it(monkeypatch, failing):
    real = primal_dual._diff_rows

    def fail(p, r0, r1, dh, dv):
        if (r0 > 0) == (failing == "worker"):
            raise RuntimeError(f"slab at row {r0} failed")
        return real(p, r0, r1, dh, dv)

    monkeypatch.setattr(primal_dual, "_diff_rows", fail)
    gen = so.SplitMix64(2)
    phi, lam, b = gen.uniforms(63), gen.uniforms(118), gen.uniforms(63)
    before, raised = threading.active_count(), []

    def run():
        for slabs in (2, 3, 4):
            try:
                grid_iterate(phi, lam, b, (9, 7), 0.5, 0.1, 5, True, slabs)
            except RuntimeError as exc:
                raised.append(str(exc))

    runner = threading.Thread(target=run)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert threading.active_count() == before
    if failing == "caller":
        assert raised == ["slab at row 0 failed"] * 3
    else:
        assert len(raised) == 3 and all(not r.startswith("slab at row 0 ") for r in raised)


def test_second_step_uses_one_snapshot_for_both_updates():
    # after step one, phi = (0.2, -0.2); step two sees dphi = 0.4:
    #   phi_0 <- 0.2 + tau*(0.2 - lam*dphi) = 0.4 since lam is still 0
    #   lam   <- max(0, 0 + tau*(dphi^2/2 - 1/2)) = max(0, -0.42) = 0
    g = two_node_graph(cost=1.0)
    b = np.array([0.2, -0.2])
    out = so.run_pd(so.zero_state(g), b, g, tau=1.0, n=2)
    np.testing.assert_allclose(out.phi, [0.4, -0.4])
    np.testing.assert_array_equal(out.lam, 0.0)


def test_two_node_saddle_point():
    # b = (0.2, -0.2), c = 1: phi gap -> 1, lam -> 0.2, value -> 0.2
    g = two_node_graph(cost=1.0)
    b = np.array([0.2, -0.2])
    state, info = so.converge_pd(so.zero_state(g), b, g, tau=0.1, tol=1e-10)
    assert info["converged"]
    assert state.phi[0] - state.phi[1] == pytest.approx(1.0, abs=1e-6)
    assert state.lam[0] == pytest.approx(0.2, abs=1e-6)
    assert so.dual_objective(state.phi, b) == pytest.approx(0.2, abs=1e-6)
    assert so.feasibility_violation(state.phi, g) <= 1e-6


def test_converged_state_is_near_fixed_point():
    g = path_graph([0.5, 0.5, 0.5])
    b = np.array([0.1, 0.05, -0.05, -0.1])
    state, info = so.converge_pd(so.zero_state(g), b, g, tol=1e-9)
    assert info["converged"]
    after = so.run_pd(state, b, g, tau=info["tau"], n=1)
    assert np.abs(after.phi - state.phi).max() <= 1e-8
    assert np.abs(after.lam - state.lam).max() <= 1e-8


def test_objective_is_invariant_to_constant_shifts():
    b = np.array([0.3, -0.1, -0.2])
    phi = np.array([1.0, 2.0, -0.5])
    assert so.dual_objective(phi + 7.0, b) == pytest.approx(so.dual_objective(phi, b))


def test_multipliers_never_go_negative():
    g = two_node_graph(cost=2.0)
    s = PotentialState([0.0, 0.0], [0.05], g.edges)
    out = so.run_pd(s, np.array([0.01, -0.01]), g, tau=1.0, n=3)
    assert np.all(out.lam >= 0.0)


@pytest.mark.parametrize("lam", [-0.1, np.nan])
def test_negative_or_nan_multipliers_are_rejected(lam):
    with pytest.raises(ValueError, match="nonnegative"):
        PotentialState([0.0, 0.0], [lam], [[0, 1]])


def test_zero_iterations_return_the_input_state():
    g = two_node_graph()
    s = so.zero_state(g)
    assert so.run_pd(s, np.zeros(2), g, tau=0.5, n=0) is s


def test_mismatched_edges_are_rejected():
    g = two_node_graph()
    other = NeighborGraph(3, [[0, 1], [1, 2]], [1.0, 1.0])
    s = so.zero_state(other)
    with pytest.raises(ValueError):
        so.run_pd(s, np.zeros(3), g, tau=0.5, n=1)


def test_nonpositive_tau_is_rejected():
    g = two_node_graph()
    with pytest.raises(ValueError):
        so.run_pd(so.zero_state(g), np.zeros(2), g, tau=0.0, n=1)


def test_run_primal_keeps_multipliers_fixed():
    g = two_node_graph(cost=1.0)
    s = PotentialState([0.0, 0.0], [0.5], g.edges)
    b = np.array([0.2, -0.2])
    out = so.run_primal(s, b, g, tau=0.5, n=200)
    np.testing.assert_array_equal(out.lam, [0.5])
    # with lam fixed at 0.5 the primal problem is a linear solve:
    # 0.5 * (phi_0 - phi_1) = 0.2, so the gap converges to 0.4
    assert out.phi[0] - out.phi[1] == pytest.approx(0.4, abs=1e-8)


@pytest.mark.parametrize("run", [so.run_pd, so.run_primal], ids=["run_pd", "run_primal"])
def test_divergence_raises_floating_point_error(run):
    # the overflow on the way to divergence is reported by the typed
    # error alone, never by a RuntimeWarning before it
    g = two_node_graph(cost=1.0)
    s = PotentialState([0.0, 0.0], [1.0], g.edges)
    kind = "primal-dual" if run is so.run_pd else "primal"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(so.DivergenceError, match=f"^{kind} iteration diverged; reduce tau$") as exc:
            run(s, np.array([1.0, -1.0]), g, tau=5.0, n=2000)
    assert isinstance(exc.value, FloatingPointError)  # `except FloatingPointError` still holds


def assert_exit(state, info, converged, iterations, tau, residual, digest):
    """`converge_pd`'s info and the sha256 of its phi and lam bytes, pinned."""
    assert info == {"converged": converged, "iterations": iterations, "tau": tau, "residual": residual}
    assert hashlib.sha256(state.phi.tobytes() + state.lam.tobytes()).hexdigest() == digest


def test_converge_pd_recovers_from_oversized_tau():
    g = two_node_graph(cost=1.0)
    b = np.array([0.2, -0.2])
    state, info = so.converge_pd(so.zero_state(g), b, g, tau=8.0, tol=1e-8)
    assert state.phi[0] - state.phi[1] == pytest.approx(1.0, abs=1e-4)
    # four restarts take tau 8 -> 1/2, two stalls -> 1/8
    assert_exit(state, info, True, 33_600, 0.125, 7.724046069412793e-09,
                "4341c4d7817abcde905118fc4fa9c1f0d0b9183b0218594c0e6fc1d5ced30f60")


def _converge_case(name):
    if name == "budget":  # three restarts take tau 4 -> 1/2, then 1000 steps run out
        g = path_graph([1.0, 1.0, 1.0])
        return g, np.array([0.3, -0.1, -0.1, -0.1]), {"tau": 4.0, "max_iter": 1000}
    g, b, tol = cli.oracle_instance(0, 1)  # 11 nodes; one stall halving, 0.2 -> 0.1
    return g, b, {"tol": tol, "max_iter": cli.ORACLE_MAX_ITER}


# (converged, iterations, tau, residual, sha256 of phi and lam bytes)
CONVERGE_EXITS = {
    "budget": (False, 1_000, 0.5, 0.4993327294532467,
               "a83d7e40107c7a91d59059076227a479b152027ae11ee24bc900d1b51aebbc5e"),
    "stall": (True, 19_600, 0.1, 5.766798261142014e-09,
              "5e2e1384e30f07106c400f00f38db381f3e9993cdc998acecabf952f850ced39"),
}


@pytest.mark.parametrize("name", CONVERGE_EXITS)
def test_converge_pd_exits_keep_their_bits(name):
    g, b, kwargs = _converge_case(name)
    state, info = so.converge_pd(so.zero_state(g), b, g, **kwargs)
    assert_exit(state, info, *CONVERGE_EXITS[name])


def test_converge_pd_without_a_kept_chunk_returns_the_input_state():
    g = two_node_graph(cost=1.0)
    s = PotentialState([0.0, 0.0], [1.0], g.edges)
    b = np.array([1.0, -1.0])
    state, info = so.converge_pd(s, b, g, max_iter=0)
    assert state is s and info["iterations"] == 0 and not info["converged"]
    state, info = so.converge_pd(s, b, g, tau=1e6, max_iter=2000)  # every chunk diverges
    assert state is s and info["iterations"] == 2000 and info["tau"] == 1e6 / 2**10


def test_feasibility_violation_measures_worst_edge():
    g = path_graph([1.0, 0.3])
    phi = np.array([0.0, 1.5, 1.0])
    assert so.feasibility_violation(phi, g) == pytest.approx(0.5)
    assert so.feasibility_violation(np.zeros(3), g) == 0.0
