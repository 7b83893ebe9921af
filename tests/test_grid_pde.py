"""Grid solver tests.

The 1x2 grid is the workhorse: its saddle point is computable by hand
(with densities (0.3, 0.7), target (0.5, 0.5), and unit edge cost, the
potential gap saturates at 1 and the multiplier settles at 0.2), so
every operator can be checked against explicit numbers.
"""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import swarm_ot as so
from conftest import collect
from swarm_ot import DensityField, GridState, NeighborGraph, PotentialState, grid, primal_dual
from swarm_ot.flow import incidence
from swarm_ot.primal_dual import _net_outflow, iterate, laplacian


def two_node_state(rho=(0.3, 0.7), phi=None, lam=None, dt=0.1):
    return GridState(2, 1, np.array(rho, dtype=float), phi=phi, lam=lam, dt=dt)


RHO_STAR_2 = np.array([0.5, 0.5])


def discard(state, report):
    """A `run_coupled` sink that keeps nothing."""


def test_grid_edges_four_neighbor_structure():
    edges = so.grid_edges(3, 2)
    expected = {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
    assert {tuple(e) for e in edges.tolist()} == expected


def test_state_validation():
    with pytest.raises(ValueError):
        GridState(2, 1, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        GridState(2, 1, np.array([0.0, 1.0]))  # not strictly positive
    with pytest.raises(ValueError, match="strictly positive"):
        GridState(2, 1, np.array([np.nan, 1.0]))  # NaN compares false both ways
    with pytest.raises(ValueError):
        GridState(2, 1, np.array([0.5, 0.6]))  # does not sum to one
    with pytest.raises(ValueError):
        GridState(2, 1, np.array([0.5, 0.5]), lam=np.array([-0.1]))
    with pytest.raises(ValueError, match="nonnegative"):
        GridState(2, 1, np.array([0.3, 0.7]), lam=np.array([np.nan]))
    with pytest.raises(ValueError):
        GridState(2, 1, np.array([0.5, 0.5]), dt=0.0)


def test_states_are_values_and_steps_share_what_they_do_not_compute():
    rho_star = np.full(6, 1.0 / 6)
    s = GridState(3, 2, so.random_density(3, 2, seed=4), phi=0.01 * np.arange(6.0),
                  lam=np.full(7, 0.5), dt=0.01)
    with pytest.raises(ValueError):
        s.edges[0, 0] = 5
    before = [a.tobytes() for a in (s.rho, s.phi, s.lam)]
    # each step rebinds only what it computes: (phi, lam), phi, rho
    for step, computed in (
        (so.pd_flow_step, {"phi", "lam"}),
        (so.relaxed_primal_step, {"phi"}),
        (lambda s, _: so.transport_step(s), {"rho"}),
    ):
        out = step(s, rho_star)
        assert out.edges is s.edges
        for name in ("rho", "phi", "lam"):
            assert (getattr(out, name) is getattr(s, name)) == (name not in computed)
    for mode in ("on_the_fly_pd", "on_the_fly_fixed", "inner_steady_state"):
        so.run_coupled(s, rho_star, mode, discard, inner_n=2, horizon=0.05)
    assert [a.tobytes() for a in (s.rho, s.phi, s.lam)] == before


@st.composite
def grid_potentials(draw):
    """Grid edges of a random shape up to 12x12 with phi, lam and b on it."""
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    edges = so.grid_edges(nx, ny)

    def vector(size, lo):
        return draw(arrays(np.float64, size, elements=st.floats(lo, 10.0)))

    return edges, vector(nx * ny, -10.0), vector(len(edges), 0.0), vector(nx * ny, -10.0)


@settings(deadline=None, max_examples=200)
@given(grid_potentials())
@example((so.grid_edges(1, 1), np.array([0.5]), np.zeros(0), np.array([0.25])))
def test_grid_stencil_matches_the_index_path_bitwise(case):
    edges, phi, lam, b = case
    plain = np.asarray(edges)  # the same edge list without its grid shape
    assert edges.grid_shape is not None and getattr(plain, "grid_shape", None) is None
    assert same_bytes(laplacian(phi, lam, edges), laplacian(phi, lam, plain))
    for dual in (True, False):
        stencil = iterate(phi, lam, b, edges, 0.5, 0.1, 3, dual)
        index = iterate(phi, lam, b, plain, 0.5, 0.1, 3, dual)
        assert all(same_bytes(x, y) for x, y in zip(stencil, index))


@st.composite
def grid_cases(draw):
    """A random grid state (1x1 has no edges) and a positive target."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = nx * ny
    n_edges = 2 * n - nx - ny

    def vector(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)

    positive = st.floats(1e-3, 1.0)
    rho = vector(positive, n)
    rho_star = vector(positive, n)
    s = GridState(
        nx,
        ny,
        rho / rho.sum(),
        phi=vector(st.floats(-10.0, 10.0), n),
        lam=vector(st.floats(0.0, 10.0), n_edges),
        cost=draw(st.floats(0.1, 2.0)),
        dt=draw(st.floats(1e-4, 0.5)),
    )
    return s, rho_star / rho_star.sum()


def as_graph(s):
    return NeighborGraph(len(s.rho), s.edges, np.full(len(s.edges), s.cost))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None, max_examples=100)
@given(grid_cases(), st.floats(0.1, 5.0))
def test_grid_steps_are_the_swarm_kernel(case, lam_fixed):
    s, rho_star = case
    b = s.rho - rho_star
    out = so.pd_flow_step(s, rho_star)
    ref = so.run_pd(PotentialState(s.phi, s.lam, s.edges), b, as_graph(s), s.dt, 1)
    assert same_bytes(out.phi, ref.phi) and same_bytes(out.lam, ref.lam)
    assert same_bytes(out.rho, s.rho)

    s.lam = np.full(len(s.edges), lam_fixed)
    out = so.relaxed_primal_step(s, rho_star)
    ref = so.run_primal(PotentialState(s.phi, s.lam, s.edges), b, as_graph(s), s.dt, 1)
    assert same_bytes(out.phi, ref.phi)
    assert same_bytes(out.lam, s.lam)


@settings(deadline=None, max_examples=100)
@given(grid_cases(), st.floats(0.01, 0.999))
def test_transport_step_conserves_mass(case, fraction):
    s, _ = case
    # a dt below the positivity limit, so every drawn case takes the step;
    # a subnormal rate overflows that dt to inf, and the drawn dt is below
    # the limit then
    rate = float(np.abs(laplacian(s.phi, s.lam, s.edges)).max(initial=0.0))
    with np.errstate(over="ignore"):
        dt = fraction * s.rho.min() / rate if rate > 0 else np.inf
    s.dt = dt if np.isfinite(dt) else s.dt
    out = so.transport_step(s)
    assert abs(out.rho.sum() - s.rho.sum()) <= 1e-13
    assert np.all(out.rho > 0)


def test_pd_flow_step_hand_numbers():
    # from zero potentials: phi moves by dt * (rho - rho*), lam stays
    # clamped at zero because the constraint is slack
    s = two_node_state()
    out = so.pd_flow_step(s, RHO_STAR_2)
    np.testing.assert_allclose(out.phi, [-0.02, 0.02], atol=1e-15)
    np.testing.assert_array_equal(out.lam, [0.0])
    np.testing.assert_array_equal(out.rho, s.rho)  # density untouched


def test_pd_flow_step_multiplier_growth():
    # with the gap already over cost, lam grows by dt * (gap^2 - c^2) / 2
    s = two_node_state(phi=np.array([0.0, 2.0]), lam=np.array([0.5]))
    out = so.pd_flow_step(s, RHO_STAR_2)
    assert out.lam[0] == pytest.approx(0.5 + 0.1 * 0.5 * (4.0 - 1.0))
    # and phi feels the flux: node 0 gains 0.5 * (2 - 0) = 1 plus imbalance
    assert out.phi[0] == pytest.approx(0.0 + 0.1 * (1.0 - 0.2))


def test_transport_step_hand_numbers_and_conservation():
    s = two_node_state(phi=np.array([0.0, 1.0]), lam=np.array([0.2]))
    out = so.transport_step(s)
    # flux toward node 0 is lam * (phi_1 - phi_0) = 0.2
    np.testing.assert_allclose(out.rho, [0.32, 0.68], atol=1e-15)
    assert out.rho.sum() == pytest.approx(1.0, abs=1e-15)
    assert out.t == pytest.approx(0.1)


@pytest.mark.parametrize("mode", ["on_the_fly_pd", "on_the_fly_fixed", "inner_steady_state"])
def test_one_laplacian_per_outer_step(monkeypatch, mode):
    calls = []

    def counted(*args):
        calls.append(None)
        return laplacian(*args)

    monkeypatch.setattr(grid, "laplacian", counted)
    s = GridState(8, 8, so.random_density(8, 8, seed=3), dt=1e-3)
    rho_star = np.full(64, 1.0 / 64)
    steps = 20
    # a record at every state: the record and the transport step share
    # one L phi per state
    reports = []
    so.run_coupled(s, rho_star, mode, collect(reports), inner_n=2, horizon=steps * s.dt)
    assert len(reports) == steps + 1
    assert len(calls) == steps + 1


def test_inner_steady_state_rejects_dt_above_one():
    s = GridState(2, 1, np.array([0.3, 0.7]), dt=1.5)
    with pytest.raises(ValueError, match="dt <= 1"):
        so.run_coupled(s, RHO_STAR_2, "inner_steady_state", discard, horizon=6.0)
    # dt = 1 is an exact step: it lands on the target
    s.dt = 1.0
    reports = []
    so.run_coupled(s, RHO_STAR_2, "inner_steady_state", collect(reports), horizon=1.0)
    assert reports[-1].V < 1e-30 and reports[-1].kkt.dual_feasibility >= 0


def test_transport_step_positivity_error_names_the_node():
    s = GridState(2, 1, np.array([0.01, 0.99]), phi=np.array([1.0, 0.0]),
                  lam=np.array([1.0]), dt=0.1)
    with pytest.raises(so.PositivityError, match=r"\(0,0\)"):
        so.transport_step(s)
    assert issubclass(so.PositivityError, ValueError)


def record_by_two_passes(s, rho_star):
    """Reference record that takes the edge differences of phi twice,
    once for E and once for the KKT residuals."""
    gaps = np.abs(grid.edge_diff(s.phi, s.edges))
    kkt = so.KKTResidual(
        float(np.abs(s.rho - laplacian(s.phi, s.lam, s.edges) - rho_star).max()),
        float(np.maximum(0.0, gaps - s.cost).max()) if len(gaps) else 0.0,
        float((s.lam * np.abs(gaps - s.cost)).max()) if len(gaps) else 0.0,
        float(s.lam.min()) if len(s.lam) else 0.0,
    )
    err = s.rho - rho_star
    V = 0.5 * float(np.einsum("i,i->", err, err))
    dual = 0.5 * float(np.einsum("i,i->", s.lam, grid.edge_diff(s.phi, s.edges) ** 2))
    return so.LyapunovReport(s.t, V, dual + V, kkt, abs(float(s.rho.sum()) - 1.0))


def bits(values):
    """Each value's 64 bits, a NaN's sign and payload included (float.hex
    reads every NaN as 'nan')."""
    return np.array(list(values), dtype=float).tobytes().hex(" ", 8).split()


def record_bits(report):
    return bits((report.t, report.V, report.E, report.mass_error, *vars(report.kkt).values()))


@settings(deadline=None, max_examples=100)
@given(grid_cases())
@example((GridState(1, 1, [1.0], phi=[0.3]), np.array([1.0])))
def test_one_pass_record_equals_the_two_pass_record_bitwise(case):
    s, rho_star = case
    report = so.lyapunov(s, rho_star)
    assert record_bits(report) == record_bits(record_by_two_passes(s, rho_star))
    assert bits(vars(so.kkt_residual(s, rho_star)).values()) == bits(vars(report.kkt).values())


def transported(s, *lap):
    """The transported density's bytes, or the positivity stop's message."""
    try:
        return so.transport_step(s, *lap).rho.tobytes()
    except so.PositivityError as exc:
        return str(exc)


@settings(deadline=None, max_examples=100)
@given(grid_cases())
def test_precomputed_operands_change_no_bits(case):
    s, rho_star = case
    lap = laplacian(s.phi, s.lam, s.edges)
    held = so.lyapunov(s, rho_star, grid.EdgeTerms.of(s), lap)
    assert record_bits(held) == record_bits(so.lyapunov(s, rho_star))
    assert transported(s, lap) == transported(s)


def test_a_record_takes_the_edge_differences_once(monkeypatch):
    calls, edge_diff = [], grid.edge_diff

    def counted(phi, edges):
        calls.append(None)
        return edge_diff(phi, edges)

    s = GridState(5, 4, so.random_density(5, 4, seed=2), phi=0.1 * np.arange(20.0),
                  lam=np.full(31, 0.3))
    monkeypatch.setattr(grid, "edge_diff", counted)
    so.lyapunov(s, np.full(20, 1.0 / 20))
    assert len(calls) == 1


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 2**32),
    st.sampled_from(grid.MODES),
    st.sampled_from([1, 3]),
    st.integers(1, 3),
    st.integers(1, 8),
)
@example(1, 7, 0, "on_the_fly_pd", 1, 2, 5)
@example(7, 1, 0, "inner_steady_state", 3, 1, 7)
@example(5, 2, 223303, "on_the_fly_fixed", 1, 1, 3)  # stops at node (0,1) after t = 0.02
def test_every_record_equals_the_record_of_a_fresh_state(nx, ny, seed, mode, every, inner_n, steps):
    # the edge terms a state keeps (or drops) between records never
    # change a record's bits
    dt = 0.01
    s = GridState(nx, ny, so.random_density(nx, ny, seed), dt=dt)
    rho_star = so.random_density(nx, ny, seed + 1)
    records, times = [], []

    def check(state, report):
        times.append(state.t)
        if report is None:
            return
        fresh = GridState(nx, ny, state.rho, phi=state.phi, lam=state.lam, cost=state.cost,
                          dt=state.dt, t=state.t)
        assert record_bits(report) == record_bits(so.lyapunov(fresh, rho_star))
        records.append(report)

    try:
        so.run_coupled(s, rho_star, mode, check, inner_n=inner_n, horizon=steps * dt,
                       record_every=every)
    except so.PositivityError as exc:
        # random densities at this dt can legitimately stop; the records
        # before the stop were checked, and the stop names the last state
        assert exc.t == times[-1]
    else:
        assert len(records) == 1 + steps // every + (steps % every != 0)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32),
    st.sampled_from(["inner_steady_state", "on_the_fly_fixed"]),
    st.sampled_from([1e-3, 0.5, 1.0]),
    st.sampled_from([0.3, 1.0, 1e100]),
)
@example(1, 1, 0, "inner_steady_state", 1.0, 1.0)  # no edges
@example(6, 1, 0, "inner_steady_state", 1.0, 1.0)  # no vertical edges, and a = 0
@example(1, 6, 0, "on_the_fly_fixed", 1e-3, 1e100)  # no horizontal edges, diverging
@example(5, 4, 2, "on_the_fly_fixed", 1e-3, 1e100)
def test_a_uniform_multiplier_is_read_as_one_number(nx, ny, seed, mode, dt, lam_fixed):
    # both modes carry one multiplier a on every edge, (1 - dt)^k or
    # lam_fixed, and their records read it as one number: the bits of the
    # array expressions, at a = 0 (dt = 1) too. A lam_fixed of 1e100 blows
    # the inner flow up: the run stops at its first transport step, and
    # the states of its inner steps have infinite and NaN slack
    s = GridState(nx, ny, so.random_density(nx, ny, seed), dt=dt)
    rho_star = so.random_density(nx, ny, seed + 1)
    a = []

    def check(state, report):
        assert record_bits(report) == record_bits(so.lyapunov(state, rho_star))
        a.extend(state.lam[:1])

    try:
        so.run_coupled(s, rho_star, mode, check, inner_n=2, horizon=3 * dt, lam_fixed=lam_fixed)
    except so.PositivityError:
        pass
    if mode == "inner_steady_state":
        assert dt < 1.0 or set(a[1:]) <= {0.0}  # a = 0 from the first step on
        return
    inner = s.copy()
    inner.lam = np.full(len(s.edges), lam_fixed)
    with np.errstate(all="ignore"):
        for _ in range(6):
            inner = so.relaxed_primal_step(inner, rho_star, 4)
            scalar, array = (so.lyapunov(inner, rho_star, uniform=u) for u in (True, False))
            assert record_bits(scalar) == record_bits(array)
        finite = np.isfinite(grid.EdgeTerms.of(inner).slack).all()
    assert lam_fixed < 1e100 or not len(s.edges) or not finite


@pytest.mark.parametrize("mode", grid.MODES)
def test_edge_terms_are_computed_once_per_potential(monkeypatch, mode):
    calls, real = [], grid.edge_diff

    def counted(phi, edges):
        calls.append(None)
        return real(phi, edges)

    monkeypatch.setattr(grid, "edge_diff", counted)
    s = GridState(5, 4, so.random_density(5, 4, seed=6), dt=0.01)
    reports = []
    so.run_coupled(s, np.full(20, 1.0 / 20), mode, collect(reports), inner_n=2, horizon=0.1,
                   record_every=3)
    # phi is fixed for the whole steady run, and new at every on-the-fly record
    assert len(calls) == (1 if mode == "inner_steady_state" else len(reports))


@pytest.mark.parametrize("mode", grid.MODES)
def test_a_state_holds_its_fields_alone(mode):
    # states are values: the loop, not a state, holds L phi and edge terms
    s = GridState(4, 4, so.random_density(4, 4, seed=1), dt=0.01)
    fields = set(vars(s))

    def check(state, report):
        assert set(vars(state)) == fields

    so.run_coupled(s, np.full(16, 1.0 / 16), mode, check, inner_n=2, horizon=0.05)


@settings(deadline=None, max_examples=100)
@given(grid_cases(), st.integers(0, 5))
def test_n_inner_steps_in_one_call_equal_n_calls(case, n):
    s, rho_star = case
    for step in (so.pd_flow_step, so.relaxed_primal_step):
        one = s
        for _ in range(n):
            one = step(one, rho_star)
        out = step(s, rho_star, n)
        assert same_bytes(out.phi, one.phi) and same_bytes(out.lam, one.lam)


@st.composite
def signed_zero_fluxes(draw):
    """Grid edges of a random shape up to 12x12 and fluxes with +-0.0."""
    edges = so.grid_edges(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
    return edges, draw(arrays(np.float64, len(edges), elements=values))


def cancelling_tail(nx, ny, out, cancel, into):
    """Fluxes on an nx-by-ny grid, 0.0 but for the edges named by index:
    the tail sum over `out` cancels to +0.0 and every edge of `into`
    carries -0.0, so the head sum is -0.0."""
    flux = np.zeros(2 * nx * ny - nx - ny)
    flux[out] = [cancel, -cancel]
    flux[into] = -0.0
    return so.grid_edges(nx, ny), flux


@settings(deadline=None, max_examples=200)
@given(signed_zero_fluxes())
@example((so.grid_edges(3, 2), np.full(7, -0.0)))
# node 4 of a 3x3 grid: out along edges 3 and 10, in along 2 and 7
@example(cancelling_tail(3, 3, [3, 10], 1.5, [2, 7]))
# node 3, in column 0: out along 2 and 9, in along the vertical 6 alone
@example(cancelling_tail(3, 3, [2, 9], 2.5, [6]))
# node 1, in row 0: out along 1 and 7, in along the horizontal 0 alone
@example(cancelling_tail(3, 3, [1, 7], 0.75, [0]))
def test_grid_net_outflow_is_bincounts_bits_and_signs(case):
    # a lam = 0 edge with phi_i < phi_j carries a -0.0 flux
    edges, flux = case
    n = edges.grid_shape[0] * edges.grid_shape[1]
    stencil = _net_outflow(flux.copy(), edges, n)  # the grid path overwrites its flux
    index = _net_outflow(flux, np.asarray(edges), n)
    assert same_bytes(stencil, index)
    assert np.array_equal(np.signbit(stencil), np.signbit(index))


@st.composite
def signed_zero_grids(draw):
    """Grid edges of at least two rows, phi and b with +-0.0 and lam zero
    on about half the edges, where a falling potential makes a -0.0 flux."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    edges = so.grid_edges(nx, ny)

    def vector(size, *values):
        return draw(arrays(np.float64, size, elements=st.sampled_from(values)))

    n = nx * ny
    return edges, vector(n, -0.0, 0.0, 0.5, -1.0), vector(len(edges), 0.0, 0.7), vector(n, -0.0, 0.0, 0.3)


@settings(deadline=None, max_examples=200)
@given(signed_zero_grids(), st.integers(2, 3), st.integers(1, 3), st.booleans())
@example((so.grid_edges(3, 2), np.full(6, -0.0), np.zeros(7), np.full(6, -0.0)), 2, 1, False)
def test_lower_slabs_sum_their_top_rows_to_the_index_paths_bits(case, slabs, n_steps, dual):
    # a slab below the first sums the vertical edges into it as a top row
    # of its own; where phi and b are -0.0 at a node, the sign of its net
    # outflow shows in phi after the step
    edges, phi, lam, b = case
    with np.errstate(all="ignore"):
        split = primal_dual.grid_iterate(phi, lam, b, edges.grid_shape, 0.5, 0.1, n_steps, dual, slabs)
        index = iterate(phi, lam, b, np.asarray(edges), 0.5, 0.1, n_steps, dual)
    assert [a.tobytes() for a in split] == [a.tobytes() for a in index]


def test_kkt_residual_at_the_hand_saddle():
    s = two_node_state(phi=np.array([0.0, 1.0]), lam=np.array([0.2]))
    kkt = so.kkt_residual(s, RHO_STAR_2)
    assert kkt.stationarity == pytest.approx(0.0, abs=1e-15)
    assert kkt.feasibility == 0.0
    assert kkt.slackness == pytest.approx(0.0, abs=1e-15)
    assert kkt.dual_feasibility == pytest.approx(0.2)


def test_kkt_residual_flags_violations():
    s = two_node_state(phi=np.array([0.0, 1.5]), lam=np.array([0.4]))
    kkt = so.kkt_residual(s, RHO_STAR_2)
    assert kkt.feasibility == pytest.approx(0.5)
    assert kkt.slackness == pytest.approx(0.4 * 0.5)
    assert kkt.stationarity == pytest.approx(abs(0.4 * 1.5 - 0.2))


def test_pd_flow_converges_to_the_saddle_with_frozen_density():
    s = two_node_state(dt=0.05)
    for _ in range(4000):
        s = so.pd_flow_step(s, RHO_STAR_2)
    assert s.phi[1] - s.phi[0] == pytest.approx(1.0, abs=1e-3)
    assert s.lam[0] == pytest.approx(0.2, abs=1e-3)


def test_pd_flow_distance_to_saddle_is_nonincreasing():
    # explicit Euler may expand by O(dt^2) per step; at dt = 1e-3 the
    # allowance of 1e-8 per step is generous
    s = two_node_state(dt=1e-3)
    d_prev = None
    for _ in range(2000):
        gap = s.phi[1] - s.phi[0]
        d = np.hypot(gap - 1.0, s.lam[0] - 0.2)
        if d_prev is not None:
            assert d <= d_prev + 1e-8
        d_prev = d
        s = so.pd_flow_step(s, RHO_STAR_2)


def test_relaxed_primal_step_is_affine_in_phi():
    rho_star = RHO_STAR_2
    lam = np.array([2.0])
    a = two_node_state(phi=np.array([0.3, -0.1]), lam=lam)
    b = two_node_state(phi=np.array([-0.7, 0.4]), lam=lam)
    mix = two_node_state(phi=0.25 * a.phi + 0.75 * b.phi, lam=lam)
    out_a = so.relaxed_primal_step(a, rho_star)
    out_b = so.relaxed_primal_step(b, rho_star)
    out_mix = so.relaxed_primal_step(mix, rho_star)
    np.testing.assert_allclose(out_mix.phi, 0.25 * out_a.phi + 0.75 * out_b.phi, atol=1e-15)
    np.testing.assert_array_equal(out_mix.lam, mix.lam)  # multipliers untouched


def test_steady_potentials_solve_stationarity_exactly():
    rho = so.random_density(8, 8, seed=2)
    rho_star = np.full(64, 1.0 / 64)
    s = GridState(8, 8, rho)
    s.phi, s.lam = so.steady_potentials(s, rho_star)
    assert so.kkt_residual(s, rho_star).stationarity <= 1e-12
    # one transport step then contracts the imbalance by exactly (1 - dt)
    before = so.density_error(s, rho_star)
    out = so.transport_step(s)
    assert so.density_error(out, rho_star) == pytest.approx((1.0 - s.dt) * before, rel=1e-10)


def test_the_flow_oracle_prices_the_1x2_grid_at_its_kkt_point():
    # acceptance criterion 8's run to the saddle, where the dual is the
    # exact grid W1: 0.2 of mass over one unit edge
    s = two_node_state()
    for _ in range(100_000):
        s = so.pd_flow_step(s, RHO_STAR_2)
        kkt = so.kkt_residual(s, RHO_STAR_2)
        if max(kkt.stationarity, kkt.slackness) <= 1e-9:
            break
    b = s.rho - RHO_STAR_2
    value, _ = so.min_cost_flow(so.grid_edges(2, 1), [1.0], b)
    assert value == pytest.approx(0.2, abs=1e-12)
    assert so.dual_objective(s.phi, b) == pytest.approx(value, abs=1e-6)


def test_the_converged_grid_dual_matches_the_flow_oracle():
    # pd_flow_step alone at dt 0.1 had not converged on 4x3 after 2M steps,
    # so the 3x2 grid's dual comes from converge_pd on the grid's edges
    edges = so.grid_edges(3, 2)
    g = NeighborGraph(6, edges, np.ones(len(edges)))
    b = so.random_density(3, 2, 1) - 1.0 / 6
    state, info = so.converge_pd(so.zero_state(g), b, g, tol=1e-10)
    assert info["converged"]
    value, _ = so.min_cost_flow(edges, g.costs, b)
    assert so.dual_objective(state.phi, b) == pytest.approx(value, abs=1e-4)


@pytest.mark.parametrize("n, ratio", [(16, 1.069), (32, 1.061)])
def test_steady_flux_cost_over_grid_w1_is_pinned(n, ratio):
    # inner_steady_state's unit-multiplier Poisson pair is stationary but
    # not slack-complementary, so its flux costs more than the exact W1.
    # These are today's ratios; a change to the stationary pair is meant
    # to move them.
    two_bump = DensityField.gaussian_mixture([[0.25, 0.25], [0.75, 0.7]], [0.01 * np.eye(2)] * 2)
    s = GridState(n, n, np.full(n * n, 1.0 / (n * n)))
    rho_star = so.density_on_grid(two_bump, n, n)
    phi, lam = so.steady_potentials(s, rho_star)
    flux_cost = float(np.abs(s.cost * lam * primal_dual.edge_diff(phi, s.edges)).sum())
    w1, _ = so.min_cost_flow(s.edges, np.full(len(s.edges), s.cost), s.rho - rho_star)
    assert round(flux_cost / w1, 3) == ratio


def sparse_steady_phi(s, rho_star):
    """Reference stationary solve: the sparse Laplacian B^T B with node 0 pinned.

    It solves for the mean-free imbalance: pinning node 0 would put the
    mean, which no phi balances, on node 0 as a point source.
    """
    import scipy.sparse.linalg as spla

    B = incidence(s.edges, len(s.rho))
    b = s.rho - rho_star
    phi = np.zeros(len(b))
    if len(phi) > 1:
        phi[1:] = spla.spsolve((B.T @ B)[1:, 1:].tocsc(), (b - b.mean())[1:])
    return phi


def check_steady_solve(s, rho_star):
    phi, lam = so.steady_potentials(s, rho_star)
    assert phi[0] == 0.0
    np.testing.assert_array_equal(lam, np.ones(len(s.edges)))
    s.phi, s.lam = phi, lam
    b = s.rho - rho_star
    # no phi balances the mean of b (the rounding in two sums to one), no
    # stored phi beats a few roundings of its largest entry (about 7e-13 of
    # max|b| on the 4096x2 grid), and rho - L phi - rho_star rounds at the
    # scale of its largest term, whatever the size of b
    eps = np.finfo(float).eps
    floor = (
        abs(b.mean())
        + 32 * eps * np.abs(phi).max()
        + 2 * eps * max(s.rho.max(), rho_star.max())
    )
    assert so.lyapunov(s, rho_star).kkt.stationarity <= 1e-12 * np.abs(b).max() + floor
    ref = sparse_steady_phi(s, rho_star)
    # max|b| joins the scale for an imbalance that is all mean: its phi is
    # 0 up to rounding
    assert np.abs(phi - ref).max() <= 1e-10 * (np.abs(ref).max() + np.abs(b).max())


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 7), (7, 1), (9, 5), (50, 50), (4096, 2)])
def test_spectral_steady_solve_matches_the_sparse_solve(nx, ny):
    rho = so.random_density(nx, ny, seed=3)
    check_steady_solve(GridState(nx, ny, rho), np.full(nx * ny, 1.0 / (nx * ny)))
    phi, _ = so.steady_potentials(GridState(nx, ny, rho), rho)
    assert np.all(phi == 0.0)


@st.composite
def density_pairs(draw):
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rho, rho_star = (
        draw(arrays(float, nx * ny, elements=st.floats(1e-3, 1.0))) for _ in range(2)
    )
    return GridState(nx, ny, rho / rho.sum()), rho_star / rho_star.sum()


@settings(deadline=None, max_examples=100)
@given(density_pairs())
# b = [-3 * 2**-54, 0] is smaller than the rounding of rho - L phi - rho_star
@example((GridState(2, 1, np.array([0.5 - 3 * 2.0**-54, 0.5])), np.array([0.5, 0.5])))
def test_spectral_steady_solve_on_random_shapes(case):
    check_steady_solve(*case)


def test_saturated_potentials_are_stationary_and_feasible():
    rho = so.random_density(8, 8, seed=2)
    rho_star = np.full(64, 1.0 / 64)
    s = GridState(8, 8, rho, cost=0.5)
    s.phi, s.lam = so.saturated_potentials(s, rho_star)
    assert so.kkt_residual(s, rho_star).stationarity <= 1e-12
    i, j = s.edges[:, 0], s.edges[:, 1]
    assert np.abs(s.phi[i] - s.phi[j]).max() == pytest.approx(0.5)
    assert so.kkt_residual(s, rho_star).feasibility <= 1e-12


def test_saturated_potentials_vanish_at_the_target():
    rho_star = so.random_density(5, 5, seed=9)
    s = GridState(5, 5, rho_star.copy())
    phi, lam = so.saturated_potentials(s, rho_star)
    assert np.all(phi == 0.0) and np.all(lam == 0.0)


def test_warm_started_coupled_pd_run_reduces_v():
    target = DensityField.gaussian_mixture(
        means=[[0.5, 0.5]], covariances=[[[0.05, 0.0], [0.0, 0.05]]]
    )
    rho_star = so.density_on_grid(target, 20, 20)
    s = GridState(20, 20, so.random_density(20, 20, seed=0), dt=1e-3)
    s.phi, s.lam = so.saturated_potentials(s, rho_star)
    reports = []
    final = so.run_coupled(
        s, rho_star, "on_the_fly_pd", collect(reports), inner_n=2, horizon=1.0, record_every=250
    )
    # completion certifies positivity at every step; the multiplier flow
    # must also respect the nonnegative cone throughout
    assert reports[-1].V < reports[0].V
    assert final.lam.min() >= 0.0
    assert abs(final.rho.sum() - 1.0) <= 1e-13


def test_mass_is_conserved_over_long_pd_runs():
    rho = so.random_density(6, 6, seed=5)
    s = GridState(6, 6, rho, dt=1e-3)
    rho_star = np.full(36, 1.0 / 36)
    for k in range(500):
        s = so.pd_flow_step(s, rho_star)
        s = so.transport_step(s)
    assert abs(s.rho.sum() - 1.0) <= 1e-13
    assert np.all(s.rho > 0)


def test_energy_decreases_in_fixed_dual_mode():
    rho = so.random_density(5, 5, seed=8)
    s = GridState(5, 5, rho, dt=1e-3)
    rho_star = np.full(25, 1.0 / 25)
    reports = []
    so.run_coupled(s, rho_star, "on_the_fly_fixed", collect(reports), inner_n=1, horizon=0.5)
    energies = [r.E for r in reports]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10)
    assert energies[-1] < energies[0]


def test_run_coupled_reports_and_mode_validation():
    rho = so.random_density(4, 4, seed=1)
    rho_star = np.full(16, 1.0 / 16)
    s = GridState(4, 4, rho, dt=0.01)
    reports = []
    final = so.run_coupled(s, rho_star, "on_the_fly_pd", collect(reports), horizon=0.1,
                           record_every=2)
    # one report at t = 0, then every other step of the ten
    assert len(reports) == 6
    assert reports[0].t == 0.0
    assert final.t == pytest.approx(0.1)
    assert all(r.mass_error <= 1e-12 for r in reports)
    with pytest.raises(ValueError):
        so.run_coupled(s, rho_star, "nonsense", discard)
    with pytest.raises(ValueError):
        so.run_coupled(s, rho_star, "on_the_fly_pd", discard, inner_n=0)
    for lam_fixed in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            so.run_coupled(s, rho_star, "on_the_fly_fixed", discard, lam_fixed=lam_fixed)


@pytest.mark.parametrize("record_every", [0, -1, -3])
def test_run_coupled_rejects_record_every_below_one(record_every):
    s = GridState(4, 4, so.random_density(4, 4, seed=1), dt=0.01)
    with pytest.raises(ValueError, match="record_every"):
        so.run_coupled(s, np.full(16, 1.0 / 16), "on_the_fly_pd", discard, horizon=0.1,
                       record_every=record_every)


@pytest.mark.parametrize("horizon", [np.nan, -1.0, np.inf])
def test_run_coupled_rejects_horizons_without_a_step_count(horizon):
    # NaN and inf have no step count, and a negative horizon would give
    # a run without even its t = 0 record
    s = GridState(4, 4, so.random_density(4, 4, seed=1), dt=0.01)
    with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
        so.run_coupled(s, np.full(16, 1.0 / 16), "on_the_fly_pd", discard, horizon=horizon)


def test_a_positivity_stop_carries_the_records_before_it(monkeypatch):
    real, calls = grid.transport_step, []

    def fail_fifth_step(*args):
        calls.append(None)
        if len(calls) == 5:
            raise so.PositivityError("injected stop")
        return real(*args)

    monkeypatch.setattr(grid, "transport_step", fail_fifth_step)
    s = GridState(4, 4, so.random_density(4, 4, seed=1), dt=0.01)
    reports = []
    with pytest.raises(so.PositivityError) as info:
        so.run_coupled(s, np.full(16, 1.0 / 16), "on_the_fly_pd", collect(reports), horizon=0.1,
                       record_every=3)
    # steps 1-4 completed; records at steps 0 and 3
    assert info.value.t == pytest.approx(0.04)
    assert [r.t for r in reports] == pytest.approx([0.0, 0.03])


def test_a_diverging_run_stops_at_its_first_transport_step(monkeypatch):
    # dt = 5 blows the inner flow up: the first transport step meets a
    # non-finite phi and lam, under the loop's errstate, and stops
    real, finite = grid.transport_step, []

    def checked(s, *args):
        finite.append((np.isfinite(s.phi).all(), np.isfinite(s.lam).all()))
        return real(s, *args)

    monkeypatch.setattr(grid, "transport_step", checked)
    s = GridState(4, 4, so.random_density(4, 4, seed=1), dt=5.0)
    reports = []
    with pytest.raises(so.PositivityError, match=r"node \(0,0\)") as info:
        so.run_coupled(s, np.full(16, 1 / 16), "on_the_fly_pd", collect(reports), inner_n=20,
                       horizon=15.0)
    assert finite == [(False, False)]
    assert info.value.t == 0.0
    assert len(reports) == 1


def test_a_diverging_threaded_run_stops_as_the_serial_one_does(monkeypatch):
    # multipliers of 1e100 blow the inner flow up within one call on the
    # smallest grid split across threads: phi overflows to inf, then NaN.
    # The worker threads step under the loop's errstate, so under the
    # suite's warnings-as-errors they stop nothing, and the first
    # transport step stops both runs alike
    monkeypatch.setattr(primal_dual, "_usable_cores", lambda: 2)
    n = math.isqrt(primal_dual.THREAD_MIN_NODES - 1) + 1
    s = GridState(n, n, so.random_density(n, n, seed=4), dt=1e-3)
    rho_star = np.full(n * n, 1.0 / (n * n))
    stops = []
    for threads in (1, 2):
        with pytest.raises(so.PositivityError) as stop:
            so.run_coupled(s, rho_star, "on_the_fly_fixed", discard, inner_n=6, horizon=0.01,
                           lam_fixed=1e100, threads=threads)
        stops.append((str(stop.value), stop.value.t))
    assert stops[0] == stops[1]
    assert "nan after the step" in stops[0][0] and stops[0][1] == 0.0


def test_run_coupled_frees_each_state_before_the_next_record(monkeypatch):
    # a state that outlives the next record pins its arrays while the
    # record allocates, and a large grid then faults pages in every step
    real, seen, alive = grid.lyapunov, [], []

    def checked(s, *args):
        alive.append(sum(ref() is not None for ref in seen))
        seen.append(weakref.ref(s))
        return real(s, *args)

    monkeypatch.setattr(grid, "lyapunov", checked)
    s = GridState(4, 4, so.random_density(4, 4, seed=1), dt=0.01)
    so.run_coupled(s, np.full(16, 1.0 / 16), "on_the_fly_pd", discard, inner_n=2, horizon=0.05)
    assert alive == [0] * 6


# traced peak of a 64x64 run_coupled after its set-up, in 32 KiB node
# arrays (an edge-sized array is about two), with a sink that keeps no record
LOOP_PEAK_NODE_ARRAYS = {"on_the_fly_pd": 16.02, "on_the_fly_fixed": 14.99, "inner_steady_state": 15.96}


@pytest.mark.parametrize("mode", grid.MODES)
def test_the_grid_loop_keeps_its_memory_order(mode):
    # a state or EdgeTerms kept one step longer holds two or more node
    # arrays through the next record; the bound allows half of one. In
    # on_the_fly_fixed the inner step peaks above the record, so there
    # a state held through the record leaves the peak where it is.
    calls = []

    def peak_after_setup(state, report):
        if not calls:
            tracemalloc.reset_peak()  # inner_steady_state's stationary solve peaks higher
        calls.append(None)

    n = 64
    rho_star = grid.density_on_grid(DensityField.gaussian_mixture([0.4, 0.6], 0.05 * np.eye(2)), n, n)
    s = GridState(n, n, so.random_density(n, n, seed=0))
    # untraced first: numpy.fft's lazy import
    so.run_coupled(s, rho_star, mode, discard, inner_n=5, horizon=0.02)
    tracemalloc.start()
    try:
        so.run_coupled(s, rho_star, mode, peak_after_setup, inner_n=5, horizon=0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) < LOOP_PEAK_NODE_ARRAYS[mode] + 0.5


def test_the_grid_loop_records_by_its_rule_and_keeps_errstate_to_itself():
    # the loop steps with numpy's warnings off, and its sink runs under
    # the caller's errstate
    s = GridState(4, 4, so.random_density(4, 4, seed=1), dt=0.01)
    calls, recorded = [], []

    def check(state, report):
        assert set(np.geterr().values()) == {"raise"}
        if report is not None:
            assert report.t == state.t
            recorded.append(len(calls))
        calls.append(None)

    with np.errstate(all="raise"):
        state = so.run_coupled(s, np.full(16, 1.0 / 16), "on_the_fly_pd", check, horizon=0.1,
                               record_every=4)
    assert len(calls) == 11
    assert recorded == [0, 4, 8, 10]
    assert state.t == pytest.approx(0.1)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 16),
    st.integers(1, 16),
    st.integers(0, 2**32),
    st.sampled_from([1e-3, 0.1, 0.5, 1.0]),
    st.integers(1, 20),
)
@example(6, 6, 3, 1e-3, 50)
def test_inner_steady_state_keeps_stationarity_machine_small(nx, ny, seed, dt, steps):
    # the closed-form pair, rescaled by (1 - dt) after each transport
    # step, stays stationary without a single inner flow step
    s = GridState(nx, ny, so.random_density(nx, ny, seed), dt=dt)
    rho_star = so.random_density(nx, ny, seed + 1)
    inner = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("pd_flow_step", "relaxed_primal_step"):
            mp.setattr(grid, name, lambda *args, name=name: inner.append(name))
        reports = []
        so.run_coupled(s, rho_star, "inner_steady_state", collect(reports), horizon=steps * dt)
    assert len(reports) == steps + 1
    assert max(r.kkt.stationarity for r in reports) <= 1e-13
    assert inner == []


def test_inner_steady_state_contracts_v_at_its_exact_rate():
    rho = so.random_density(6, 6, seed=3)
    rho_star = np.full(36, 1.0 / 36)
    s = GridState(6, 6, rho, dt=1e-3)
    reports = []
    so.run_coupled(s, rho_star, "inner_steady_state", collect(reports), horizon=0.05,
                   record_every=10)
    # V contracts by (1 - dt)^2 per step, i.e. slope 2 ln(1 - dt) / dt
    v0, v1 = reports[0].V, reports[-1].V
    expected = np.exp(2.0 * np.log(1.0 - 1e-3) / 1e-3 * 0.05)
    assert v1 / v0 == pytest.approx(expected, rel=1e-3)


def test_random_density_is_reproducible_and_positive():
    a = so.random_density(7, 5, seed=9)
    b = so.random_density(7, 5, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(a > 0)
    assert not np.array_equal(a, so.random_density(7, 5, seed=10))


def test_density_on_grid_floors_rasters():
    # an image with white pixels still yields a strictly positive target
    field = so.load_pgm(b"P2 2 2 255 255 0 0 255")
    vals = so.density_on_grid(field, 4, 4)
    assert np.all(vals > 0)
    assert vals.sum() == pytest.approx(1.0, abs=1e-14)


def test_density_on_grid_samples_the_cell_centers():
    # one row or column of nodes is a grid too (grid.nx = 1 is a valid config)
    field = DensityField.gaussian_mixture([0.4, 0.6], 0.05 * np.eye(2))
    for nx, ny in [(1, 1), (1, 4), (4, 1), (9, 5)]:
        X, Y = np.meshgrid((np.arange(nx) + 0.5) / nx, (np.arange(ny) + 0.5) / ny)
        raw = field._raw_many(np.column_stack([X.ravel(), Y.ravel()]))
        assert so.density_on_grid(field, nx, ny).tobytes() == (raw / raw.sum()).tobytes()


def test_density_on_grid_matches_uniform():
    vals = so.density_on_grid(so.DensityField.uniform(), 5, 3)
    np.testing.assert_allclose(vals, 1.0 / 15, atol=1e-15)
