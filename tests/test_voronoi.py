"""Partition and neighbor graph tests.

The brute-force checks re-derive ownership straight from the distance
definition, independent of the vectorized implementation. The dense
N x M argmin below is the reference the running-minimum partition must
match bit for bit, ties included.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swarm_ot as so
from swarm_ot import Domain, MetricCost, QuadratureGrid


def _dense_owner(sites, domain, q):
    """Reference ownership: argmin over the full N x M distance table."""
    sites = domain.clamp(np.asarray(sites, dtype=float))
    d2 = ((q.centers[None, :, :] - sites[:, None, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=0)


def _blocked_dense_owner(sites, domain, q, block=4096):
    """`_dense_owner` one block of cells at a time, for production sizes."""
    blocks = np.split(q.centers, range(block, q.n_cells, block))
    return np.concatenate([_dense_owner(sites, domain, SimpleNamespace(centers=c)) for c in blocks])


def setup(sites, n=64, radius=None):
    dom = Domain()
    metric = MetricCost()
    q = QuadratureGrid(dom, n)
    part = so.build_partition(np.asarray(sites, dtype=float), metric, dom, q)
    graph = so.neighbor_graph(part, metric, radius=radius)
    return part, graph


def test_two_sites_split_into_vertical_strips():
    part, graph = setup([[0.25, 0.5], [0.75, 0.5]])
    xs = part.q.centers[:, 0]
    np.testing.assert_array_equal(part.owner, (xs > 0.5).astype(int))
    assert graph.edges.tolist() == [[0, 1]]
    assert graph.costs[0] == pytest.approx(0.5)


def test_owner_is_always_a_nearest_site():
    gen = so.SplitMix64(11)
    sites = gen.uniforms(14).reshape(7, 2)
    part, _ = setup(sites, n=32)
    d2 = ((part.q.centers[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    best = d2[np.arange(len(part.owner)), part.owner]
    assert np.all(best <= d2.min(axis=1) + 1e-15)


def test_equidistant_cells_go_to_the_lowest_index():
    # duplicate sites make every cell of the pair an exact tie
    part, _ = setup([[0.5, 0.25], [0.5, 0.25], [0.5, 0.75]], n=16)
    assert not np.any(part.owner == 1)  # index 0 wins every tie with 1
    assert np.any(part.owner == 0) and np.any(part.owner == 2)


def test_single_site_owns_everything():
    part, graph = setup([[0.4, 0.4]])
    assert np.all(part.owner == 0)
    assert len(graph.edges) == 0
    assert so.is_connected(graph)


def test_sites_outside_domain_are_clamped():
    part, _ = setup([[-3.0, 0.5], [4.0, 0.5]])
    np.testing.assert_allclose(part.sites, [[0.0, 0.5], [1.0, 0.5]])


def test_collinear_sites_form_a_path_not_a_clique():
    _, graph = setup([[0.1, 0.5], [0.5, 0.5], [0.9, 0.5]])
    assert graph.edges.tolist() == [[0, 1], [1, 2]]
    assert so.is_connected(graph)
    assert graph.neighbor_lists() == [[1], [0, 2], [1]]


def test_radius_limit_disconnects_far_agents():
    _, graph = setup([[0.1, 0.5], [0.5, 0.5], [0.9, 0.5]], radius=0.3)
    assert len(graph.edges) == 0
    assert not so.is_connected(graph)
    assert np.all(graph.active)


def test_coincident_adjacent_sites_raise():
    # the tie rule keeps duplicates from owning cells, so force adjacency
    # with a hand-built ownership array to exercise the guard
    q = QuadratureGrid(Domain(), 4)
    sites = np.array([[0.5, 0.5], [0.5, 0.5]])
    owner = np.tile([0, 0, 1, 1], 4)
    part = so.Partition(sites, owner, q)
    with pytest.raises(ValueError, match="coincident"):
        so.neighbor_graph(part, MetricCost())


def test_duplicate_sites_lose_every_tie_and_go_inactive():
    part, graph = setup([[0.2, 0.5], [0.2, 0.5], [0.8, 0.5]], n=16)
    assert np.bincount(part.owner, minlength=3)[1] == 0
    assert not graph.active[1]
    assert graph.edges.tolist() == [[0, 2]]
    # connectivity only asks about agents that own cells
    assert so.is_connected(graph)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=2, max_size=6))
def test_relabeling_permutes_ownership(coords):
    sites = np.array(coords)
    # skip configurations with near-duplicate sites; the tie rule makes
    # those legitimately asymmetric under relabeling
    d = np.linalg.norm(sites[:, None] - sites[None, :], axis=2)
    np.fill_diagonal(d, 1.0)
    if d.min() < 1e-3:
        return
    part, _ = setup(sites, n=24)
    # relabeling can only differ where a cell center is exactly tied
    d2 = ((part.q.centers[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    gaps = np.diff(np.sort(d2, axis=1), axis=1)
    if np.any(gaps[:, 0] < 1e-12):
        return
    perm = np.roll(np.arange(len(sites)), 1)
    part_p, _ = setup(sites[perm], n=24)
    np.testing.assert_array_equal(perm[part_p.owner], part.owner)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sites_are_rejected(bad):
    dom = Domain()
    q = QuadratureGrid(dom, 8)
    sites = np.array([[0.2, 0.5], [0.8, 0.5]])
    sites[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        so.build_partition(sites, MetricCost(), dom, q)


@st.composite
def partition_cases(draw):
    if draw(st.booleans()):
        # dyadic corners, extents and resolutions make every cell center,
        # and every site mirrored about one, exact in floating point
        lo = np.array([draw(st.integers(-8, 8)), draw(st.integers(-8, 8))]) / 4.0
        ext = 2.0 ** np.array([draw(st.integers(-2, 2)), draw(st.integers(-2, 2))])
        nx, ny = 2 ** draw(st.integers(1, 5)), 2 ** draw(st.integers(1, 5))
        offset = st.integers(-16, 16).map(lambda k: k / 64.0)
    else:
        lo = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))])
        ext = np.array([draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))])
        nx, ny = draw(st.integers(2, 24)), draw(st.integers(2, 24))
        offset = st.floats(-0.3, 0.3)
    dom = Domain(lo, lo + ext)
    q = QuadratureGrid(dom, nx, ny)
    unit = st.floats(-0.1, 1.1)  # a little outside the domain exercises the clamp
    sites = [
        lo + ext * np.array([draw(unit), draw(unit)])
        for _ in range(draw(st.integers(1, 8)))
    ]
    # pairs mirrored about a cell center are equidistant from it
    for _ in range(draw(st.integers(0, 3))):
        c = q.centers[draw(st.integers(0, q.n_cells - 1))]
        off = np.array([draw(offset), draw(offset)]) * ext
        sites += [c + off, c - off]
    sites = np.array(sites)
    dups = draw(st.lists(st.integers(0, len(sites) - 1), max_size=3))
    sites = np.concatenate([sites, sites[dups]])
    perm = draw(st.permutations(range(len(sites))))
    return dom, q, sites[list(perm)]


@settings(deadline=None, max_examples=200)
@given(partition_cases())
def test_running_minimum_matches_the_dense_argmin(case):
    dom, q, sites = case
    part = so.build_partition(sites, MetricCost(), dom, q)
    assert part.owner.dtype == np.int64
    assert np.array_equal(part.owner, _dense_owner(sites, dom, q))


def test_mirrored_sites_tie_to_the_lowest_index():
    # dyadic geometry: cell 27 sits at (0.75, 2.875), exactly equidistant
    # from the mirrored pair c + off and c - off
    dom = Domain((-1.0, 2.0), (3.0, 3.0))
    q = QuadratureGrid(dom, 8, 4)
    c, off = q.centers[27], np.array([0.25, 0.125])
    sites = np.array([c + off, c - off, c + 0.5])
    part = so.build_partition(sites, MetricCost(), dom, q)
    assert part.owner[27] == 0
    assert np.array_equal(part.owner, _dense_owner(sites, dom, q))
    part = so.build_partition(sites[::-1], MetricCost(), dom, q)
    assert part.owner[27] == 1  # the pair now holds indices 1 and 2


def test_partition_memory_does_not_scale_with_sites_times_cells():
    dom = Domain()
    q = QuadratureGrid(dom, 128)
    sites = so.SplitMix64(5).uniforms(2000).reshape(1000, 2)
    tracemalloc.start()
    try:
        so.build_partition(sites, MetricCost(), dom, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense table would need 1000 * 128**2 * 2 * 8 bytes, about 262 MB
    assert peak < 16 * 2**20


def _clustered(n, seed, side):
    """n seeded sites in a square of the given side at (0.4, 0.6)."""
    return [0.4, 0.6] + side * so.SplitMix64(seed).uniforms(2 * n).reshape(n, 2)


def _dyadic(n, seed, denominator):
    """n seeded sites on a dyadic lattice: exact distances, many exact ties."""
    return np.floor(so.SplitMix64(seed).uniforms(2 * n).reshape(n, 2) * denominator) / denominator


def _gaussian(n, seed, sigma):
    """n seeded sites drawn around (0.3, 0.7) with standard deviation sigma."""
    return np.random.default_rng(seed).normal([0.3, 0.7], sigma, size=(n, 2))


# production sizes reach the blocked kernels of the BLAS under the
# per-site matrix product, which the hypothesis cases above never do
@pytest.mark.parametrize("sites, nx, ny", [
    (so.SplitMix64(0).uniforms(600).reshape(300, 2), 256, 256),
    (so.SplitMix64(0).uniforms(600).reshape(300, 2), 300, 200),
    (_clustered(300, 1, 0.1), 256, 256),
    (_gaussian(300, 2, 0.01), 256, 256),
    (_dyadic(300, 4, 64), 256, 256),
    (so.SplitMix64(3).uniforms(40).reshape(20, 2), 512, 512),
], ids=["uniform-256", "uniform-300x200", "box-0.1", "gaussian-0.01", "dyadic-256", "n20-512"])
def test_production_sizes_match_the_dense_argmin(sites, nx, ny):
    dom = Domain()
    q = QuadratureGrid(dom, nx, ny)
    part = so.build_partition(sites, MetricCost(), dom, q)
    assert np.array_equal(part.owner, _blocked_dense_owner(sites, dom, q))


def _loop_neighbor_lists(n, edges):
    lists = [[] for _ in range(n)]
    for a, b in edges:
        lists[a].append(b)
        lists[b].append(a)
    return [sorted(l) for l in lists]


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30))
def test_neighbor_lists_match_a_loop_over_the_edges(n, pairs):
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b and max(a, b) < n})
    graph = so.NeighborGraph(n, edges, np.ones(len(edges)))
    assert graph.neighbor_lists() == _loop_neighbor_lists(n, edges)
