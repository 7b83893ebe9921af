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
from swarm_ot import Domain, QuadratureGrid
from swarm_ot.voronoi import CHUNK, TILE


def _dense_owner(sites, domain, q):
    """Reference ownership: argmin over the full N x M distance table."""
    sites = domain.clamp(np.asarray(sites, dtype=float))
    d2 = ((q.centers[None, :, :] - sites[:, None, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=0)


def _blocked_dense_owner(sites, domain, q):
    """`_dense_owner` one block of cells at a time, for production sizes:
    each block's (N, cells, 2) table stays at 16 MiB."""
    block = max(1, 2**20 // len(sites))
    blocks = np.split(q.centers, range(block, q.n_cells, block))
    return np.concatenate([_dense_owner(sites, domain, SimpleNamespace(centers=c)) for c in blocks])


def setup(sites, n=64, radius=None):
    q = QuadratureGrid(Domain(), n)
    part = so.build_partition(np.asarray(sites, dtype=float), q)
    graph = so.neighbor_graph(part, radius=radius)
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
    assert _adjacency_lists(graph) == [[1], [0, 2], [1]]


def test_radius_limit_disconnects_far_agents():
    _, graph = setup([[0.1, 0.5], [0.5, 0.5], [0.9, 0.5]], radius=0.3)
    assert len(graph.edges) == 0
    assert not so.is_connected(graph)
    assert np.all(graph.active)


def test_the_radius_keeps_an_edge_of_exactly_its_length():
    # the two sites share one edge, whose cost is 0.5 exactly
    sites = [[0.25, 0.5], [0.75, 0.5]]
    assert setup(sites)[1].costs.tolist() == [0.5]
    assert setup(sites, radius=0.5)[1].edges.tolist() == [[0, 1]]
    assert len(setup(sites, radius=np.nextafter(0.5, 0))[1].edges) == 0


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30))
def test_each_edge_costs_the_euclidean_distance_of_its_sites(seed, n):
    part, graph = setup(np.random.default_rng(seed).uniform(size=(n, 2)), n=32)
    ref = [np.linalg.norm(part.sites[i] - part.sites[j]) for i, j in graph.edges]
    np.testing.assert_allclose(graph.costs, ref, rtol=1e-15, atol=0)


def test_coincident_adjacent_sites_raise():
    # the tie rule keeps duplicates from owning cells, so force adjacency
    # with a hand-built ownership array to exercise the guard
    q = QuadratureGrid(Domain(), 4)
    sites = np.array([[0.5, 0.5], [0.5, 0.5]])
    owner = np.tile([0, 0, 1, 1], 4)
    part = so.Partition(sites, owner, q)
    with pytest.raises(ValueError, match="coincident"):
        so.neighbor_graph(part)


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
        so.build_partition(sites, q)


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
    part = so.build_partition(sites, q)
    assert part.owner.dtype == np.int64
    assert np.array_equal(part.owner, _dense_owner(sites, dom, q))


def _tile_edges(size):
    """Indices of the cells on either side of each inner tile boundary."""
    return [k for t in range(TILE, size, TILE) for k in (t - 1, t)]


@st.composite
def culled_partition_cases(draw):
    """Enough sites on grids of several tiles, partial ones at the far
    edges, for the tile bounds to cull: spread or tightly clustered sites,
    mirrored pairs tied across tile boundaries, and duplicates."""
    nx, ny = draw(st.integers(33, 100)), draw(st.integers(33, 100))
    # a dyadic cell width makes every cell center, and every site
    # mirrored about one by a multiple of h / 8, exact in floating point
    h = 2.0 ** draw(st.integers(-8, -4))
    lo = h * np.array([draw(st.integers(-40, 40)), draw(st.integers(-40, 40))])
    dom = Domain(lo, lo + h * np.array([nx, ny]))
    q = QuadratureGrid(dom, nx, ny)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 200))
    if draw(st.booleans()):
        # a little outside the domain exercises the clamp
        unit = rng.uniform(-0.05, 1.05, size=(n, 2))
    else:
        side = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
        unit = rng.uniform(0.0, 1.0, size=2) + side * rng.uniform(-1.0, 1.0, size=(n, 2))
    sites = lo + dom.extent * unit
    if draw(st.booleans()):
        # on the half-cell lattice distances are exact and ties common
        sites = lo + np.round((sites - lo) / (h / 2)) * (h / 2)
    sites = [sites]
    # pairs mirrored about a cell on a tile boundary tie on its bisector
    for _ in range(draw(st.integers(0, 8))):
        ix = draw(st.sampled_from(_tile_edges(nx)) | st.integers(0, nx - 1))
        iy = draw(st.sampled_from(_tile_edges(ny)) | st.integers(0, ny - 1))
        off = h / 8 * np.array([draw(st.integers(-24, 24)), draw(st.integers(-24, 24))])
        c = q.centers[iy * nx + ix]
        sites.append(np.array([c + off, c - off]))
    sites = np.concatenate(sites)
    dups = draw(st.lists(st.integers(0, len(sites) - 1), max_size=6))
    sites = np.concatenate([sites, sites[dups]])
    return dom, q, sites[rng.permutation(len(sites))]


@settings(deadline=None, max_examples=60)
@given(culled_partition_cases())
def test_culled_scan_matches_the_dense_argmin(case):
    dom, q, sites = case
    part = so.build_partition(sites, q)
    assert np.array_equal(part.owner, _blocked_dense_owner(sites, dom, q))


# cells of width 1/16, sites in cell units; each tie sits on a cell where
# one site's smallest squared distance over its tile equals another's
# largest, so the lower-index site stays only because the cull keeps `<=`
@pytest.mark.parametrize("nx, ny, sites, cell, owner", [
    # 17 = TILE + 1: the corner tile is the single cell (16, 16), 15 cells
    # from site 0 and (12, 9) cells from site 1
    (17, 17, [[16.5, 1.5], [4.5, 7.5]], (16, 16), 0),
    (29, 29, [[2.5, 1.0], [28.0, 8.5], [7.0, 13.5], [20.0, 24.5], [20.5, 27.0]], (16, 0), 0),
], ids=["corner-cell-tile", "full-height-tile"])
def test_a_tie_at_a_tile_bound_keeps_the_lower_index(nx, ny, sites, cell, owner):
    h = 1 / 16
    dom = Domain((0.0, 0.0), (nx * h, ny * h))
    q = QuadratureGrid(dom, nx, ny)
    sites = h * np.array(sites)
    part = so.build_partition(sites, q)
    assert part.owner[cell[1] * nx + cell[0]] == owner
    assert np.array_equal(part.owner, _dense_owner(sites, dom, q))


def test_mirrored_sites_tie_to_the_lowest_index():
    # dyadic geometry: cell 27 sits at (0.75, 2.875), exactly equidistant
    # from the mirrored pair c + off and c - off
    dom = Domain((-1.0, 2.0), (3.0, 3.0))
    q = QuadratureGrid(dom, 8, 4)
    c, off = q.centers[27], np.array([0.25, 0.125])
    sites = np.array([c + off, c - off, c + 0.5])
    part = so.build_partition(sites, q)
    assert part.owner[27] == 0
    assert np.array_equal(part.owner, _dense_owner(sites, dom, q))
    part = so.build_partition(sites[::-1], q)
    assert part.owner[27] == 1  # the pair now holds indices 1 and 2


def test_partition_memory_does_not_scale_with_sites_times_cells():
    dom = Domain()
    q = QuadratureGrid(dom, 128)
    sites = so.SplitMix64(5).uniforms(2000).reshape(1000, 2)
    tracemalloc.start()
    try:
        so.build_partition(sites, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense table would need 1000 * 128**2 * 2 * 8 bytes, about 262 MB
    assert peak < 16 * 2**20


def test_partition_memory_does_not_grow_with_sites():
    q = QuadratureGrid(Domain(), 128)

    def peak(n):
        sites = so.SplitMix64(5).uniforms(2 * n).reshape(n, 2)
        so.build_partition(sites, q)  # warm-up
        tracemalloc.start()
        try:
            so.build_partition(sites, q)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # ten times the sites add their (N, 2) copy, about 42 KiB; (ty, tx, N)
    # tile bounds over all sites at once would add about 8.4 MiB
    assert peak(3000) - peak(300) < 256 * 2**10


@st.composite
def chunked_partition_cases(draw):
    """Site counts on either side of the chunk size: spread or tightly
    clustered sites, some on the domain boundary, and exact duplicates
    placed in different chunks."""
    n = draw(st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]))
    dom = Domain()
    q = QuadratureGrid(dom, draw(st.integers(7, 64)), draw(st.integers(7, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        sites = rng.uniform(size=(n, 2))
    else:
        side = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
        sites = rng.uniform(size=2) + side * rng.uniform(-1.0, 1.0, size=(n, 2))
    for _ in range(draw(st.integers(0, 8))):
        sites[draw(st.integers(0, n - 1)), draw(st.integers(0, 1))] = draw(st.sampled_from([0.0, 1.0]))
    starts = range(0, n, CHUNK)
    for _ in range(draw(st.integers(0, 6)) if len(starts) > 1 else 0):
        a, b = draw(st.permutations(starts))[:2]
        i = draw(st.integers(a, min(a + CHUNK, n) - 1))
        sites[draw(st.integers(b, min(b + CHUNK, n) - 1))] = sites[i]
    return dom, q, sites


@settings(deadline=None, max_examples=100)
@given(chunked_partition_cases())
def test_chunk_boundaries_keep_ties_at_the_lowest_index(case):
    dom, q, sites = case
    part = so.build_partition(sites, q)
    assert np.array_equal(part.owner, _dense_owner(sites, dom, q))


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
    (so.SplitMix64(6).uniforms(600).reshape(300, 2), 512, 512),
    (_clustered(1000, 7, 0.05), 256, 256),
], ids=["uniform-256", "uniform-300x200", "box-0.1", "gaussian-0.01", "dyadic-256", "n20-512",
        "uniform-512", "box-0.05-n1000"])
def test_production_sizes_match_the_dense_argmin(sites, nx, ny):
    dom = Domain()
    q = QuadratureGrid(dom, nx, ny)
    part = so.build_partition(sites, q)
    assert np.array_equal(part.owner, _blocked_dense_owner(sites, dom, q))


def _loop_neighbor_lists(n, edges):
    lists = [[] for _ in range(n)]
    for a, b in edges:
        lists[a].append(b)
        lists[b].append(a)
    return [sorted(l) for l in lists]


def _adjacency_lists(graph):
    """The CSR adjacency as one neighbor list per agent."""
    offsets, neighbors = graph.adjacency()
    assert offsets[0] == 0 and offsets[-1] == len(neighbors) == 2 * len(graph.edges)
    return [neighbors[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30))
def test_adjacency_matches_a_loop_over_the_edges(n, pairs):
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b and max(a, b) < n})
    graph = so.NeighborGraph(n, edges, np.ones(len(edges)))
    assert _adjacency_lists(graph) == _loop_neighbor_lists(n, edges)


def _csgraph_connected(g):
    """Reference connectivity of the agents that own cells, by scipy."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    nodes = np.flatnonzero(g.active)
    if len(nodes) <= 1:
        return True
    adjacency = coo_matrix((np.ones(len(g.edges)), (g.edges[:, 0], g.edges[:, 1])), shape=(g.n, g.n))
    _, labels = connected_components(adjacency, directed=False)
    return bool(np.all(labels[nodes] == labels[nodes[0]]))


@st.composite
def agent_graphs(draw):
    """Random graphs on up to 40 agents, some inactive, many with isolated
    nodes, with the edges longer than an optional radius dropped."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    if draw(st.booleans()):  # a random spanning tree, so connected graphs are common
        pairs += [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    edges = np.array(sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b}), dtype=np.int64)
    costs = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(edges), max_size=len(edges))))
    radius = draw(st.none() | st.floats(0.0, 1.0))
    if radius is not None:
        edges, costs = edges.reshape(-1, 2)[costs <= radius], costs[costs <= radius]
    active = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return so.NeighborGraph(n, edges, costs, active)


@settings(deadline=None, max_examples=300)
@given(agent_graphs())
def test_connectivity_matches_csgraph(g):
    assert so.is_connected(g) == _csgraph_connected(g)


@pytest.mark.parametrize("n, edges, active, connected", [
    (1, [], None, True),
    (2, [], None, False),
    (3, [], [True, False, False], True),
    (3, [[0, 2]], [True, False, True], True),
    (4, [[0, 1], [2, 3]], None, False),
    (5, [[3, 4], [2, 3], [1, 2], [0, 1]], None, True),
])
def test_connectivity_of_small_graphs(n, edges, active, connected):
    g = so.NeighborGraph(n, edges, np.ones(len(edges)), active)
    assert so.is_connected(g) == _csgraph_connected(g) == connected


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(4, 40), st.floats(0.0, 0.6))
def test_radius_graphs_match_csgraph(seed, n, resolution, radius):
    sites = np.random.default_rng(seed).uniform(size=(n, 2))
    _, graph = setup(sites, n=resolution, radius=radius)
    assert so.is_connected(graph) == _csgraph_connected(graph)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 64), st.integers(0, 64)), min_size=1, max_size=40),
    st.integers(2, 48),
)
def test_a_graph_without_radius_is_connected(lattice, resolution):
    # lattice sites are distinct or exact duplicates, which own no cells
    _, graph = setup(np.array(lattice) / 64.0, n=resolution)
    assert so.is_connected(graph)
