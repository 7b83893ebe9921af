"""Voronoi ownership of the quadrature grid and the induced neighbor graph.

Ownership is raster Voronoi: every quadrature cell belongs to the
nearest site, ties to the lowest index. Two agents are neighbors when
their cells share a 4-adjacent cell boundary; the same structure serves
cell masses, adjacency, and the communication graph.

The partition is exact, not approximate: a running-minimum scan over
the sites in index order, where each site scans only the window of
grid tiles on which it may be nearest. A site is culled from a tile
only when its smallest possible squared distance there exceeds another
site's largest. Both bounds are sums of the scan's own squared offsets,
and rounded addition is monotone, so a culled site loses every cell of
the tile strictly; a site whose bound ties is kept (`<=`), and the scan
gives ties to the lowest index. The owners are therefore those of the
dense N x M argmin bit for bit. For N sites on M = nx * ny cells the
scan needs O(M + N * (nx + ny) + N * M / TILE**2) memory, never an
N x M table. Spread-out sites scan a few tiles each; a tight cluster,
whose windows span the grid, costs what the full O(N * M) scan costs.

Connectivity is plain numpy label propagation, so an agent run never
imports scipy.
"""

import numpy as np

# cells per side of the tiles on which `build_partition` culls sites
TILE = 16


class Partition:
    """Voronoi ownership of quadrature cells by agent sites."""

    def __init__(self, sites, owner, q):
        self.sites = sites
        self.owner = owner
        self.q = q

    @property
    def n(self):
        return len(self.sites)


class NeighborGraph:
    """Undirected agent adjacency with positive edge costs.

    `edges` is an (E, 2) int array with i < j in lexicographic order;
    `active[i]` says whether agent i owns at least one cell.
    """

    def __init__(self, n, edges, costs, active=None):
        self.n = int(n)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.costs = np.asarray(costs, dtype=float).reshape(-1)
        if len(self.edges) != len(self.costs):
            raise ValueError("edges and costs must have equal length")
        self.active = (
            np.ones(self.n, dtype=bool) if active is None else np.asarray(active, dtype=bool)
        )

    def neighbor_lists(self):
        """Per-node sorted neighbor index lists."""
        ends = np.concatenate([self.edges, self.edges[:, ::-1]])
        ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
        cuts = np.searchsorted(ends[:, 0], np.arange(self.n + 1)).tolist()
        neighbors = ends[:, 1].tolist()
        return [neighbors[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def build_partition(sites, q):
    """Assign every quadrature cell of `q` to its nearest site.

    Ties break to the lowest site index, so the scan order cannot change
    the result. Sites must be finite and are clamped into `q.domain`
    first. No metric is passed: its conformal factor scales all distances
    alike, so the argmin does not depend on it.

    The sites are scanned one at a time against a running minimum over
    the quadrature's tensor grid. A site takes a cell only when strictly
    closer than every earlier site, which keeps ties at the lowest index.

    Each site's squared-distance table is one K = 2 matrix product,
    `[dy**2, 1] @ [1; dx**2]`, which fills the table faster than a
    broadcast add. Its entries equal `dy**2 + dx**2` bit for bit: both
    products by one are exact, so each entry is one rounded addition
    whether or not the product is fused, and addition commutes. The
    owners therefore do not depend on the BLAS the product runs on.

    Each site scans only a window of the grid. The grid is cut into
    TILE x TILE tiles (partial at the far edges). On each tile, a site's
    lower bound is its smallest `dy**2` there plus its smallest `dx**2`,
    and its upper bound the largest plus the largest. Rounded addition is
    monotone, so each of the site's table entries on the tile lies
    between the two. A site is a candidate on a tile when its lower bound
    is `<=` the smallest upper bound of all sites there; any other site
    is strictly farther, on every cell of the tile, than the site with
    that upper bound, so it can neither win a cell nor tie for one, and
    leaving it out changes no owner. A site scans the bounding rectangle
    of its candidate tiles, in index order with the others, so the owners
    equal those of the full scan bit for bit, ties included.

    For N sites on M = nx * ny cells, the bounds take O(N * M / TILE**2)
    time and memory and the squared offsets O(N * (nx + ny)). The scan
    takes O(M) memory and time proportional to the windows' total area:
    a few tiles per site when sites are spread out, up to the full
    O(N * M) for a tight cluster, whose windows span the grid.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError("sites must be an (N, 2) array")
    if len(sites) < 1:
        raise ValueError("need at least one site")
    if not np.all(np.isfinite(sites)):
        raise ValueError("sites must be finite")
    sites = q.domain.clamp(sites)
    ty, tx = -(-q.ny // TILE), -(-q.nx // TILE)
    # squared offsets of every site, one column each, over whole tiles: the
    # far edge tiles repeat their last row or column, which leaves every
    # tile's minimum and maximum as they are
    dy2 = (q.ys[np.minimum(np.arange(ty * TILE), q.ny - 1), None] - sites[:, 1]) ** 2
    dx2 = (q.xs[np.minimum(np.arange(tx * TILE), q.nx - 1), None] - sites[:, 0]) ** 2
    dy2t, dx2t = dy2.reshape(ty, TILE, -1), dx2.reshape(tx, TILE, -1)
    # (ty, tx, N) bounds on the sums dy**2 + dx**2 over each tile's cells
    lower = dy2t.min(axis=1)[:, None] + dx2t.min(axis=1)[None, :]
    upper = dy2t.max(axis=1)[:, None] + dx2t.max(axis=1)[None, :]
    candidate = lower <= upper.min(axis=2, keepdims=True)
    windows = np.column_stack([_span(candidate.any(axis=1), q.ny), _span(candidate.any(axis=0), q.nx)])
    best = np.full((q.ny, q.nx), np.inf)
    owner = np.zeros((q.ny, q.nx), dtype=np.int64)
    d2 = np.empty(q.n_cells)
    closer = np.empty(q.n_cells, dtype=bool)
    rows, cols = np.ones((q.ny, 2)), np.ones((2, q.nx))
    for i, (y0, y1, x0, x1) in enumerate(windows.tolist()):
        h, w = y1 - y0, x1 - x0
        r, c = rows[:h], cols[:, :w]
        r[:, 0] = dy2[y0:y1, i]
        c[1] = dx2[x0:x1, i]
        d, near = d2[: h * w].reshape(h, w), closer[: h * w].reshape(h, w)
        b = best[y0:y1, x0:x1]
        np.matmul(r, c, out=d)
        np.less(d, b, out=near)
        np.copyto(owner[y0:y1, x0:x1], i, where=near)
        np.minimum(b, d, out=b)
    return Partition(sites, owner.ravel(), q)


def _span(hit, size):
    """Cell ranges [start, stop) of each site's hit tiles along one axis.

    `hit` is (tiles, N). A site's range runs from its first to its last
    hit tile, clipped to `size`; it is the empty (0, 0) if none is hit.
    """
    first = np.argmax(hit, axis=0)
    stop = np.minimum((len(hit) - np.argmax(hit[::-1], axis=0)) * TILE, size)
    return np.where(hit.any(axis=0), [first * TILE, stop], 0).T


def neighbor_graph(p, metric, radius=None):
    """Edges between owners of 4-adjacent quadrature cells.

    `radius` optionally drops edges between agents farther apart than the
    communication range (measured in metric cost); the resulting graph
    may then be disconnected, which callers report rather than repair.
    """
    q = p.q
    own = p.owner.reshape(q.ny, q.nx)
    a = np.concatenate([own[:, :-1].ravel(), own[:-1, :].ravel()])
    b = np.concatenate([own[:, 1:].ravel(), own[1:, :].ravel()])
    cut = a != b
    a, b = a[cut], b[cut]
    # one int64 key per unordered pair; sorted keys are lexicographic (lo, hi)
    keys = np.unique(np.minimum(a, b) * p.n + np.maximum(a, b))
    edges = np.column_stack([keys // p.n, keys % p.n])
    diffs = p.sites[edges[:, 0]] - p.sites[edges[:, 1]]
    costs = metric.xi * np.sqrt((diffs**2).sum(axis=1))
    if np.any(costs <= 0):
        raise ValueError("coincident sites share a cell boundary; perturb duplicates first")
    if radius is not None:
        keep = costs <= radius
        edges, costs = edges[keep], costs[keep]
    active = np.bincount(p.owner, minlength=p.n) > 0
    return NeighborGraph(p.n, edges, costs, active)


def is_connected(g):
    """Whether the agents that own cells lie in one connected component.

    Without a `radius`, `neighbor_graph` is connected by construction:
    every quadrature cell has an owner and the 4-neighbor grid is
    connected, so a grid path between two owned cells crosses owner
    boundaries only along graph edges. Only `radius` can disconnect it.

    Components are labeled by min-label propagation: each node takes the
    smallest label among itself and its neighbors, then its label's
    label (pointer jumping), until nothing changes. Labels only fall and
    stay within a node's component, and at the fixed point both ends of
    every edge agree, so each component carries one label of its own.
    """
    nodes = np.flatnonzero(g.active)
    if len(nodes) <= 1:
        return True
    a, b = g.edges[:, 0], g.edges[:, 1]
    label = np.arange(g.n)
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        np.minimum.at(low, b, label[a])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    return bool(np.all(label[nodes] == label[nodes[0]]))
