"""Voronoi ownership of the quadrature grid and the induced neighbor graph.

Ownership is raster Voronoi: every quadrature cell belongs to the
nearest site, ties to the lowest index. Two agents are neighbors when
their cells share a 4-adjacent cell boundary; the same structure serves
cell masses, adjacency, and the communication graph.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


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
        lists = [[] for _ in range(self.n)]
        for a, b in self.edges:
            lists[a].append(int(b))
            lists[b].append(int(a))
        return [sorted(l) for l in lists]

    def edge_dict(self):
        """Map (i, j) with i < j to the edge's position in the edge list."""
        return {(int(a), int(b)): k for k, (a, b) in enumerate(self.edges)}


def build_partition(sites, metric, domain, q):
    """Assign every quadrature cell to its nearest site.

    Ties break to the lowest site index, so the scan order cannot change
    the result. Sites must be finite and are clamped into the domain
    first. The conformal factor scales all distances alike and is
    irrelevant to the argmin.

    The sites are scanned one at a time against a running minimum over
    the quadrature's tensor grid: O(N*M) time and O(M) memory for N
    sites and M cells. A site takes a cell only when strictly closer
    than every earlier site, which keeps ties at the lowest index.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError("sites must be an (N, 2) array")
    if len(sites) < 1:
        raise ValueError("need at least one site")
    if not np.all(np.isfinite(sites)):
        raise ValueError("sites must be finite")
    sites = domain.clamp(sites)
    shape = (q.ny, q.nx)
    best = np.full(shape, np.inf)
    owner = np.zeros(shape, dtype=np.int64)
    d2 = np.empty(shape)
    closer = np.empty(shape, dtype=bool)
    for i, (sx, sy) in enumerate(sites):
        np.add(((q.ys - sy) ** 2)[:, None], ((q.xs - sx) ** 2)[None, :], out=d2)
        np.less(d2, best, out=closer)
        np.copyto(owner, i, where=closer)
        np.minimum(best, d2, out=best)
    return Partition(sites, owner.ravel(), q)


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
    """Whether the agents that own cells lie in one connected component."""
    nodes = np.nonzero(g.active)[0]
    if len(nodes) <= 1:
        return True
    adjacency = sp.coo_matrix(
        (np.ones(len(g.edges)), (g.edges[:, 0], g.edges[:, 1])), shape=(g.n, g.n)
    )
    _, labels = connected_components(adjacency, directed=False)
    return bool(np.all(labels[nodes] == labels[nodes[0]]))
