"""Exact min-cost-flow reference for the graph-restricted transport value.

This is the validation oracle: the restricted dual and the uncapacitated
min-cost flow on the same graph are a primal-dual LP pair, so their
values must agree. The flow LP is solved exactly by HiGHS through
`scipy.optimize.linprog`, imported, like all of scipy in this package,
only when a function that needs it runs. The transport algorithms never
import this module.
"""

import numpy as np


class FlowProblem:
    """Balanced supplies on the nodes of a neighbor graph."""

    def __init__(self, graph, supplies):
        supplies = np.asarray(supplies, dtype=float)
        if len(supplies) != graph.n:
            raise ValueError("one supply per graph node required")
        if abs(float(supplies.sum())) > 1e-9:
            raise ValueError(f"supplies must balance, sum is {supplies.sum():.3e}")
        self.graph = graph
        self.supplies = supplies


def incidence(edges, n):
    """Sparse (E, n) edge-node incidence B in the primal-dual kernel's
    orientation.

    Row k holds +1 at edges[k, 0] and -1 at edges[k, 1], so B.T @ flux is
    the net outflow and B.T @ diag(lam) @ B is `primal_dual.laplacian`.
    """
    import scipy.sparse as sp

    m = len(edges)
    rows = np.tile(np.arange(m), 2)
    return sp.csr_matrix((np.repeat([1.0, -1.0], m), (rows, edges.T.ravel())), shape=(m, n))


def min_cost_flow(p):
    """Minimum cost of shipping the supplies across the graph.

    One uncapacitated LP solved exactly by HiGHS: a nonnegative flow on
    each direction of every edge at the edge's cost, with net outflow
    equal to the supply at every node. Returns (value, flows) with the
    positive flows keyed by directed edge and value their total cost.

    The LP is positively homogeneous in the supplies, so it is solved
    for supplies scaled to max |b| = 1 and the flows scaled back:
    supplies below HiGHS's feasibility tolerance would otherwise come
    back as zero flows. The supplies balance only to rounding, which
    scaling can magnify into an infeasible LP, so the scaled supplies
    have their mean removed.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    g = p.graph
    scale = float(np.abs(p.supplies).max(initial=0.0))
    if scale == 0.0:
        return 0.0, {}
    if len(g.edges) == 0:  # linprog needs at least one variable
        raise ValueError("infeasible: imbalance across disconnected components")
    arcs = np.concatenate([g.edges, g.edges[:, ::-1]])
    costs = np.concatenate([g.costs, g.costs])
    # node-arc incidence: an arc along an edge leaves its first node, the
    # reversed arc leaves its second
    B = incidence(g.edges, g.n)
    a_eq = sp.hstack([B.T, -B.T])
    b_eq = p.supplies / scale
    b_eq -= b_eq.mean()
    res = linprog(costs, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        raise ValueError("infeasible: imbalance across disconnected components")
    if res.status != 0:
        raise RuntimeError(f"min-cost-flow LP failed: {res.message}")
    x = res.x * scale
    used = x > 0
    flows = {(int(u), int(v)): float(f) for (u, v), f in zip(arcs[used], x[used])}
    return float(costs[used] @ x[used]), flows


def discrete_ot_cost(src, dst):
    """Optimal assignment cost between equal-size point sets.

    min over pairings of (1/N) sum_i ||src_i - dst_sigma(i)||, solved
    exactly as an assignment problem.
    """
    from scipy.optimize import linear_sum_assignment

    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape != dst.shape:
        raise ValueError(f"point sets differ in shape: {src.shape} vs {dst.shape}")
    diff = src[:, None, :] - dst[None, :, :]
    costs = np.sqrt((diff**2).sum(axis=2))
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() / len(src))
