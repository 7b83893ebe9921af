"""Exact references for transport costs.

`min_cost_flow` is the validation oracle: the restricted dual and the
uncapacitated min-cost flow on the same edges, of an agent graph or of
the grid, are a primal-dual LP pair, so their values must agree. HiGHS
solves the flow LP exactly through `scipy.optimize.linprog`, imported,
like all of scipy in this package, only when a function that needs it
runs. The transport algorithms never import this module.
"""

import numpy as np

from .geometry import edge_list, lengths


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


def min_cost_flow(edges, costs, supplies):
    """Minimum cost of shipping the supplies across an edge list.

    Beckmann's minimal-flow problem as one uncapacitated LP solved
    exactly by HiGHS: a nonnegative flow on each direction of every
    edge at the edge's cost, with net outflow equal to the supply at
    every node 0..n-1, n = len(supplies), of an agent graph or of
    `grid_edges`. Returns (value, flow): the total cost and the (E,)
    signed flow m_e = forward - backward along each listed edge. A
    ValueError names an input the LP cannot take.

    The LP is positively homogeneous in the supplies, so it is solved
    for supplies scaled to max |b| = 1 and the flows scaled back:
    supplies below HiGHS's feasibility tolerance would otherwise come
    back as zero flows. The supplies balance only to rounding, which
    scaling can magnify into an infeasible LP, so the scaled supplies
    have their mean removed.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    supplies = np.asarray(supplies, dtype=float).reshape(-1)
    n = len(supplies)
    edges = edge_list(edges, n)
    costs = np.asarray(costs, dtype=float).reshape(-1)
    if not np.all(np.isfinite(supplies)):
        raise ValueError("supplies must be finite")
    if abs(float(supplies.sum())) > 1e-9:
        raise ValueError(f"supplies must balance, sum is {supplies.sum():.3e}")
    if costs.shape != (len(edges),) or not np.all(np.isfinite(costs) & (costs >= 0)):
        raise ValueError(f"costs must be one finite value >= 0 for each of {len(edges)} edges")
    scale = float(np.abs(supplies).max(initial=0.0))
    if scale == 0.0:
        return 0.0, np.zeros(len(edges))
    if len(edges) == 0:  # linprog needs at least one variable
        raise ValueError("infeasible: imbalance across disconnected components")
    # node-arc incidence: an arc along an edge leaves its first node, the
    # reversed arc leaves its second
    B = incidence(edges, n)
    a_eq = sp.hstack([B.T, -B.T])
    b_eq = supplies / scale
    b_eq -= b_eq.mean()
    costs = np.concatenate([costs, costs])
    res = linprog(costs, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        raise ValueError("infeasible: imbalance across disconnected components")
    if res.status != 0:
        raise RuntimeError(f"min-cost-flow LP failed: {res.message}")
    x = res.x * scale
    used = x > 0
    return float(costs[used] @ x[used]), x[: len(edges)] - x[len(edges) :]


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
    costs = lengths(src[:, None, :] - dst[None, :, :])
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() / len(src))
