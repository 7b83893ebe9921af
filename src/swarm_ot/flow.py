"""Exact min-cost-flow reference for the graph-restricted transport value.

This is the validation oracle: the restricted dual and the uncapacitated
min-cost flow on the same graph are a primal-dual LP pair, so their
values must agree. The flow LP is solved exactly by HiGHS through
`scipy.optimize.linprog`. The transport algorithms never import this
module.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment, linprog


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


def min_cost_flow(p):
    """Minimum cost of shipping the supplies across the graph.

    One uncapacitated LP solved exactly by HiGHS: a nonnegative flow on
    each direction of every edge at the edge's cost, with net outflow
    equal to the supply at every node. Returns (value, flows) with the
    positive flows keyed by directed edge and value their total cost.
    """
    g = p.graph
    m = len(g.edges)
    if m == 0:  # linprog needs at least one variable
        if np.any(p.supplies != 0):
            raise ValueError("infeasible: imbalance across disconnected components")
        return 0.0, {}
    arcs = np.concatenate([g.edges, g.edges[:, ::-1]])
    costs = np.concatenate([g.costs, g.costs])
    # node-arc incidence, [B, -B] for the node-edge incidence B: +1 where
    # an arc leaves a node, -1 where it enters
    incidence = sp.coo_matrix(
        (np.repeat([1.0, -1.0], 2 * m), (arcs.T.ravel(), np.tile(np.arange(2 * m), 2))),
        shape=(g.n, 2 * m),
    )
    res = linprog(costs, A_eq=incidence, b_eq=p.supplies, bounds=(0, None), method="highs")
    if res.status == 2:
        raise ValueError("infeasible: imbalance across disconnected components")
    if res.status != 0:
        raise RuntimeError(f"min-cost-flow LP failed: {res.message}")
    used = res.x > 0
    flows = {(int(u), int(v)): float(f) for (u, v), f in zip(arcs[used], res.x[used])}
    return float(costs[used] @ res.x[used]), flows


def discrete_ot_cost(src, dst, metric):
    """Optimal assignment cost between equal-size point sets.

    min over pairings of (1/N) sum_i c(src_i, dst_sigma(i)), solved
    exactly as an assignment problem.
    """
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape != dst.shape:
        raise ValueError(f"point sets differ in shape: {src.shape} vs {dst.shape}")
    diff = src[:, None, :] - dst[None, :, :]
    costs = metric.xi * np.sqrt((diff**2).sum(axis=2))
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum() / len(src))
