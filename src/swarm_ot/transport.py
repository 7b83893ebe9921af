"""Synchronous transport rounds: the outer multi-agent loop.

Each set of positions is measured once (Voronoi partition, neighbor
graph, cell masses) for both its record and the round that moves it.
A round estimates the Kantorovich potentials by a fixed number of
primal-dual (or primal-only) iterations and moves every agent by a
proximal step in its eps-ball along a local gradient of its neighbors'
potentials. One `PotentialState` carries each agent's potential to the next
round, and each multiplier to the edge of the same ordered pair (i, j).

The local gradients of a round are one batched fit: the agents of each
degree share one call of the LAPACK gufunc behind `np.linalg.lstsq`, which
solves each stacked design on its own with the inputs a per-agent
`np.linalg.lstsq` would pass, so every gradient keeps that call's bits.

A round is a nearest-neighbor protocol: with n inner iterations, an
agent's new position and potential read only agents within n + 2 hops
of it. `_dedupe` seeds each nudge by (seed, k, i), which an agent can do
alone, and `is_connected` is a diagnostic that moves nobody.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import lstsq as _gelsd

from .primal_dual import (
    PotentialState,
    dual_objective,
    feasibility_violation,
    mass_imbalance,
    run_pd,
    run_primal,
)
from .rng import STREAM_PERTURB, STREAM_POSITIONS, SplitMix64, derive
from .target import cell_masses
from .voronoi import build_partition, is_connected, neighbor_graph


@dataclass
class TransportConfig:
    """Knobs of the outer loop.

    eps bounds each move in cost units; tau is the inner step size;
    inner_iters is the number of potential-estimation iterations per
    round; rounds is the outer horizon. fixed_dual switches the inner
    loop to primal-only with that constant multiplier on every edge.
    radius optionally limits communication range (metric cost units).
    """

    eps: float = 0.02
    tau: float = 1.0
    inner_iters: int = 1
    rounds: int = 1
    fixed_dual: float | None = None
    radius: float | None = None

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.inner_iters < 0:
            raise ValueError("inner_iters must be nonnegative")
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.fixed_dual is not None and not self.fixed_dual > 0:
            raise ValueError("fixed dual weight must be positive")
        if self.radius is not None and not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass
class SwarmState:
    """Agent positions plus what each agent carries across rounds.

    `inner` is the last round's `PotentialState`: agent i's own potential
    inner.phi[i], and the multiplier of each agent pair in inner.edges. Its
    edges join agents 0..N-1, so the key i * N + j names one pair alone.
    """

    positions: np.ndarray
    k: int = 0
    cost: float = 0.0
    seed: int = 0
    inner: PotentialState | None = None

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        n = len(self.positions)
        if self.inner is not None and self.inner.phi.shape != (n,):
            raise ValueError("inner must hold one potential per agent")
        if self.inner is not None and np.any((self.inner.edges < 0) | (self.inner.edges >= n)):
            raise ValueError("inner edges must join agents 0..N-1")


@dataclass
class MetricsRecord:
    """One row of the agent-mode time series."""

    k: int
    mass_variance: float
    net_cost: float
    dual_objective: float
    feasibility_violation: float
    connected: bool


def initial_positions(n_agents, domain, seed):
    """Seeded uniform agent positions in the domain."""
    gen = SplitMix64(derive(seed, STREAM_POSITIONS))
    u = gen.uniforms(2 * n_agents).reshape(n_agents, 2)
    return domain.lo + u * domain.extent


# rcond of the gradient fit: a collinear neighborhood's vanishing singular
# value falls below it, so the fit keeps to the directions it can see
GRAD_RCOND = 1e-9


def _lstsq_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def local_gradient(positions, phi, graph):
    """Gradients of the least-squares affine fits of neighborhood potentials.

    Row i fits phi over agent i and its neighbors on `graph`, in
    ascending index order, and returns the fit's slope; with a
    rank-deficient (collinear) neighborhood the minimum-norm solution
    restricts the gradient to the span of available directions. An
    isolated agent gets the zero vector; callers flag that case in their
    diagnostics.

    The agents of each degree d are fitted in one call of the gufunc
    behind `np.linalg.lstsq`, on a stack of their (d + 1) x 3 designs
    `[1, x_j - x_i]`, agent first. Each design reaches LAPACK's gelsd on
    its own, with the inputs one `np.linalg.lstsq` call per agent would
    pass it, so every row has that call's bits, whichever agents share
    its degree. As in `np.linalg.lstsq`, a fit whose SVD does not
    converge raises `LinAlgError`.
    """
    offsets, neighbors = graph.adjacency()
    degree = np.diff(offsets)
    grads = np.zeros((graph.n, 2))
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        for d in np.unique(degree[degree > 0]).tolist():
            agents = np.flatnonzero(degree == d)
            idx = np.column_stack([agents, neighbors[offsets[agents, None] + np.arange(d)]])
            design = np.ones((len(agents), d + 1, 3))
            np.subtract(positions[idx], positions[agents, None], out=design[:, :, 1:])
            coef = _gelsd(design, phi[idx, None], GRAD_RCOND, signature="ddd->ddid")[0]
            grads[agents] = coef[:, 1:, 0]
    return grads


def _row_norms(v):
    """Euclidean norm of each row of an (N, 2) array.

    A stacked matmul of 1 x 2 by 2 x 1 runs numpy's vector dot, so every
    norm has the bits of `np.sqrt(np.dot(row, row))`; an elementwise
    square-and-sum rounds differently where the dot fuses.
    """
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def proximal_step(x, g, eps, metric, domain):
    """Minimize c(x, z) + g . (z - x) over the closed eps-ball at x.

    With the affine local model the minimizer is x itself while
    ||g|| <= xi (moving cannot pay off), and otherwise the ball-boundary
    point along -g, clamped into the domain. `x` and `g` are one (2,)
    point and gradient or (N, 2) batches of them.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    norm = _row_norms(np.atleast_2d(g)).reshape(g.shape[:-1] + (1,))
    stay = norm <= metric.xi
    step = (eps / metric.xi) * g / np.where(stay, 1.0, norm)
    return np.where(stay, x, domain.clamp(x - step))


def _dedupe(state, domain):
    """Clamp positions into the domain and nudge exact duplicates apart.

    Distinct sites keep edge costs positive. A nudge coordinate that
    would leave the domain is mirrored back in, so a duplicate on the
    boundary or at a corner still moves off the original.
    """
    positions = domain.clamp(state.positions)
    # a stable sort puts equal points (0.0 and -0.0 alike) side by side, lowest index first
    order = np.lexsort(positions.T)
    same = np.all(positions[order[1:]] == positions[order[:-1]], axis=1)
    perturbed = np.sort(order[1:][same]).tolist()
    for i in perturbed:
        angle = 2.0 * np.pi * SplitMix64(derive(state.seed, STREAM_PERTURB, state.k, i)).next_float()
        step = 1e-9 * np.array([np.cos(angle), np.sin(angle)])
        outside = (positions[i] + step < domain.lo) | (positions[i] + step > domain.hi)
        positions[i] += np.where(outside, -step, step)
    return positions, perturbed


def _carry(inner, edges, n):
    """`inner`'s multipliers on `edges`, matched by ordered pair; new edges get 0."""
    lam0 = np.zeros(len(edges))
    if inner is not None:
        _, at, src = np.intersect1d(edges @ [n, 1], inner.edges @ [n, 1], return_indices=True)
        lam0[at] = inner.lam[src]
    return lam0


# one position set's measurement, shared by its record and its round;
# `dens` is the target's values on the quadrature, evaluated once a run
Cells = namedtuple("Cells", "partition graph masses dens")


def _measure(positions, metric, q, radius, dens):
    """Partition, neighbor graph and cell masses of one set of sites."""
    partition = build_partition(positions, q)
    graph = neighbor_graph(partition, metric, radius)
    return Cells(partition, graph, cell_masses(partition, dens), dens)


def transport_round(state, cfg, target, metric, q, cells=None):
    """One synchronous round of potential estimation and proximal moves.

    Uses the caller's `cells` of the positions, which keep to `q.domain`,
    measuring them itself when given none (evaluating the target), when
    `_dedupe` nudged an agent, or when their sites are not the positions.
    Estimates potentials with inner_iters primal-dual steps, or primal-only
    steps with every multiplier at cfg.fixed_dual when that is set, and
    moves every agent by a proximal step. Returns (new_state, diagnostics);
    a disconnected graph is reported in the diagnostics rather than raised.
    Potentials that diverge raise FloatingPointError, also when they are
    still finite but a gradient's norm overflows.
    """
    n = len(state.positions)
    if n < 2:
        raise ValueError("transport needs at least two agents")
    positions, perturbed = _dedupe(state, q.domain)
    if perturbed or cells is None or not np.array_equal(cells.partition.sites, positions):
        dens = target.values_on(q) if cells is None else cells.dens
        cells = _measure(positions, metric, q, cfg.radius, dens)
    graph = cells.graph
    b = mass_imbalance(cells.masses)

    # warm start: each agent starts from its own last potential (`_dedupe`
    # keeps agent order) and each surviving edge from its last multiplier
    phi0 = np.zeros(n) if state.inner is None else state.inner.phi
    fixed = cfg.fixed_dual is not None
    if fixed:
        lam0 = np.full(len(graph.edges), float(cfg.fixed_dual))
    else:
        lam0 = _carry(state.inner, graph.edges, n)
    solve = run_primal if fixed else run_pd
    inner = solve(PotentialState(phi0, lam0, graph.edges), b, graph, cfg.tau, cfg.inner_iters)

    grads = local_gradient(positions, inner.phi, graph)
    with np.errstate(over="ignore"):
        finite = np.all(np.isfinite(_row_norms(grads)))
    if not finite:
        # potentials so large that a gradient's norm overflows have diverged
        kind = "primal" if fixed else "primal-dual"
        raise FloatingPointError(f"{kind} iteration diverged; reduce tau")
    new_positions = proximal_step(positions, grads, cfg.eps, metric, q.domain)
    # the bits of metric.distance(positions[i], new_positions[i]) per agent
    step_lengths = metric.xi * _row_norms(positions - new_positions)

    cost = state.cost + float(step_lengths.sum() / n)
    new_state = SwarmState(new_positions, state.k + 1, cost, state.seed, inner)
    diagnostics = {
        "masses": cells.masses,
        "imbalance": b,
        "dual_objective": dual_objective(inner.phi, b),
        "feasibility_violation": feasibility_violation(inner.phi, graph),
        "connected": is_connected(graph),
        "isolated": np.flatnonzero(np.bincount(graph.edges.ravel(), minlength=n) == 0).tolist(),
        "perturbed": perturbed,
        "step_lengths": step_lengths,
    }
    return new_state, diagnostics


def run_experiment(positions, cfg, target, metric, q, seed=0):
    """Run cfg.rounds transport rounds of agents in `q.domain`.

    Returns (records, snapshots): one MetricsRecord per round index
    0..rounds, and per-round (k, positions, masses) tuples for position
    dumps. Row 0 describes the initial state; row k's dual objective and
    feasibility refer to the estimate computed during round k, and its
    connected flag to the communication graph that round used.
    """
    dens = target.values_on(q)
    state = SwarmState(positions=q.domain.clamp(positions), seed=seed)
    records, snapshots = [], []
    for k in range(cfg.rounds + 1):
        cells = _measure(state.positions, metric, q, cfg.radius, dens)
        if k == 0:
            estimate = (0.0, 0.0, is_connected(cells.graph))
        records.append(MetricsRecord(k, float(np.var(cells.masses)), state.cost, *estimate))
        snapshots.append((k, state.positions.copy(), cells.masses))
        if k < cfg.rounds:
            state, diag = transport_round(state, cfg, target, metric, q, cells)
            estimate = (diag["dual_objective"], diag["feasibility_violation"], diag["connected"])
    return records, snapshots
