"""Synchronous transport rounds: the outer multi-agent loop.

Each set of positions is measured once (Voronoi partition, neighbor
graph, cell masses) for both its record and the round that moves it.
A round estimates the Kantorovich potentials by a fixed number of
primal-dual (or primal-only) iterations and moves every agent by a
proximal step in its eps-ball along a local gradient of its neighbors'
potentials. Each agent keeps its own potential from round to round, and
its multipliers with the neighbors that survive.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

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

    prev_phi[i] is agent i's own potential from the last round, and
    prev_lam maps an agent pair (i, j) to its last multiplier.
    """

    positions: np.ndarray
    k: int = 0
    cost: float = 0.0
    seed: int = 0
    prev_phi: np.ndarray | None = None
    prev_lam: dict = field(default_factory=dict)

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.prev_phi is not None and np.shape(self.prev_phi) != (len(self.positions),):
            raise ValueError("prev_phi must hold one potential per agent")


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


def local_gradient(i, positions, phi, neighbors):
    """Gradient of the least-squares affine fit of neighborhood potentials.

    Fits phi over agent i and its neighbors; with a rank-deficient
    (collinear) neighborhood the minimum-norm solution restricts the
    gradient to the span of available directions. An isolated agent gets
    the zero vector; callers flag that case in their diagnostics.
    """
    neighbors = sorted(int(v) for v in neighbors)
    if not neighbors:
        return np.zeros(2)
    idx = [int(i)] + neighbors
    rel = positions[idx] - positions[int(i)]
    design = np.column_stack([np.ones(len(idx)), rel])
    coef, _, _, _ = np.linalg.lstsq(design, phi[idx], rcond=GRAD_RCOND)
    return coef[1:]


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
    seen = {}
    perturbed = []
    positions = domain.clamp(state.positions)
    for i, pos in enumerate(positions):
        key = (float(pos[0]), float(pos[1]))
        if key in seen:
            gen = SplitMix64(derive(state.seed, STREAM_PERTURB, state.k, i))
            angle = 2.0 * np.pi * gen.next_float()
            step = 1e-9 * np.array([np.cos(angle), np.sin(angle)])
            outside = (pos + step < domain.lo) | (pos + step > domain.hi)
            positions[i] = pos + np.where(outside, -step, step)
            perturbed.append(i)
        else:
            seen[key] = i
    return positions, perturbed


# one position set's measurement, shared by its record and its round;
# `dens` is the target's values on the quadrature, evaluated once a run
Cells = namedtuple("Cells", "partition graph masses dens")


def _measure(positions, target, metric, domain, q, radius, dens=None):
    """Partition, neighbor graph and cell masses of one set of sites."""
    if dens is None:
        dens = target.values_on(q)
    partition = build_partition(positions, metric, domain, q)
    graph = neighbor_graph(partition, metric, radius)
    return Cells(partition, graph, cell_masses(target, q, partition, dens), dens)


def transport_round(state, cfg, target, metric, domain, q, cells=None):
    """One synchronous round of potential estimation and proximal moves.

    Uses the caller's `cells` of the current positions, measuring them
    itself when given none, when `_dedupe` nudged an agent, or when
    their sites are not the positions. Estimates potentials with
    inner_iters primal-dual steps, or primal-only steps with every
    multiplier at cfg.fixed_dual when that is set, and moves every agent
    by a proximal step. Returns (new_state, diagnostics); a disconnected
    graph is reported in the diagnostics rather than raised.
    """
    n = len(state.positions)
    if n < 2:
        raise ValueError("transport needs at least two agents")
    positions, perturbed = _dedupe(state, domain)
    if perturbed or cells is None or not np.array_equal(cells.partition.sites, positions):
        dens = None if cells is None else cells.dens
        cells = _measure(positions, target, metric, domain, q, cfg.radius, dens)
    graph = cells.graph
    b = mass_imbalance(cells.masses)

    # warm start: each agent starts from its own last potential (`_dedupe`
    # keeps agent order) and each surviving edge from its last multiplier
    phi0 = np.zeros(n) if state.prev_phi is None else state.prev_phi
    edges = [tuple(e) for e in graph.edges.tolist()]
    fixed = cfg.fixed_dual is not None
    if fixed:
        lam0 = np.full(len(edges), float(cfg.fixed_dual))
    else:
        lam0 = np.array([state.prev_lam.get(e, 0.0) for e in edges], dtype=float)
    solve = run_primal if fixed else run_pd
    inner = solve(PotentialState(phi0, lam0, graph.edges), b, graph, cfg.tau, cfg.inner_iters)

    lists = graph.neighbor_lists()
    isolated = [i for i, l in enumerate(lists) if not l]
    grads = np.array([local_gradient(i, positions, inner.phi, l) for i, l in enumerate(lists)])
    new_positions = proximal_step(positions, grads, cfg.eps, metric, domain)
    # the bits of metric.distance(positions[i], new_positions[i]) per agent
    step_lengths = metric.xi * _row_norms(positions - new_positions)

    carried = {} if fixed else dict(zip(edges, inner.lam.tolist()))
    new_state = SwarmState(
        positions=new_positions,
        k=state.k + 1,
        cost=state.cost + float(step_lengths.sum() / n),
        seed=state.seed,
        prev_phi=inner.phi,
        prev_lam=carried,
    )
    diagnostics = {
        "masses": cells.masses,
        "imbalance": b,
        "dual_objective": dual_objective(inner.phi, b),
        "feasibility_violation": feasibility_violation(inner.phi, graph),
        "connected": is_connected(graph),
        "isolated": isolated,
        "perturbed": perturbed,
        "step_lengths": step_lengths,
    }
    return new_state, diagnostics


def run_experiment(positions, cfg, target, metric, domain, q, seed=0):
    """Run cfg.rounds transport rounds and collect per-round metrics.

    Returns (records, snapshots): one MetricsRecord per round index
    0..rounds, and per-round (k, positions, masses) tuples for position
    dumps. Row 0 describes the initial state; row k's dual objective and
    feasibility refer to the estimate computed during round k, and its
    connected flag to the communication graph that round used.
    """
    dens = target.values_on(q)
    state = SwarmState(positions=positions, seed=seed)
    state.positions = domain.clamp(state.positions)
    records, snapshots = [], []
    for k in range(cfg.rounds + 1):
        cells = _measure(state.positions, target, metric, domain, q, cfg.radius, dens)
        if k == 0:
            estimate = (0.0, 0.0, is_connected(cells.graph))
        records.append(MetricsRecord(k, float(np.var(cells.masses)), state.cost, *estimate))
        snapshots.append((k, state.positions.copy(), cells.masses))
        if k < cfg.rounds:
            state, diag = transport_round(state, cfg, target, metric, domain, q, cells)
            estimate = (diag["dual_objective"], diag["feasibility_violation"], diag["connected"])
    return records, snapshots
