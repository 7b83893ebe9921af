"""Synchronous transport rounds: the outer multi-agent loop.

Each round rebuilds the Voronoi partition and neighbor graph, runs a
fixed number of primal-dual (or primal-only) iterations to estimate the
Kantorovich potentials, reconstructs a local gradient per agent from
neighbor potentials, and moves every agent by a proximal step in its
eps-ball. Potentials and multipliers carry over between rounds.
"""

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
from .target import QuadratureGrid, cell_masses
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
    grad_tol: float = 1e-9
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
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.radius is not None and not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass
class SwarmState:
    """Agent positions plus the potential estimate carried across rounds."""

    positions: np.ndarray
    k: int = 0
    cost: float = 0.0
    seed: int = 0
    prev_sites: np.ndarray | None = None
    prev_phi: np.ndarray | None = None
    prev_lam: dict = field(default_factory=dict)

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))


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


def local_gradient(i, positions, phi, neighbors, grad_tol=1e-9):
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
    coef, _, _, _ = np.linalg.lstsq(design, phi[idx], rcond=grad_tol)
    return coef[1:]


def proximal_step(x, g, eps, metric, domain):
    """Minimize c(x, z) + g . (z - x) over the closed eps-ball at x.

    With the affine local model the minimizer is x itself while
    ||g|| <= xi (moving cannot pay off), and otherwise the ball-boundary
    point along -g, clamped into the domain.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    norm = float(np.sqrt(np.dot(g, g)))
    if norm <= metric.xi:
        return x.copy()
    return domain.clamp(x - (eps / metric.xi) * g / norm)


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


def _nearest_site(points, sites):
    """Index of the nearest site per point, ties to the lowest index."""
    d2 = ((points[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def transport_round(state, cfg, target, metric, domain, q=None, dens=None, partition=None, graph=None):
    """One synchronous round of potential estimation and proximal moves.

    Builds the partition and graph at the current positions (or reuses
    the caller's), estimates potentials with inner_iters primal-dual
    steps, or primal-only steps with every multiplier at cfg.fixed_dual
    when that is set, and moves every agent by a proximal step. Returns
    (new_state, diagnostics); a disconnected graph is reported in the
    diagnostics rather than raised.
    """
    n = len(state.positions)
    if n < 2:
        raise ValueError("transport needs at least two agents")
    if q is None:
        q = QuadratureGrid(domain, 256)
    positions, perturbed = _dedupe(state, domain)
    if perturbed or partition is None or not np.array_equal(partition.sites, positions):
        partition = build_partition(positions, metric, domain, q)
        graph = None
    if graph is None:
        graph = neighbor_graph(partition, metric, cfg.radius)
    if dens is None:
        dens = target.values_on(q)
    masses = cell_masses(target, q, partition, dens)
    b = mass_imbalance(masses)

    # warm start: evaluate the previous round's simple-function estimate
    # at the current sites, and keep multipliers on surviving edges
    if state.prev_phi is None:
        phi0 = np.zeros(n)
    else:
        phi0 = state.prev_phi[_nearest_site(positions, state.prev_sites)]
    if cfg.fixed_dual is not None:
        lam0 = np.full(len(graph.edges), float(cfg.fixed_dual))
    else:
        lam0 = np.array(
            [state.prev_lam.get((int(a), int(b)), 0.0) for a, b in graph.edges]
        )
    inner = PotentialState(phi0, lam0, graph.edges)
    if cfg.fixed_dual is not None:
        inner = run_primal(inner, b, graph, cfg.tau, cfg.inner_iters)
    else:
        inner = run_pd(inner, b, graph, cfg.tau, cfg.inner_iters)

    lists = graph.neighbor_lists()
    new_positions = np.empty_like(positions)
    step_lengths = np.empty(n)
    isolated = []
    for i in range(n):
        if not lists[i]:
            isolated.append(i)
        grad = local_gradient(i, positions, inner.phi, lists[i], cfg.grad_tol)
        new_positions[i] = proximal_step(positions[i], grad, cfg.eps, metric, domain)
        step_lengths[i] = metric.distance(positions[i], new_positions[i])

    carried = {} if cfg.fixed_dual is not None else {
        (int(a), int(b)): float(v) for (a, b), v in zip(graph.edges, inner.lam)
    }
    new_state = SwarmState(
        positions=new_positions,
        k=state.k + 1,
        cost=state.cost + float(step_lengths.sum() / n),
        seed=state.seed,
        prev_sites=positions,
        prev_phi=inner.phi,
        prev_lam=carried,
    )
    diagnostics = {
        "masses": masses,
        "imbalance": b,
        "dual_objective": dual_objective(inner.phi, b),
        "feasibility_violation": feasibility_violation(inner.phi, graph),
        "connected": is_connected(graph),
        "isolated": isolated,
        "perturbed": perturbed,
        "step_lengths": step_lengths,
    }
    return new_state, diagnostics


def transport_round_fixed_dual(state, cfg, target, metric, domain, q=None, dens=None, partition=None, graph=None):
    """transport_round for a config that must carry a fixed dual weight."""
    if cfg.fixed_dual is None:
        raise ValueError("fixed-dual round requires cfg.fixed_dual")
    return transport_round(state, cfg, target, metric, domain, q, dens, partition, graph)


def run_experiment(positions, cfg, target, metric, domain, q=None, seed=0):
    """Run cfg.rounds transport rounds and collect per-round metrics.

    Returns (records, snapshots): one MetricsRecord per round index
    0..rounds, and per-round (k, positions, masses) tuples for position
    dumps. Row 0 describes the initial state; row k's dual objective and
    feasibility refer to the estimate computed during round k, and its
    connected flag to the communication graph that round used.
    """
    if q is None:
        q = QuadratureGrid(domain, 256)
    dens = target.values_on(q)
    state = SwarmState(positions=positions, seed=seed)
    state.positions = domain.clamp(state.positions)

    partition = build_partition(state.positions, metric, domain, q)
    graph = neighbor_graph(partition, metric, cfg.radius)
    masses = cell_masses(target, q, partition, dens)
    records = [
        MetricsRecord(0, float(np.var(masses)), 0.0, 0.0, 0.0, is_connected(graph))
    ]
    snapshots = [(0, state.positions.copy(), masses)]

    for k in range(1, cfg.rounds + 1):
        state, diag = transport_round(
            state, cfg, target, metric, domain, q, dens, partition, graph
        )
        partition = build_partition(state.positions, metric, domain, q)
        graph = neighbor_graph(partition, metric, cfg.radius)
        masses = cell_masses(target, q, partition, dens)
        records.append(
            MetricsRecord(
                k,
                float(np.var(masses)),
                state.cost,
                diag["dual_objective"],
                diag["feasibility_violation"],
                diag["connected"],
            )
        )
        snapshots.append((k, state.positions.copy(), masses))
    return records, snapshots
