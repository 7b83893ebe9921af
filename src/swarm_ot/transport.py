"""Synchronous transport rounds: the outer multi-agent loop.

Each set of positions is measured once (Voronoi partition, neighbor
graph, cell masses) for both its record and the round that moves it.
A round estimates the Kantorovich potentials by a fixed number of
primal-dual (or primal-only) iterations and moves every agent by a
proximal step in its eps-ball along a local gradient of its neighbors'
potentials. One `PotentialState` carries each agent's potential to the next
round, and each multiplier to the edge of the same ordered pair (i, j).

The local gradients of a round are one batched closed-form fit: each
agent's affine model solves 2 x 2 normal equations whose sums are
`np.bincount`s over the edges, so a round calls no LAPACK and no BLAS,
and its bits do not depend on the CPU's SIMD or BLAS kernels.

A round is a nearest-neighbor protocol: with n inner iterations, an
agent's new position and potential read only agents within n + 2 hops
of it. `_dedupe` seeds each nudge by (seed, k, i), which an agent can do
alone, and `is_connected` is a diagnostic that moves nobody.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geometry import lengths
from .primal_dual import (
    DivergenceError,
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

    eps bounds each move's Euclidean length; tau is the inner step size;
    inner_iters is the number of potential-estimation iterations per
    round; rounds is the outer horizon. fixed_dual switches the inner
    loop to primal-only with that constant multiplier on every edge.
    radius optionally limits communication range, as a Euclidean distance.
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
    edges join agents 0..N-1, as `PotentialState` checks against its one
    potential per agent, so the key i * N + j names one pair alone.
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


# rcond of the gradient fit, on the singular values of the design
# [1, x_j - x_i] as in `np.linalg.lstsq`: a neighborhood whose smallest
# value falls below GRAD_RCOND times its largest counts as collinear.
# The centred scatter's eigenvalues are those values squared, so the fit
# tests lambda_min <= GRAD_RCOND**2 * lambda_max. The computed lambda_min
# of a collinear scatter is rounding, up to a few eps * lambda_max, so
# GRAD_RCOND**2 = 1e-12 sits well above it and far below any
# neighborhood with a width of its own.
GRAD_RCOND = 1e-6


def local_gradient(positions, phi, graph):
    """Gradients of the least-squares affine fits of neighborhood potentials.

    Row i fits phi over agent i and its neighbors on `graph` and returns
    the fit's slope: the solution of the centred 2 x 2 normal equations
    S g = r, where S sums (x_j - m_i)(x_j - m_i)^T and r sums
    (x_j - m_i)(phi_j - p_i) over the neighborhood, about its means m_i
    and p_i. Offsets and potentials are taken relative to agent i, which
    shifts neither S nor r. A collinear neighborhood (see `GRAD_RCOND`)
    lies on a line through x_i and gets the minimum-norm slope, the one
    along the line's direction, as `np.linalg.lstsq` would give; an
    isolated agent gets the zero vector, and callers flag that case in
    their diagnostics.

    All agents are fitted at once: every sum is one `np.bincount` over
    both directions of the edges, so the fit is IEEE arithmetic and
    rounds the same on any CPU. Non-finite potentials give non-finite
    gradients rather than an error.
    """
    n = graph.n
    agent = graph.edges.ravel()
    other = graph.edges[:, ::-1].ravel()  # each edge from both of its ends

    def per_agent(weights):
        return np.bincount(agent, weights=weights, minlength=n).astype(float, copy=False)

    size = per_agent(None) + 1.0  # the agent's own point is in its fit
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = positions[other] - positions[agent]
        v = phi[other] - phi[agent]
        mx, my, mv = per_agent(u[:, 0]) / size, per_agent(u[:, 1]) / size, per_agent(v) / size
        # deviations from the means; the agent's own one is (-mx, -my, -mv)
        dx, dy, dv = u[:, 0] - mx[agent], u[:, 1] - my[agent], v - mv[agent]
        sxx = per_agent(dx * dx) + mx * mx
        sxy = per_agent(dx * dy) + mx * my
        syy = per_agent(dy * dy) + my * my
        rx = per_agent(dx * dv) + mx * mv
        ry = per_agent(dy * dv) + my * mv

        det = sxx * syy - sxy * sxy
        full = np.column_stack([syy * rx - sxy * ry, sxx * ry - sxy * rx]) / det[:, None]
        # the principal axis w, from the larger diagonal entry's row of
        # S - lambda_max I, and the slope along it: w (w . r) / (|w|^2 lambda_max)
        top = 0.5 * (sxx + syy) + np.sqrt(0.25 * (sxx - syy) ** 2 + sxy * sxy)
        wide = sxx >= syy
        w = np.column_stack([np.where(wide, top - syy, sxy), np.where(wide, sxy, top - sxx)])
        along = w * ((w[:, 0] * rx + w[:, 1] * ry) / ((w[:, 0] ** 2 + w[:, 1] ** 2) * top))[:, None]
        collinear = det <= GRAD_RCOND**2 * top * top
        grads = np.where(collinear[:, None], along, full)
    # no spread at all: an isolated agent, or neighbors on its own point
    grads[top == 0.0] = 0.0
    return grads


def proximal_step(x, g, eps, domain):
    """Minimize ||z - x|| + g . (z - x) over the closed eps-ball at x.

    With the affine local model the minimizer is x itself while
    ||g|| <= 1 (moving cannot pay off), and otherwise the ball-boundary
    point along -g, clamped into the domain. `x` and `g` are one (2,)
    point and gradient or (N, 2) batches of them.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    norm = lengths(g)[..., None]
    stay = norm <= 1.0
    step = eps * g / np.where(stay, 1.0, norm)
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
        # a graph's edges are distinct pairs, so its keys are unique
        _, at, src = np.intersect1d(
            edges @ [n, 1], inner.edges @ [n, 1], assume_unique=True, return_indices=True
        )
        lam0[at] = inner.lam[src]
    return lam0


# one position set's measurement, shared by its record and its round
Cells = namedtuple("Cells", "partition graph masses")


def _measure(positions, q, radius, dens):
    """Partition, neighbor graph and cell masses of one set of sites."""
    partition = build_partition(positions, q)
    graph = neighbor_graph(partition, radius)
    return Cells(partition, graph, cell_masses(partition, dens))


def transport_round(state, cfg, dens, q, cells=None):
    """One synchronous round of potential estimation and proximal moves.

    `dens` is the target's `values_on(q)`. Uses the caller's `cells` of
    the positions, which keep to `q.domain`, measuring them itself when
    given none, when `_dedupe` nudged an agent, or when their sites are
    not the positions.
    Estimates potentials with inner_iters primal-dual steps, or primal-only
    steps with every multiplier at cfg.fixed_dual when that is set, and
    moves every agent by a proximal step. Returns (new_state, diagnostics);
    a disconnected graph is reported in the diagnostics rather than raised.
    Potentials that diverge raise DivergenceError (a FloatingPointError),
    also when they are still finite but a gradient's norm overflows.
    """
    n = len(state.positions)
    if n < 2:
        raise ValueError("transport needs at least two agents")
    positions, perturbed = _dedupe(state, q.domain)
    if perturbed or cells is None or not np.array_equal(cells.partition.sites, positions):
        cells = _measure(positions, q, cfg.radius, dens)
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
        finite = np.all(np.isfinite(lengths(grads)))
    if not finite:
        # potentials so large that a gradient's norm overflows have diverged
        raise DivergenceError.of(not fixed)
    new_positions = proximal_step(positions, grads, cfg.eps, q.domain)
    step_lengths = lengths(positions - new_positions)

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


def run_experiment(positions, cfg, dens, q, sink, seed=0):
    """Run cfg.rounds transport rounds of agents in `q.domain` toward the
    target whose `values_on(q)` are `dens`; return the final state.

    Calls `sink(state, cells, record)` for round 0 and after every round,
    as `grid.run_coupled` does, and keeps no list: `cells` is the state's
    measurement and `record` its MetricsRecord. Record 0 describes the
    initial state; record k's dual objective and feasibility refer to the
    estimate computed during round k, and its connected flag to the graph
    that round used. A sink may keep the state and `cells.masses`, but
    not `cells`, whose partition is quadrature-sized.
    """
    state = SwarmState(positions=q.domain.clamp(positions), seed=seed)
    for k in range(cfg.rounds + 1):
        cells = _measure(state.positions, q, cfg.radius, dens)
        if k == 0:
            estimate = (0.0, 0.0, is_connected(cells.graph))
        sink(state, cells, MetricsRecord(k, float(np.var(cells.masses)), state.cost, *estimate))
        if k < cfg.rounds:
            state, diag = transport_round(state, cfg, dens, q, cells)
            estimate = (diag["dual_objective"], diag["feasibility_violation"], diag["connected"])
    return state
