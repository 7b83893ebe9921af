"""Grid discretization of the continuous-limit transport system.

Densities and potentials live on grid nodes, multipliers on 4-neighbor
edges, and every spatial operator is the weighted graph Laplacian, so
transport fluxes are antisymmetric per edge and total mass is conserved
to machine precision. Time stepping is explicit Euler with a hard
positivity check (an error, never a clamp).

The potential flow is the agents' primal-dual kernel `iterate` on the
grid's edges with imbalance b = rho - rho_star and edge cost c = `cost`;
transport and stationarity use its operator `laplacian`. The grid's edge
list comes from `grid_edges` and knows its shape, so the kernel runs on
it as a 2-D stencil on row slabs, bit-identical to its gather-and-bincount
path on an agent graph; on a large grid the slabs run in `threads`
threads, to the same bits.

A state holds its arrays and nothing else. The grid loop computes each
outer step's L phi once, for the transport step and the record. A
record reads the edge terms of the state's potential (`EdgeTerms.of`:
phi_i - phi_j, its square, the slack | |phi_i - phi_j| - cost | and the
largest excess), and L phi can read their edge differences. In
inner_steady_state phi is fixed for the whole run, so the loop builds
its edge terms once per run, not once per record. The record's sums
are `einsum` reductions, which unlike BLAS dot products give the same
bits under any thread count.

`run_coupled` is the one time loop, which every grid command drives
(`pde` and figs 4-6): it counts a run's steps (`step_count`), steps
every mode, takes the `lyapunov` records and hands each state with its
record, if any, to the caller's sink, keeping none.

The stationary solve with unit multipliers needs no sparse solver: the
2-D DCT-II diagonalizes the grid's Laplacian (Neumann boundary), so it
is a closed-form spectral solve by FFT in numpy alone. It is the whole
inner solve of inner_steady_state, which never iterates.
"""

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .primal_dual import edge_diff, grid_edges, iterate, laplacian
from .rng import STREAM_DENSITY, SplitMix64, derive
from .target import QuadratureGrid

RASTER_FLOOR = 1e-6  # density_on_grid's lower bound on raster values


class PositivityError(ValueError):
    """An explicit transport step would make the density nonpositive.

    `transport_step` raises it bare. Leaving `run_coupled`, it also
    carries `t`, the time of the last completed step; the states and
    records before the stop have already gone to the run's sink, so a
    caller keeps a partial run by keeping what its sink was given.
    """


class GridState:
    """Densities, potentials, and edge multipliers on a rectangular grid.

    States are values: a step returns a shallow copy that rebinds only
    the arrays it computes and shares the rest, so arrays are shared
    and never written in place. The edge list is read-only.
    """

    def __init__(self, nx, ny, rho, phi=None, lam=None, cost=1.0, dt=1e-3, t=0.0):
        self.nx = int(nx)
        self.ny = int(ny)
        n = self.nx * self.ny
        self.edges = grid_edges(self.nx, self.ny)
        self.edges.flags.writeable = False
        self.rho = np.asarray(rho, dtype=float).copy()
        if self.rho.shape != (n,):
            raise ValueError(f"rho must have {n} entries")
        if not np.all(self.rho > 0):
            raise ValueError("density must be strictly positive")
        if abs(float(self.rho.sum()) - 1.0) > 1e-9:
            raise ValueError("density must sum to one")
        self.phi = np.zeros(n) if phi is None else np.asarray(phi, dtype=float).copy()
        self.lam = (
            np.zeros(len(self.edges)) if lam is None else np.asarray(lam, dtype=float).copy()
        )
        if self.phi.shape != (n,) or self.lam.shape != (len(self.edges),):
            raise ValueError("phi/lam shapes do not match the grid")
        if not np.all(self.lam >= 0):
            raise ValueError("multipliers must be nonnegative")
        if not cost > 0:
            raise ValueError("edge cost must be positive")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.cost = float(cost)
        self.dt = float(dt)
        self.t = float(t)

    def node_xy(self, i):
        return int(i) % self.nx, int(i) // self.nx


class EdgeTerms(NamedTuple):
    """What a record needs of a potential on the edges, lam aside."""

    dphi: np.ndarray  # phi_i - phi_j, the operand of L phi
    sq: np.ndarray  # dphi * dphi, the bits of |dphi| * |dphi|, for E
    slack: np.ndarray  # | |dphi| - cost |, for the slackness residual
    feasibility: float  # the largest excess |dphi| - cost, at least 0

    @classmethod
    def of(cls, s):
        """The terms of s.phi at s.cost: three edge-sized arrays and no temporary."""
        dphi = edge_diff(s.phi, s.edges)
        slack = np.abs(dphi)
        slack -= s.cost
        feasibility = float(slack.max(initial=0.0))
        return cls(dphi, dphi * dphi, np.abs(slack, out=slack), feasibility)


@dataclass
class KKTResidual:
    """How far a state sits from the transport optimality conditions."""

    stationarity: float
    feasibility: float
    slackness: float
    dual_feasibility: float


@dataclass
class LyapunovReport:
    """Per-step diagnostics of the coupled run."""

    t: float
    V: float
    E: float
    kkt: KKTResidual
    mass_error: float


def _flow_step(s, rho_star, n, dual, threads):
    out = copy.copy(s)
    with np.errstate(all="ignore"):
        out.phi, out.lam = iterate(
            s.phi, s.lam, s.rho - rho_star, s.edges, 0.5 * s.cost**2, s.dt, n, dual, threads
        )
    return out


def pd_flow_step(s, rho_star, n=1, threads=1):
    """n explicit Euler steps, each of length s.dt, of the primal-dual flow (rho untouched).

    phi ascends the divergence of lam grad phi plus the imbalance;
    lam follows the constraint violation with the rate projected so
    multipliers never leave the nonnegative cone. rho - rho_star is
    constant over the steps, so one call gives the bits of n calls.
    `threads` is `iterate`'s: any count gives the same bits.
    """
    return _flow_step(s, rho_star, n, True, threads)


def relaxed_primal_step(s, rho_star, n=1, threads=1):
    """n primal flow steps with the multipliers held at s.lam."""
    return _flow_step(s, rho_star, n, False, threads)


def transport_step(s, lap=None):
    """Advect the density by the edge fluxes lam (phi_j - phi_i).

    Antisymmetric per-edge fluxes keep the total mass exactly conserved.
    A step that would make any node nonpositive (or NaN) is an error, not
    a clamp: a PositivityError naming the node, its density after the
    step and its outflow dt (L phi)_i. A smaller dt does not move such
    stops, since the coupled flow itself reaches rho = 0; more inner
    steps per transport step (a larger `grid.n`) avoided the ones
    measured (ROADMAP item 12), so the message names that lever alone.
    `lap` is the state's L phi, laplacian(s.phi, s.lam, s.edges), when
    the caller holds it; without it the step computes it, to the same bits.
    """
    if lap is None:
        lap = laplacian(s.phi, s.lam, s.edges)
    out = copy.copy(s)
    out.rho = s.rho - s.dt * lap
    if not np.all(out.rho > 0):
        node = int(np.argmin(out.rho))
        x, y = s.node_xy(node)
        raise PositivityError(
            f"transport step made the density nonpositive or NaN at node ({x},{y}): density "
            f"{out.rho[node]:.3e} after the step, outflow dt*(L phi)_i = {s.dt * lap[node]:.3e}; "
            "a larger grid.n (more inner steps per transport step) can avoid it"
        )
    out.t = s.t + s.dt
    return out


def kkt_residual(s, rho_star):
    """Residuals of stationarity, feasibility, and slackness (see `lyapunov`).

    Kept while `bench/child.py` patches it; ROADMAP item 1 removes it with its metric.
    """
    return lyapunov(s, rho_star).kkt


def lyapunov(s, rho_star, terms=None, lap=None):
    """V, E, KKT residuals, and the mass conservation error of a state.

    The `EdgeTerms` of the state's potential give E, feasibility and
    slackness, and the stationarity reads its L phi. A caller that holds
    them passes `terms` (`EdgeTerms.of(s)`) and `lap` (laplacian(s.phi,
    s.lam, s.edges)); the record computes what it is not given, L phi
    from the edge differences of its terms, to the same bits.
    dual_feasibility reports the smallest multiplier: unlike the other
    KKT fields it is a position, not a violation magnitude.
    """
    err = s.rho - rho_star
    V = 0.5 * float(np.einsum("i,i->", err, err))
    del err  # freed before the terms take their memory: see `run_coupled`
    if terms is None:
        terms = EdgeTerms.of(s)
    E = 0.5 * float(np.einsum("i,i->", s.lam, terms.sq)) + V
    if lap is None:
        lap = laplacian(s.phi, s.lam, s.edges, terms.dphi)
    kkt = KKTResidual(
        float(np.abs(s.rho - lap - rho_star).max()),
        terms.feasibility,
        float((s.lam * terms.slack).max(initial=0.0)),
        float(s.lam.min()) if len(s.lam) else 0.0,
    )
    return LyapunovReport(s.t, V, E, kkt, abs(float(s.rho.sum()) - 1.0))


def density_error(s, rho_star):
    """L2 distance of the density from the target, sqrt(2V)."""
    err = s.rho - rho_star
    return float(np.sqrt(np.einsum("i,i->", err, err)))


def random_density(nx, ny, seed):
    """Seeded positive density: uniform random node values, normalized."""
    gen = SplitMix64(derive(seed, STREAM_DENSITY))
    u = gen.uniforms(nx * ny)
    u = np.maximum(u, 2.0**-53)
    return u / u.sum()


def density_on_grid(field, nx, ny):
    """Sample a density field onto an nx x ny grid of `field.domain`.

    Reads the field at the cell centers of `QuadratureGrid(field.domain,
    nx, ny)`, the grid's nodes, and returns node masses summing to one.
    Raster fields are floored at RASTER_FLOOR first, so the target stays
    strictly positive on the grid.
    """
    vals = field._raw_on(QuadratureGrid(field.domain, nx, ny))
    if field.kind == "raster":
        vals = np.maximum(vals, RASTER_FLOOR)
    total = vals.sum()
    if total <= 0:
        raise ValueError("degenerate target on the grid")
    vals /= total
    return vals


def _dct(x):
    """Unnormalized DCT-II along the last axis, by FFT of the even extension.

    Returns C_k = 2 sum_j x_j cos(pi k (2j + 1) / 2n) for k < n.
    """
    n = x.shape[-1]
    y = np.fft.rfft(np.concatenate([x, x[..., ::-1]], axis=-1))[..., :n]
    return (y * np.exp(-0.5j * np.pi * np.arange(n) / n)).real


def _idct(c):
    """Inverse of `_dct` along the last axis (irfft of the even extension)."""
    n = c.shape[-1]
    return np.fft.irfft(c * np.exp(0.5j * np.pi * np.arange(n) / n), 2 * n)[..., :n]


def steady_potentials(s, rho_star):
    """Stationary (phi, lam) pair with unit multipliers.

    Solves the graph-Laplacian system div(grad phi) = rho_star - rho
    (node 0 pinned; potentials are defined up to a constant). The 2-D
    DCT-II diagonalizes the grid's 4-neighbor Laplacian, with eigenvalue
    (2 - 2 cos(pi k / nx)) + (2 - 2 cos(pi l / ny)) at mode (k, l), so
    the solve transforms the imbalance, divides by the eigenvalues with
    the constant mode set to 0, and transforms back: O(nx ny log(nx ny)) time
    and O(nx ny) memory. The pair inner_steady_state starts from and
    keeps, in place of integrating the slow primal-dual ramp-up.
    """
    b = (s.rho - rho_star).reshape(s.ny, s.nx)
    c = _dct(_dct(b).T)  # (nx, ny): mode (k, l) at [k, l]
    ev = (2 - 2 * np.cos(np.pi * np.arange(s.nx) / s.nx))[:, None] + (
        2 - 2 * np.cos(np.pi * np.arange(s.ny) / s.ny)
    )
    ev[0, 0] = np.inf  # the constant mode
    phi = _idct(_idct(c / ev).T).ravel()
    return phi - phi[0], np.ones(len(s.edges))


def saturated_potentials(s, rho_star):
    """Stationary pair rescaled so the steepest edge meets the cost.

    The uniform-multiplier stationary pairs form a one-parameter family
    (a lam, phi / a), all of which balance the imbalance exactly. This
    picks the member whose largest potential gap equals the edge cost:
    it is stationary and feasible at once, which makes it the natural
    warm start for a coupled primal-dual run. With rho already at the
    target there is nothing to transport and the zero pair is returned.
    """
    phi, lam = steady_potentials(s, rho_star)
    gap = float(np.abs(edge_diff(phi, s.edges)).max()) if len(s.edges) else 0.0
    if gap == 0.0:
        return phi, np.zeros_like(lam)
    scale = gap / s.cost
    return phi / scale, lam * scale


def step_count(horizon, dt):
    """Outer steps of a run to `horizon`: round(horizon / dt).

    A ValueError unless that is a finite count >= 0, so an infinite,
    NaN or negative horizon never starts a run.
    """
    steps = horizon / dt
    if not 0 <= steps < math.inf:
        raise ValueError(f"horizon must be finite and >= 0 in steps of dt={dt}, got {horizon}")
    return int(round(steps))


MODES = ("on_the_fly_pd", "on_the_fly_fixed", "inner_steady_state")  # of run_coupled, grid.mode


def run_coupled(
    s, rho_star, mode, sink, inner_n=1, horizon=1.0, lam_fixed=1.0, record_every=1, threads=1
):
    """The one grid loop: step from t = 0 to the horizon and return the final state.

    `sink(state, report)` is called with the initialized state, then
    with the state after each of `step_count(horizon, dt)` outer steps.
    `report` is the state's `lyapunov` record at t = 0, at every
    record_every-th step and at the last step, and None for every other
    state. No record is kept here, so a run's memory does not grow with
    its horizon. A PositivityError that stops the run leaves with `t`,
    the time of the last completed step, set; the records before the
    stop are the ones the sink was given.

    Modes:
      on_the_fly_pd     - inner_n primal-dual flow steps per transport step
      on_the_fly_fixed  - inner_n primal-only steps with lam == lam_fixed
      inner_steady_state- the inner flow held at its stationary point

    The on-the-fly modes take an outer step's inner_n steps in one
    `pd_flow_step` or `relaxed_primal_step` call, which splits a large
    grid's rows across `threads` threads (see `iterate`); the bits do
    not depend on the count.

    inner_steady_state takes no inner steps. It starts from the
    closed-form stationary pair of `steady_potentials`, and after each
    transport step, which scales the imbalance by (1 - dt), it rescales
    the multipliers by (1 - dt) too, which keeps the pair stationary
    exactly (records show kkt stationarity near 1e-16). A dt above 1
    would make the multipliers negative, so this mode rejects it (a
    ValueError).

    A diverging run shows up as a non-finite density, which the
    positivity check of `transport_step` stops, so each outer step and
    its record run with numpy's floating-point warnings off. The sink
    runs outside that setting, under its caller's.

    The previous state lives until its transport step is taken, just
    before the record, whose temporaries then reuse its memory; a sink
    must not keep the state it is given. Freed any earlier, or held
    through the record, a large grid's arrays go back to the system and
    are faulted in again every step: on a 256² `on_the_fly_pd` run, 17
    times the page faults and about 9% more time (2-core x86-64 VM).

    Each outer step computes L phi once, and its transport step and its
    record both read it. An inner_steady_state run builds the `EdgeTerms`
    of its phi once, since phi never changes, and every L phi and record
    reads them. An on-the-fly record builds its own terms after the
    previous state is freed and drops them when it returns. Kept through
    the next inner steps, which rebind phi, they would hold three dead
    edge-sized arrays at the run's peak: on the 256² `pde_pd256` run,
    3.4 MiB more peak RSS (48.8 against 45.4 MiB, 2-core x86-64 VM). The
    record also frees its density residual before it builds the terms:
    with both alive, that run's peak RSS read 45.7 against 45.3 MiB.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    steady = mode == "inner_steady_state"
    if not steady and inner_n < 1:
        raise ValueError("on-the-fly modes need at least one inner step")
    if steady and s.dt > 1:
        raise ValueError("inner_steady_state needs dt <= 1: it rescales multipliers by 1 - dt")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    steps = step_count(horizon, s.dt)
    rho_star = np.asarray(rho_star, dtype=float)
    s = copy.copy(s)
    if mode == "on_the_fly_fixed":
        if not lam_fixed > 0:
            raise ValueError("fixed dual weight must be positive")
        s.lam = np.full(len(s.edges), float(lam_fixed))
    terms = lap = None  # on the fly, phi is new at every outer step
    if steady:
        s.phi, s.lam = steady_potentials(s, rho_star)
        terms = EdgeTerms.of(s)  # phi is fixed for the whole run
        lap = laplacian(s.phi, s.lam, s.edges, terms.dphi)
    inner_step = pd_flow_step if mode == "on_the_fly_pd" else relaxed_primal_step

    sink(s, lyapunov(s, rho_star, terms, lap))
    for step in range(1, steps + 1):
        prev = s  # released once transported: see the docstring
        with np.errstate(all="ignore"):
            if not steady:
                s = inner_step(s, rho_star, inner_n, threads)
                lap = laplacian(s.phi, s.lam, s.edges)
            try:
                s = transport_step(s, lap)
            except PositivityError as exc:
                exc.t = prev.t
                raise
            del prev
            if steady:
                s.lam = s.lam * (1.0 - s.dt)
                lap = laplacian(s.phi, s.lam, s.edges, terms.dphi)
            recorded = step % record_every == 0 or step == steps
            report = lyapunov(s, rho_star, terms, lap) if recorded else None
        sink(s, report)
    return s
