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
it as a 2-D stencil, bit-identical to its gather-and-bincount path on an
agent graph. A state computes L phi at most once (`GridState.lap_phi`),
and the record and the transport step share it.
A record takes the state's edge differences once, and its sums are
`einsum` reductions, which unlike BLAS dot products give the same bits
under any thread count.

`coupled_states` is the one time loop: it counts a run's steps
(`step_count`), steps every mode and takes the `lyapunov` records;
`run_coupled` (the `pde` command, figs 5 and 6) collects them, and
fig 4 reads its density snapshots off the same loop.

The stationary solve with unit multipliers needs no sparse solver: the
2-D DCT-II diagonalizes the grid's Laplacian (Neumann boundary), so it
is a closed-form spectral solve by FFT in numpy alone. It is the whole
inner solve of inner_steady_state, which never iterates.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from .primal_dual import edge_diff, grid_edges, iterate, laplacian
from .rng import STREAM_DENSITY, SplitMix64, derive


class PositivityError(ValueError):
    """An explicit transport step would make the density nonpositive.

    `transport_step` raises it bare. Leaving `run_coupled`, it also
    carries `reports`, the records taken before the stop, and `t`, the
    time of the last completed step, so a caller can keep a partial run.
    """


class GridState:
    """Densities, potentials, and edge multipliers on a rectangular grid.

    States are values: a step returns a shallow copy that rebinds only
    the arrays it computes and shares the rest, so arrays are shared
    and never written in place. The edge list is read-only.
    """

    _lap_memo = None  # (phi, lam, L phi) of the last lap_phi() call

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

    def lap_phi(self):
        """L phi = laplacian(phi, lam), computed once per (phi, lam) pair.

        Keyed on the identity of the two arrays, which states never
        write in place: rebinding either one recomputes it.
        """
        memo = self._lap_memo
        if memo is None or memo[0] is not self.phi or memo[1] is not self.lam:
            memo = self._lap_memo = (self.phi, self.lam, laplacian(self.phi, self.lam, self.edges))
        return memo[2]


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


def pd_flow_step(s, rho_star):
    """One explicit Euler step, of length s.dt, of the primal-dual flow (rho untouched).

    phi ascends the divergence of lam grad phi plus the imbalance;
    lam follows the constraint violation with the rate projected so
    multipliers never leave the nonnegative cone.
    """
    out = copy.copy(s)
    out.phi, out.lam = iterate(s.phi, s.lam, s.rho - rho_star, s.edges, 0.5 * s.cost**2, s.dt, 1)
    return out


def relaxed_primal_step(s, rho_star):
    """Primal flow step with the multipliers held at s.lam."""
    out = copy.copy(s)
    out.phi, _ = iterate(s.phi, s.lam, s.rho - rho_star, s.edges, 0.5 * s.cost**2, s.dt, 1, dual=False)
    return out


def transport_step(s):
    """Advect the density by the edge fluxes lam (phi_j - phi_i).

    Antisymmetric per-edge fluxes keep the total mass exactly conserved.
    A step that would make any node nonpositive (or NaN) is an error
    naming the node (a PositivityError): reduce dt rather than clamping.
    The new state keeps phi and lam, and with them the L phi computed here.
    """
    lap = s.lap_phi()
    out = copy.copy(s)
    out.rho = s.rho - s.dt * lap
    if not np.all(out.rho > 0):
        node = int(np.argmin(out.rho))
        x, y = s.node_xy(node)
        raise PositivityError(
            f"transport step made the density nonpositive or NaN at node ({x},{y}); reduce dt"
        )
    out.t = s.t + s.dt
    return out


def stationarity(s, rho_star):
    """Largest node residual of rho - div(lam grad phi) = rho_star."""
    return float(np.abs(s.rho - s.lap_phi() - rho_star).max())


def kkt_residual(s, rho_star):
    """Residuals of stationarity, feasibility, and slackness (see `lyapunov`)."""
    return lyapunov(s, rho_star).kkt


def lyapunov(s, rho_star):
    """V, E, KKT residuals, and the mass conservation error of a state.

    The gaps |phi_i - phi_j|, taken once, give E, feasibility and
    slackness. dual_feasibility reports the smallest multiplier: unlike
    the other KKT fields it is a position, not a violation magnitude.
    """
    err = s.rho - rho_star
    V = 0.5 * float(np.einsum("i,i->", err, err))
    gaps = np.abs(edge_diff(s.phi, s.edges))
    E = 0.5 * float(np.einsum("i,i->", s.lam, gaps * gaps)) + V
    over = gaps - s.cost
    kkt = KKTResidual(
        stationarity(s, rho_star),
        float(over.max(initial=0.0)),
        float((s.lam * np.abs(over)).max(initial=0.0)),
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


def density_on_grid(field, nx, ny, floor=1e-6):
    """Sample a density field onto an nx x ny grid of `field.domain`.

    Returns node masses summing to one. Raster fields are floored before
    normalization so the target stays strictly positive on the whole grid.
    """
    lo, ext = field.domain.lo, field.domain.extent
    xs = lo[0] + (np.arange(nx) + 0.5) * ext[0] / nx
    ys = lo[1] + (np.arange(ny) + 0.5) * ext[1] / ny
    X, Y = np.meshgrid(xs, ys)
    vals = field._raw_many(np.column_stack([X.ravel(), Y.ravel()]))
    if field.kind == "raster":
        vals = np.maximum(vals, floor)
    total = vals.sum()
    if total <= 0:
        raise ValueError("degenerate target on the grid")
    return vals / total


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


MODES = ("on_the_fly_pd", "on_the_fly_fixed", "inner_steady_state")  # of coupled_states, grid.mode


def coupled_states(s, rho_star, mode, inner_n=1, horizon=1.0, lam_fixed=1.0, record_every=1):
    """The one grid loop: (state, report) from t = 0 to the horizon.

    Yields the initialized state, then the state after each of
    `step_count(horizon, dt)` outer steps. `report` is the state's
    `lyapunov` record at t = 0, at every record_every-th step and at the
    last step, and None for every other state.

    Modes:
      on_the_fly_pd     - inner_n primal-dual flow steps per transport step
      on_the_fly_fixed  - inner_n primal-only steps with lam == lam_fixed
      inner_steady_state- the inner flow held at its stationary point

    inner_steady_state takes no inner steps. It starts from the
    closed-form stationary pair of `steady_potentials`, and after each
    transport step, which scales the imbalance by (1 - dt), it rescales
    the multipliers by (1 - dt) too, which keeps the pair stationary
    exactly (records show kkt stationarity near 1e-16). A dt above 1
    would make the multipliers negative, so this mode rejects it (a
    ValueError).

    A diverging run shows up as a non-finite density, which the
    positivity check of `transport_step` stops, so each outer step and
    its record run with numpy's floating-point warnings off. The setting
    is entered once per outer step and left before every yield: numpy's
    errstate is a context variable, and a suspended generator holding it
    would silence its consumer too.

    The generator's value (StopIteration.value) is the final state, so
    a consumer need not hold a state across `next`. The previous state
    lives until just before the record, whose temporaries then reuse its
    memory, provided the consumer has dropped it (`run_coupled` does).
    Freed any earlier, or held through the record, a large grid's arrays
    go back to the system and are faulted in again every step: on a 256²
    `on_the_fly_pd` run, 17 times the page faults and about 9% more time
    (2-core x86-64 VM).
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
    if steady:
        s.phi, s.lam = steady_potentials(s, rho_star)
        inner_n = 0
    inner_step = pd_flow_step if mode == "on_the_fly_pd" else relaxed_primal_step

    yield s, lyapunov(s, rho_star)
    for step in range(1, steps + 1):
        prev = s  # released just before the record: see the docstring
        with np.errstate(all="ignore"):
            for _ in range(inner_n):
                s = inner_step(s, rho_star)
            s = transport_step(s)
            if steady:
                s.lam = s.lam * (1.0 - s.dt)
            del prev
            recorded = step % record_every == 0 or step == steps
            report = lyapunov(s, rho_star) if recorded else None
        yield s, report
    return s


def run_coupled(s, rho_star, mode, inner_n=1, horizon=1.0, lam_fixed=1.0, record_every=1):
    """Run `coupled_states` to the horizon and collect its reports.

    Returns (reports, final_state): one LyapunovReport at t = 0, at
    every record_every-th step and at the last. A PositivityError that
    stops the run leaves with two attributes: `reports`, the records
    taken before the stop, and `t`, the time of the last completed step.
    """
    states = coupled_states(
        s,
        rho_star,
        mode,
        inner_n=inner_n,
        horizon=horizon,
        lam_fixed=lam_fixed,
        record_every=record_every,
    )
    reports = []
    try:
        while True:
            state, report = next(states)
            t = state.t
            del state  # held across next(), it would outlive the next record
            if report is not None:
                reports.append(report)
    except StopIteration as stop:
        return reports, stop.value
    except PositivityError as exc:
        exc.reports, exc.t = reports, t
        raise
