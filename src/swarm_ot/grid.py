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
and the record, the stationarity guard and the transport step share it.
A record takes the state's edge differences once, and its sums are
`einsum` reductions, which unlike BLAS dot products give the same bits
under any thread count.

The stationary solve with unit multipliers needs no sparse solver: the
2-D DCT-II diagonalizes the grid's Laplacian (Neumann boundary), so it
is a closed-form spectral solve by FFT in numpy alone.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .primal_dual import edge_diff, grid_edges, iterate, laplacian
from .rng import STREAM_DENSITY, SplitMix64, derive


class PositivityError(ValueError):
    """An explicit transport step would make the density nonpositive."""


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


def pd_flow_step(s, rho_star, dt=None):
    """One explicit Euler step of the primal-dual flow (rho untouched).

    phi ascends the divergence of lam grad phi plus the imbalance;
    lam follows the constraint violation with the rate projected so
    multipliers never leave the nonnegative cone. dt defaults to the
    state's dt; inner solvers may pass a larger relaxation step.
    """
    h = s.dt if dt is None else float(dt)
    out = copy.copy(s)
    out.phi, out.lam = iterate(s.phi, s.lam, s.rho - rho_star, s.edges, 0.5 * s.cost**2, h, 1)
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


def density_on_grid(field, nx, ny, domain, floor=1e-6):
    """Sample a density field onto grid nodes as masses summing to one.

    Raster fields are floored before normalization so the target stays
    strictly positive on the whole grid.
    """
    ext = domain.extent
    xs = domain.lo[0] + (np.arange(nx) + 0.5) * ext[0] / nx
    ys = domain.lo[1] + (np.arange(ny) + 0.5) * ext[1] / ny
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
    and O(nx ny) memory. Used to start inner_steady_state runs at
    stationarity instead of integrating the slow primal-dual ramp-up.
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


# inner_steady_state: relaxation step and per-transport-step budget of
# the inner primal-dual flow
INNER_DT = 0.2
INNER_CAP = 500_000


def coupled_states(s, rho_star, mode, inner_n=1, lam_fixed=1.0, inner_tol=1e-8):
    """The initialized state, then the state after each outer step, forever.

    Modes:
      on_the_fly_pd     - inner_n primal-dual flow steps per transport step
      on_the_fly_fixed  - inner_n primal-only steps with lam == lam_fixed
      inner_steady_state- converge the primal-dual flow to stationarity
                          <= inner_tol before every transport step

    inner_steady_state starts from a directly computed stationary pair
    and relaxes with its own inner step INNER_DT, independent of the
    transport dt, for at most INNER_CAP steps per transport step (a
    RuntimeError past that). After each transport step the multipliers
    are rescaled by (1 - dt), which restores stationarity exactly and
    keeps the inner loop cheap; a dt above 1 would make them negative,
    so this mode rejects it (a ValueError).
    """
    modes = ("on_the_fly_pd", "on_the_fly_fixed", "inner_steady_state")
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}")
    if mode != "inner_steady_state" and inner_n < 1:
        raise ValueError("on-the-fly modes need at least one inner step")
    if mode == "inner_steady_state" and s.dt > 1:
        raise ValueError("inner_steady_state needs dt <= 1: it rescales multipliers by 1 - dt")
    rho_star = np.asarray(rho_star, dtype=float)
    s = copy.copy(s)
    if mode == "on_the_fly_fixed":
        if not lam_fixed > 0:
            raise ValueError("fixed dual weight must be positive")
        s.lam = np.full(len(s.edges), float(lam_fixed))
    if mode == "inner_steady_state":
        s.phi, s.lam = steady_potentials(s, rho_star)

    while True:
        yield s
        if mode == "on_the_fly_pd":
            for _ in range(inner_n):
                s = pd_flow_step(s, rho_star)
        elif mode == "on_the_fly_fixed":
            for _ in range(inner_n):
                s = relaxed_primal_step(s, rho_star)
        else:
            used = 0
            while stationarity(s, rho_star) > inner_tol:
                if used >= INNER_CAP:
                    raise RuntimeError(
                        f"inner solver hit the iteration cap at t={s.t:.6f}"
                    )
                s = pd_flow_step(s, rho_star, dt=INNER_DT)
                used += 1
        s = transport_step(s)
        if mode == "inner_steady_state":
            # transport scaled the imbalance by (1 - dt); scaling the
            # multipliers the same way preserves stationarity exactly
            s.lam = s.lam * (1.0 - s.dt)


def run_coupled(
    s,
    rho_star,
    mode,
    inner_n=1,
    horizon=1.0,
    lam_fixed=1.0,
    inner_tol=1e-8,
    record_every=1,
):
    """Alternate potential estimation with transport until t >= horizon.

    Takes round(horizon / dt) outer steps of `coupled_states` (see
    there for the modes). Returns (reports, final_state) with one
    LyapunovReport at t = 0, at every record_every-th step and at the last.
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    steps = int(round(horizon / s.dt))
    states = coupled_states(s, rho_star, mode, inner_n, lam_fixed, inner_tol)
    reports = []
    for step, s in zip(range(steps + 1), states):  # range first: no step past the horizon
        if step % record_every == 0 or step == steps:
            reports.append(lyapunov(s, rho_star))
    return reports, s
