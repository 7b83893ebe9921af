"""Grid discretization of the continuous-limit transport system.

Densities and potentials live on grid nodes, multipliers on 4-neighbor
edges, and every spatial operator is the weighted graph Laplacian, so
transport fluxes are antisymmetric per edge and total mass is conserved
to machine precision. Time stepping is explicit Euler with a hard
positivity check (an error, never a clamp).

The potential flow is the agents' primal-dual kernel `iterate` on the
grid's edges with imbalance b = rho - rho_star and edge cost c = `cost`;
transport and stationarity use its operator `laplacian`.
"""

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .primal_dual import iterate, laplacian
from .rng import STREAM_DENSITY, SplitMix64, derive


class PositivityError(ValueError):
    """An explicit transport step would make the density nonpositive."""


def grid_edges(nx, ny):
    """4-neighbor edges of an nx-by-ny node grid, node index j*nx + i."""
    idx = np.arange(nx * ny).reshape(ny, nx)
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    return np.concatenate([horiz, vert]).astype(np.int64)


class GridState:
    """Densities, potentials, and edge multipliers on a rectangular grid."""

    def __init__(self, nx, ny, rho, phi=None, lam=None, cost=1.0, dt=1e-3, t=0.0):
        self.nx = int(nx)
        self.ny = int(ny)
        n = self.nx * self.ny
        self.edges = grid_edges(self.nx, self.ny)
        self.edges.flags.writeable = False
        self.rho = np.asarray(rho, dtype=float).copy()
        if self.rho.shape != (n,):
            raise ValueError(f"rho must have {n} entries")
        if np.any(self.rho <= 0):
            raise ValueError("density must be strictly positive")
        if abs(float(self.rho.sum()) - 1.0) > 1e-9:
            raise ValueError("density must sum to one")
        self.phi = np.zeros(n) if phi is None else np.asarray(phi, dtype=float).copy()
        self.lam = (
            np.zeros(len(self.edges)) if lam is None else np.asarray(lam, dtype=float).copy()
        )
        if self.phi.shape != (n,) or self.lam.shape != (len(self.edges),):
            raise ValueError("phi/lam shapes do not match the grid")
        if np.any(self.lam < 0):
            raise ValueError("multipliers must be nonnegative")
        if not cost > 0:
            raise ValueError("edge cost must be positive")
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.cost = float(cost)
        self.dt = float(dt)
        self.t = float(t)

    def copy(self):
        """Own copies of rho, phi and lam; the read-only edges are shared."""
        out = copy.copy(self)
        out.rho, out.phi, out.lam = self.rho.copy(), self.phi.copy(), self.lam.copy()
        return out

    def node_xy(self, i):
        return int(i) % self.nx, int(i) // self.nx


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
    out = s.copy()
    out.phi, out.lam = iterate(s.phi, s.lam, s.rho - rho_star, s.edges, 0.5 * s.cost**2, h, 1)
    return out


def relaxed_primal_step(s, rho_star, lam_fixed, dt=None):
    """Primal flow step with a fixed positive dual weight; lam untouched."""
    if not lam_fixed > 0:
        raise ValueError("fixed dual weight must be positive")
    h = s.dt if dt is None else float(dt)
    out = s.copy()
    lam = np.full(len(s.edges), float(lam_fixed))
    out.phi, _ = iterate(s.phi, lam, s.rho - rho_star, s.edges, 0.5 * s.cost**2, h, 1, dual=False)
    return out


def transport_step(s):
    """Advect the density by the edge fluxes lam (phi_j - phi_i).

    Antisymmetric per-edge fluxes keep the total mass exactly conserved.
    A step that would make any node nonpositive is an error naming the
    node (a PositivityError): reduce dt rather than clamping.
    """
    out = s.copy()
    out.rho = s.rho - s.dt * laplacian(s.phi, s.lam, s.edges)
    if np.any(out.rho <= 0):
        node = int(np.argmin(out.rho))
        x, y = s.node_xy(node)
        raise PositivityError(
            f"transport step made the density nonpositive at node ({x},{y}); reduce dt"
        )
    out.t = s.t + s.dt
    return out


def kkt_residual(s, rho_star):
    """Residuals of stationarity, feasibility, and slackness.

    dual_feasibility reports the smallest multiplier: nonnegative means
    the dual cone constraint holds, so unlike the other three fields it
    is a position, not a violation magnitude.
    """
    i, j = s.edges[:, 0], s.edges[:, 1]
    stationarity = float(np.abs(s.rho - laplacian(s.phi, s.lam, s.edges) - rho_star).max())
    gaps = np.abs(s.phi[i] - s.phi[j])
    feasibility = float(np.maximum(0.0, gaps - s.cost).max()) if len(gaps) else 0.0
    slackness = float((s.lam * np.abs(gaps - s.cost)).max()) if len(gaps) else 0.0
    dual_feasibility = float(s.lam.min()) if len(s.lam) else 0.0
    return KKTResidual(stationarity, feasibility, slackness, dual_feasibility)


def lyapunov(s, rho_star):
    """V, E, KKT residuals, and the mass conservation error of a state."""
    i, j = s.edges[:, 0], s.edges[:, 1]
    err = s.rho - rho_star
    V = 0.5 * float(np.dot(err, err))
    dual = 0.5 * float(np.dot(s.lam, (s.phi[i] - s.phi[j]) ** 2))
    mass_error = abs(float(s.rho.sum()) - 1.0)
    return LyapunovReport(s.t, V, dual + V, kkt_residual(s, rho_star), mass_error)


def density_error(s, rho_star):
    """L2 distance of the density from the target, sqrt(2V)."""
    err = s.rho - rho_star
    return float(np.sqrt(np.dot(err, err)))


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


def steady_potentials(s, rho_star, lam_value=1.0):
    """Stationary (phi, lam) pair with uniform multipliers.

    Solves the weighted graph-Laplacian system div(lam grad phi) =
    rho_star - rho directly (node 0 pinned; potentials are defined up to
    a constant). Used to start inner_steady_state runs at stationarity
    instead of integrating the slow primal-dual ramp-up.
    """
    n = len(s.rho)
    i, j = s.edges[:, 0], s.edges[:, 1]
    w = np.full(len(s.edges), float(lam_value))
    lap = sp.coo_matrix(
        (
            np.concatenate([w, w, -w, -w]),
            (
                np.concatenate([i, j, i, j]),
                np.concatenate([i, j, j, i]),
            ),
        ),
        shape=(n, n),
    ).tocsr()
    rhs = s.rho - rho_star
    reduced = lap[1:, 1:].tocsc()
    phi = np.zeros(n)
    phi[1:] = spla.spsolve(reduced, rhs[1:])
    return phi, np.full(len(s.edges), float(lam_value))


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
    i, j = s.edges[:, 0], s.edges[:, 1]
    gap = float(np.abs(phi[i] - phi[j]).max()) if len(s.edges) else 0.0
    if gap == 0.0:
        return phi, np.zeros_like(lam)
    scale = gap / s.cost
    return phi / scale, lam * scale


# inner_steady_state: relaxation step and per-transport-step budget of
# the inner primal-dual flow
INNER_DT = 0.2
INNER_CAP = 500_000


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
    keeps the inner loop cheap.

    Returns (reports, final_state) with one LyapunovReport at t = 0 and
    one per recorded outer step.
    """
    modes = ("on_the_fly_pd", "on_the_fly_fixed", "inner_steady_state")
    if mode not in modes:
        raise ValueError(f"mode must be one of {modes}")
    if mode != "inner_steady_state" and inner_n < 1:
        raise ValueError("on-the-fly modes need at least one inner step")
    rho_star = np.asarray(rho_star, dtype=float)
    s = s.copy()
    if mode == "on_the_fly_fixed":
        if not lam_fixed > 0:
            raise ValueError("fixed dual weight must be positive")
        s.lam[:] = float(lam_fixed)
    if mode == "inner_steady_state":
        s.phi, s.lam = steady_potentials(s, rho_star)

    reports = [lyapunov(s, rho_star)]
    steps = int(round(horizon / s.dt))
    for step in range(1, steps + 1):
        if mode == "on_the_fly_pd":
            for _ in range(inner_n):
                s = pd_flow_step(s, rho_star)
        elif mode == "on_the_fly_fixed":
            for _ in range(inner_n):
                s = relaxed_primal_step(s, rho_star, lam_fixed)
        else:
            used = 0
            while kkt_residual(s, rho_star).stationarity > inner_tol:
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
            s.lam *= 1.0 - s.dt
        if step % record_every == 0 or step == steps:
            reports.append(lyapunov(s, rho_star))
    return reports, s
