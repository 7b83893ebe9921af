"""Distributed primal-dual iteration for the graph-restricted dual.

Agents maximize sum_i phi_i * b_i over potentials obeying
|phi_i - phi_j| <= c_ij on neighbor-graph edges. The iteration is
gradient ascent on phi and projected gradient descent on the edge
multipliers lam of

    L(phi, lam) = sum_i phi_i b_i
                  - 1/2 sum_(i,j) lam_ij ((phi_i - phi_j)^2 - c_ij^2),

with all updates taken Jacobi-style from one snapshot, which is what a
synchronous neighbor-message round computes.

The kernel's two edge operations, the edge difference and the net
outflow, gather and scatter by index on an (E, 2) edge list. On an edge
list built by `grid_edges` they take 2-D slices of the node grid
instead, in the same summation order, so both paths give the same bits.
The path follows from the edge list itself; nothing selects it.
"""

import numpy as np


class DivergenceError(FloatingPointError):
    """An iteration left the finite numbers; `of(dual)` names which one."""

    @classmethod
    def of(cls, dual):
        return cls(f"{'primal-dual' if dual else 'primal'} iteration diverged; reduce tau")


class PotentialState:
    """Per-agent potentials and per-edge multipliers tied to one edge list."""

    def __init__(self, phi, lam, edges):
        self.phi = np.asarray(phi, dtype=float).copy()
        self.lam = np.asarray(lam, dtype=float).copy()
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(self.lam) != len(self.edges):
            raise ValueError("one multiplier per edge required")
        if not np.all(self.lam >= 0):
            raise ValueError("multipliers must be nonnegative")


def zero_state(g):
    """All-zero potentials and multipliers on the graph's edges."""
    return PotentialState(np.zeros(g.n), np.zeros(len(g.edges)), g.edges)


def mass_imbalance(masses):
    """Per-agent imbalance b_i = 1/N - mu*(V_i)."""
    masses = np.asarray(masses, dtype=float)
    return 1.0 / len(masses) - masses


def _check_edges(s, g):
    if s.edges.shape != g.edges.shape or not np.array_equal(s.edges, g.edges):
        raise ValueError("state multipliers are defined on different edges than the graph")


class _GridEdges(np.ndarray):
    """An edge list in `grid_edges`' layout that knows its (ny, nx) shape.

    Views and slices of it are plain edge lists again (grid_shape None).
    """

    grid_shape = None


def grid_edges(nx, ny):
    """4-neighbor edges of an nx-by-ny node grid, node index j*nx + i.

    The ny*(nx-1) horizontal edges come first, row by row, then the
    (ny-1)*nx vertical ones, each pointing to the higher node index.
    """
    idx = np.arange(nx * ny).reshape(ny, nx)
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    edges = np.concatenate([horiz, vert]).astype(np.int64).view(_GridEdges)
    edges.grid_shape = (ny, nx)
    return edges


def edge_diff(phi, edges):
    """phi_i - phi_j for every edge (i, j)."""
    shape = getattr(edges, "grid_shape", None)
    if shape is None:
        return phi[edges[:, 0]] - phi[edges[:, 1]]
    ny, nx = shape
    grid = phi.reshape(shape)
    out = np.empty(len(edges), dtype=phi.dtype)
    nh = ny * (nx - 1)
    np.subtract(grid[:, :-1], grid[:, 1:], out=out[:nh].reshape(ny, nx - 1))
    np.subtract(grid[:-1], grid[1:], out=out[nh:].reshape(ny - 1, nx))
    return out


def _net_outflow(flux, edges, n):
    """Per-node sum of edge fluxes, counted + at edge[0] and - at edge[1]."""
    shape = getattr(edges, "grid_shape", None)
    if shape is None:
        out = np.bincount(edges[:, 0], weights=flux, minlength=n)
        out -= np.bincount(edges[:, 1], weights=flux, minlength=n)
        return out.astype(float, copy=False)  # bincount of no edges is int
    # bincount's order: from zero, a node's horizontal edge, then its
    # vertical one, at the tail and at the head. fh + 0.0 is 0.0 + fh, so
    # a -0.0 flux sums to +0.0 as in bincount; the column without a
    # horizontal edge starts at 0.0 itself.
    ny, nx = shape
    nh = ny * (nx - 1)
    fh, fv = flux[:nh].reshape(ny, nx - 1), flux[nh:].reshape(ny - 1, nx)
    out = np.empty(shape)
    np.add(fh, 0.0, out=out[:, :-1])
    out[:, -1] = 0.0
    out[:-1] += fv
    head = np.empty(shape)
    np.add(fh, 0.0, out=head[:, 1:])
    head[:, 0] = 0.0
    head[1:] += fv
    out -= head
    return out.ravel()


def laplacian(phi, lam, edges, dphi=None):
    """Weighted graph Laplacian: per node, sum_j lam_ij (phi_i - phi_j).

    dphi, when given, is phi's `edge_diff`, taken once by the caller.
    """
    if dphi is None:
        dphi = edge_diff(phi, edges)
    return _net_outflow(lam * dphi, edges, len(phi))


def iterate(phi, lam, b, edges, half_c2, tau, n_steps, dual=True):
    """n_steps synchronous primal-dual steps; dual=False holds lam fixed.

    The one kernel behind the agents' inner loop, the flow oracle and the
    grid flow. Its callers are `_run` (so `run_pd`, `run_primal` and
    `converge_pd`, which is `run_pd` in checked chunks) and the grid's
    `_flow_step` (so `pd_flow_step` and `relaxed_primal_step`). Returns
    (phi, lam) and never writes its inputs. Divergence shows up as
    non-finite values that callers check, so its warnings are noise: each
    caller enters np.errstate(all="ignore") once around its calls.

    Each step computes lam' = max(0, lam + tau (0.5 dphi dphi - half_c2))
    and phi' = phi + tau (b - L phi) in place, in the buffers of the flux
    and of L phi, with every operation and operand order of those
    expressions, so the bits are theirs. With only two edge-sized and two
    node-sized allocations per step, a large grid's run does not return
    heap pages to the system and fault them in again.
    """
    for _ in range(n_steps):
        dphi = edge_diff(phi, edges)  # feeds both updates, so not via laplacian()
        flux = lam * dphi
        step = _net_outflow(flux, edges, len(phi))
        if dual:
            np.multiply(0.5, dphi, out=flux)
            flux *= dphi
            flux -= half_c2
            np.multiply(tau, flux, out=flux)
            np.add(lam, flux, out=flux)
            lam = np.maximum(0.0, flux, out=flux)
        np.subtract(b, step, out=step)
        np.multiply(tau, step, out=step)
        phi = np.add(phi, step, out=step)
    return phi, lam


def _run(s, b, g, tau, n, dual):
    if not tau > 0:
        raise ValueError("step size tau must be positive")
    n = int(n)
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    _check_edges(s, g)
    if n == 0:
        return s
    b = np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):
        phi, lam = iterate(s.phi, s.lam, b, g.edges, 0.5 * g.costs**2, tau, n, dual)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(lam))):
        raise DivergenceError.of(dual)
    return PotentialState(phi, lam, g.edges)


def run_pd(s, b, g, tau, n):
    """n primal-dual steps from one state; n = 0 returns the input state."""
    return _run(s, b, g, tau, n, dual=True)


def run_primal(s, b, g, tau, n):
    """n primal-only steps with the multipliers held fixed at s.lam."""
    return _run(s, b, g, tau, n, dual=False)


def dual_objective(phi, b):
    """Value sum_i phi_i b_i of the restricted dual.

    An `einsum` reduction, which unlike a BLAS dot product rounds the
    same on any CPU.
    """
    return float(np.einsum("i,i->", np.asarray(phi, dtype=float), np.asarray(b, dtype=float)))


def feasibility_violation(phi, g):
    """Worst edge violation max(0, |phi_i - phi_j| - c_ij)."""
    if len(g.edges) == 0:
        return 0.0
    phi = np.asarray(phi, dtype=float)
    gaps = np.abs(edge_diff(phi, g.edges)) - g.costs
    return float(max(0.0, gaps.max()))


def pd_residual(s, b, g):
    """Saddle-point stationarity residual of a state.

    Maximum of the primal gradient |b_i - sum_j lam_ij (phi_i - phi_j)|
    and the projected dual gradient, which vanishes exactly at a
    fixed point of the primal-dual step.
    """
    _check_edges(s, g)
    b = np.asarray(b, dtype=float)
    dphi = edge_diff(s.phi, g.edges)
    primal = np.abs(b - laplacian(s.phi, s.lam, g.edges, dphi))
    res = float(primal.max()) if len(primal) else 0.0
    if len(g.edges):
        grad = 0.5 * dphi**2 - 0.5 * g.costs**2
        projected = np.where(s.lam > 0, grad, np.maximum(grad, 0.0))
        res = max(res, float(np.abs(projected).max()))
    return res


CHECK_EVERY = 200  # iterations between converge_pd's residual checks


def converge_pd(s, b, g, tau=0.2, tol=1e-8, max_iter=2_000_000):
    """Iterate the primal-dual step until the saddle residual drops below tol.

    `run_pd` in checked chunks of CHECK_EVERY steps. The step size is
    halved and the run restarted from s whenever a chunk diverges, and
    halved in place when the residual flatlines, so the whole procedure
    is deterministic. Slow but steady decay is left alone: ill-conditioned
    instances creep at a rate proportional to the step size, and damping
    them only makes the creep slower. Returns (state, info) where info
    reports convergence, iterations used, the final step size, and the
    residual; state is s itself when no chunk was kept.
    """
    if not tau > 0:
        raise ValueError("step size tau must be positive")
    state, tau_cur, used = s, float(tau), 0
    best, stall = np.inf, 0
    with np.errstate(all="ignore"):
        while used < max_iter and tau_cur > 1e-10:
            chunk = min(CHECK_EVERY, max_iter - used)
            used += chunk
            try:
                new = run_pd(state, b, g, tau_cur, chunk)
                res = pd_residual(new, b, g)
            except DivergenceError:
                res = np.inf
            if res > 1e8:
                # diverged: restart from the initial state with half the step
                state, tau_cur, best, stall = s, 0.5 * tau_cur, np.inf, 0
                continue
            state = new
            if res <= tol:
                break
            if res < best * (1.0 - 1e-6):
                best, stall = res, 0
            else:
                stall += 1
                if stall >= 50:
                    # no new best for a whole window: the iterate is orbiting
                    # the saddle rather than approaching it, so damp the step
                    tau_cur, stall = 0.5 * tau_cur, 0
        res = pd_residual(state, b, g)
    info = {"converged": bool(res <= tol), "iterations": used, "tau": tau_cur, "residual": res}
    return state, info
