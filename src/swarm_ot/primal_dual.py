"""Distributed primal-dual iteration for the graph-restricted dual.

Agents maximize sum_i phi_i * b_i over potentials obeying
|phi_i - phi_j| <= c_ij on neighbor-graph edges. The iteration is
gradient ascent on phi and projected gradient descent on the edge
multipliers lam of

    L(phi, lam) = sum_i phi_i b_i
                  - 1/2 sum_(i,j) lam_ij ((phi_i - phi_j)^2 - c_ij^2),

with all updates taken Jacobi-style from one snapshot, which is what a
synchronous neighbor-message round computes.
"""

import numpy as np


class PotentialState:
    """Per-agent potentials and per-edge multipliers tied to one edge list."""

    def __init__(self, phi, lam, edges, l=0):
        self.phi = np.asarray(phi, dtype=float).copy()
        self.lam = np.asarray(lam, dtype=float).copy()
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(self.lam) != len(self.edges):
            raise ValueError("one multiplier per edge required")
        if np.any(self.lam < 0):
            raise ValueError("multipliers must be nonnegative")
        self.l = int(l)


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


def _net_outflow(flux, edges, n):
    """Per-node sum of edge fluxes, counted + at edge[0] and - at edge[1]."""
    out = np.bincount(edges[:, 0], weights=flux, minlength=n)
    out -= np.bincount(edges[:, 1], weights=flux, minlength=n)
    return out


def laplacian(phi, lam, edges):
    """Weighted graph Laplacian: per node, sum_j lam_ij (phi_i - phi_j)."""
    return _net_outflow(lam * (phi[edges[:, 0]] - phi[edges[:, 1]]), edges, len(phi))


def iterate(phi, lam, b, edges, half_c2, tau, n_steps, dual=True):
    """n_steps synchronous primal-dual steps; dual=False holds lam fixed.

    The one kernel behind the agents' inner loop and the grid flow.
    Returns (phi, lam). Divergence shows up as non-finite values that
    callers check, so its warnings are noise.
    """
    i, j = edges[:, 0], edges[:, 1]
    with np.errstate(all="ignore"):
        for _ in range(n_steps):
            dphi = phi[i] - phi[j]  # feeds both updates, so not via laplacian()
            lap = _net_outflow(lam * dphi, edges, len(phi))
            if dual:
                lam = np.maximum(0.0, lam + tau * (0.5 * dphi * dphi - half_c2))
            phi = phi + tau * (b - lap)
    return phi, lam


def pd_step(s, b, g, tau):
    """One synchronous primal-ascent / dual-descent step of size tau."""
    return run_pd(s, b, g, tau, 1)


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
    phi, lam = iterate(s.phi, s.lam, b, g.edges, 0.5 * g.costs**2, tau, n, dual)
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(lam))):
        kind = "primal-dual" if dual else "primal"
        raise FloatingPointError(f"{kind} iteration diverged; reduce tau")
    return PotentialState(phi, lam, g.edges, s.l + n)


def run_pd(s, b, g, tau, n):
    """n primal-dual steps from one state; n = 0 returns the input state."""
    return _run(s, b, g, tau, n, dual=True)


def run_primal(s, b, g, tau, n):
    """n primal-only steps with the multipliers held fixed at s.lam."""
    return _run(s, b, g, tau, n, dual=False)


def dual_objective(phi, b):
    """Value sum_i phi_i b_i of the restricted dual."""
    return float(np.dot(np.asarray(phi, dtype=float), np.asarray(b, dtype=float)))


def feasibility_violation(phi, g):
    """Worst edge violation max(0, |phi_i - phi_j| - c_ij)."""
    if len(g.edges) == 0:
        return 0.0
    phi = np.asarray(phi, dtype=float)
    gaps = np.abs(phi[g.edges[:, 0]] - phi[g.edges[:, 1]]) - g.costs
    return float(max(0.0, gaps.max()))


def pd_residual(s, b, g):
    """Saddle-point stationarity residual of a state.

    Maximum of the primal gradient |b_i - sum_j lam_ij (phi_i - phi_j)|
    and the projected dual gradient, which vanishes exactly at a
    fixed point of pd_step.
    """
    _check_edges(s, g)
    b = np.asarray(b, dtype=float)
    primal = np.abs(b - laplacian(s.phi, s.lam, g.edges))
    res = float(primal.max()) if len(primal) else 0.0
    if len(g.edges):
        i, j = g.edges[:, 0], g.edges[:, 1]
        grad = 0.5 * (s.phi[i] - s.phi[j]) ** 2 - 0.5 * g.costs**2
        projected = np.where(s.lam > 0, grad, np.maximum(grad, 0.0))
        res = max(res, float(np.abs(projected).max()))
    return res


CHECK_EVERY = 200  # iterations between converge_pd's residual checks


def converge_pd(s, b, g, tau=0.2, tol=1e-8, max_iter=2_000_000):
    """Iterate pd_step until the saddle residual drops below tol.

    The step size is halved and the run restarted whenever the iteration
    diverges, and halved in place when the residual flatlines, so the
    whole procedure is deterministic. Slow but steady decay is left
    alone: ill-conditioned instances creep at a rate proportional to the
    step size, and damping them only makes the creep slower. Returns
    (state, info) where info reports convergence, iterations used, the
    final step size, and the residual.
    """
    if not tau > 0:
        raise ValueError("step size tau must be positive")
    _check_edges(s, g)
    b = np.asarray(b, dtype=float)
    half_c2 = 0.5 * g.costs**2
    phi, lam = s.phi.copy(), s.lam.copy()
    tau_cur = float(tau)
    best = np.inf
    stall = 0
    used = 0
    while used < max_iter and tau_cur > 1e-10:
        chunk = min(CHECK_EVERY, max_iter - used)
        phi_new, lam_new = iterate(phi, lam, b, g.edges, half_c2, tau_cur, chunk)
        used += chunk
        finite = np.all(np.isfinite(phi_new)) and np.all(np.isfinite(lam_new))
        if finite:
            state = PotentialState(phi_new, lam_new, g.edges, s.l + used)
            res = pd_residual(state, b, g)
        else:
            res = np.inf
        if not finite or res > 1e8:
            # diverged: restart from the initial state with half the step
            tau_cur *= 0.5
            phi, lam = s.phi.copy(), s.lam.copy()
            best = np.inf
            stall = 0
            continue
        phi, lam = phi_new, lam_new
        if res <= tol:
            return state, {"converged": True, "iterations": used, "tau": tau_cur, "residual": res}
        if res < best * (1.0 - 1e-6):
            best = res
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                # no new best for a whole window: the iterate is orbiting
                # the saddle rather than approaching it, so damp the step
                tau_cur *= 0.5
                stall = 0
    state = PotentialState(phi, lam, g.edges, s.l + used)
    res = pd_residual(state, b, g)
    return state, {
        "converged": bool(res <= tol),
        "iterations": used,
        "tau": tau_cur,
        "residual": res,
    }
