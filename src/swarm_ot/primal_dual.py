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
The path follows from the edge list itself. The grid path is written
once, as helpers over a range of node rows: `edge_diff` and
`_net_outflow` run them on every row, and `iterate` on row slabs, which
a large grid's caller may split across threads (the CLI's --threads)
without changing a bit.
"""

import contextvars
import os
import threading

import numpy as np

from .geometry import edge_list


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
        self.edges = edge_list(edges, len(self.phi))
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


def _edge_rows(a, shape):
    """The (ny, nx-1) horizontal and (ny-1, nx) vertical 2-D views of an
    edge-sized array in `grid_edges`' layout."""
    ny, nx = shape
    nh = ny * (nx - 1)
    return a[:nh].reshape(ny, nx - 1), a[nh:].reshape(ny - 1, nx)


def _diff_rows(p, r0, r1, dh, dv):
    """phi_i - phi_j on the edges of node rows r0:r1 of the 2-D potential p.

    The rows' horizontal edges go to dh, and to dv the vertical edges
    from those rows to the next, which the grid's last row does not have.
    """
    rv = min(r1, len(p) - 1)
    np.subtract(p[r0:r1, :-1], p[r0:r1, 1:], out=dh)
    np.subtract(p[r0:rv], p[r0 + 1 : rv + 1], out=dv)


def _outflow_rows(fh, fv, top, out):
    """Net outflow of a slab of node rows into out, in place of its fluxes.

    fh holds the fluxes of the slab's horizontal edges, fv those of its
    vertical edges to the next row, and top those of the vertical edges
    into its first row (None at the grid's first row); all three are
    overwritten. A node sums as bincount does: from zero, its horizontal
    edge, then its vertical one, at the tail, less that sum at the head.
    fh + 0.0 is 0.0 + fh, so a -0.0 flux sums to +0.0 as in bincount; a
    node without a horizontal edge starts at 0.0 itself.
    """
    fh += 0.0
    out[:, :-1] = fh
    out[:, -1] = 0.0
    out[: len(fv)] += fv  # the sums at the tails
    into = fv[: len(out) - 1]  # becomes the sums at the heads of rows 1..
    np.add(fh[1:], into[:, 1:], out=into[:, 1:])
    np.add(0.0, into[:, 0], out=into[:, 0])
    out[1:] -= into
    if top is None:
        out[0, 1:] -= fh[0]  # x - 0.0 is x, so column 0 is done
    else:
        np.add(fh[0], top[1:], out=top[1:])
        np.add(0.0, top[:1], out=top[:1])
        out[0] -= top


def edge_diff(phi, edges):
    """phi_i - phi_j for every edge (i, j)."""
    shape = getattr(edges, "grid_shape", None)
    if shape is None:
        return phi[edges[:, 0]] - phi[edges[:, 1]]
    out = np.empty(len(edges), dtype=phi.dtype)
    _diff_rows(phi.reshape(shape), 0, shape[0], *_edge_rows(out, shape))
    return out


def _net_outflow(flux, edges, n):
    """Per-node sum of edge fluxes, counted + at edge[0] and - at edge[1].

    On an edge list from `grid_edges` the sum overwrites flux, so pass
    one that is not needed after.
    """
    shape = getattr(edges, "grid_shape", None)
    if shape is None:
        out = np.bincount(edges[:, 0], weights=flux, minlength=n)
        out -= np.bincount(edges[:, 1], weights=flux, minlength=n)
        return out.astype(float, copy=False)  # bincount of no edges is int
    out = np.empty(shape)
    _outflow_rows(*_edge_rows(flux, shape), None, out)
    return out.ravel()


def laplacian(phi, lam, edges, dphi=None):
    """Weighted graph Laplacian: per node, sum_j lam_ij (phi_i - phi_j).

    dphi, when given, is phi's `edge_diff`, taken once by the caller.
    """
    if dphi is None:
        dphi = edge_diff(phi, edges)
    return _net_outflow(lam * dphi, edges, len(phi))


# Nodes from which `iterate` splits a grid's rows across threads. Kernel
# time per inner step in 15-step calls, one slab against two threads
# (2-core x86-64 VM): 50^2 45-51 against 226-255 us, 128^2 174-195
# against 376-415 us, 192^2 462-538 against 451-524 us, 224^2 651-874
# against 513-595 us, 256^2 886-1061 against 581-725 us. Each numpy call
# of a thread hands the interpreter lock over and each step waits at a
# barrier, about 200 us a step in all, so threads pay from 224^2 on.
THREAD_MIN_NODES = 224 * 224


def _usable_cores():
    """The CPU cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def iterate(phi, lam, b, edges, half_c2, tau, n_steps, dual=True, threads=1):
    """n_steps synchronous primal-dual steps; dual=False holds lam fixed.

    The one kernel behind the agents' inner loop, the flow oracle and the
    grid flow. Its callers are `_run` (so `run_pd`, `run_primal` and
    `converge_pd`, which is `run_pd` in checked chunks) and the grid's
    `_flow_step` (so `pd_flow_step` and `relaxed_primal_step`). Returns
    (phi, lam) and never writes its inputs. Divergence shows up as
    non-finite values that callers check, so its warnings are noise: each
    caller enters np.errstate(all="ignore") once around its calls.

    Each step computes lam' = max(0, lam + tau (0.5 dphi dphi - half_c2))
    and phi' = phi + tau (b - L phi) with every operation and operand
    order of those expressions, so the bits are theirs: on an agent graph
    in place, in the buffers of the flux and of L phi. On an edge list
    from `grid_edges` the steps run as `grid_iterate`, on row slabs in
    min(threads, usable cores) threads from THREAD_MIN_NODES nodes on and
    in the caller's thread below, to the same bits for any count.
    """
    shape = getattr(edges, "grid_shape", None)
    if shape is not None:
        slabs = 1
        if threads > 1 and shape[0] * shape[1] >= THREAD_MIN_NODES:
            slabs = min(threads, _usable_cores())
        return grid_iterate(phi, lam, b, shape, half_c2, tau, n_steps, dual, slabs)
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


def grid_iterate(phi, lam, b, shape, half_c2, tau, n_steps, dual, slabs):
    """`iterate` on the (ny, nx) grid's edges, its rows split into slabs.

    Slab k is node rows ny*k//m to ny*(k+1)//m of m = min(slabs, ny)
    slabs; slab 0 runs in the caller's thread and each other slab in a
    thread of its own (`_run_slabs`). A step writes phi' and lam' into
    one of two buffer pairs while it reads the other, so each thread
    writes only its slab's rows of the shared buffers and waits at one
    barrier per step. The flux of the vertical edges into a slab's first
    row, which the slab above owns, the slab computes again into a row
    of its own. Every slab count gives the bits of one slab, which are
    those of the expressions.

    The call allocates the result pair, one more pair when n_steps > 1,
    an edge-sized flux buffer and the slabs' rows above, and nothing per
    step.
    """
    if n_steps == 0:
        return phi, lam
    ny, nx = shape
    m = max(1, min(slabs, ny))
    flux, above = np.empty(len(lam)), np.empty((m - 1, nx))
    b = np.asarray(b)
    slab = [
        _Slab(shape, ny * k // m, ny * (k + 1) // m, flux, b, half_c2, above[k - 1] if k else None)
        for k in range(m)
    ]
    # states[0] is the input; the last step writes states[1], the result
    pairs = [(np.empty(ny * nx), np.empty(len(lam)) if dual else lam) for _ in range(min(n_steps, 2))]
    states = [(phi, lam), *pairs]

    def slab_step(k, step):
        src = states[1 + (n_steps - step) % 2 if step else 0]
        slab[k].step(*src, *states[1 + (n_steps - 1 - step) % 2], dual, tau)

    _run_slabs(m, n_steps, slab_step)
    return pairs[0]


class _Slab:
    """Node rows r0:r1 of a grid and one step of them.

    The slab's edges are its rows' horizontal edges and the vertical
    edges from them to the next row: two runs of the edge list, one when
    the slab is the whole grid. A step reads and writes only these.
    """

    def __init__(self, shape, r0, r1, flux, b, half_c2, top):
        ny, nx = shape
        nh = ny * (nx - 1)
        rv = min(r1, ny - 1)
        self.rows, self.shape, self.top = (r0, r1), shape, top
        self.nodes, self.node_rows = slice(r0 * nx, r1 * nx), (r1 - r0, nx)
        self.h, self.h_rows = slice(r0 * (nx - 1), r1 * (nx - 1)), (r1 - r0, nx - 1)
        self.v, self.v_rows = slice(nh + r0 * nx, nh + rv * nx), (rv - r0, nx)
        self.into = slice(nh + (r0 - 1) * nx, nh + r0 * nx)  # vertical edges into row r0
        h, v = self.h, self.v
        self.runs = [h, v] if h.stop != v.start else [slice(h.start, v.stop)]
        self.flux = self._rows(flux), [flux[run] for run in self.runs]
        self.half_c2 = [half_c2[run] if np.ndim(half_c2) else half_c2 for run in self.runs]
        self.b = b[self.nodes].reshape(self.node_rows)

    def _rows(self, a):
        """The slab's horizontal and vertical edges in an edge-sized array, as rows."""
        return a[self.h].reshape(self.h_rows), a[self.v].reshape(self.v_rows)

    def step(self, phi, lam, phi_out, lam_out, dual, tau):
        """One step of the slab's rows from (phi, lam) into (phi_out, lam_out)."""
        r0, r1 = self.rows
        p = phi.reshape(self.shape)
        lam_runs = [lam[run] for run in self.runs]
        f_rows, f_runs = self.flux
        if dual:
            d_rows, d_runs = self._rows(lam_out), [lam_out[run] for run in self.runs]
        else:
            d_rows, d_runs = f_rows, f_runs
        _diff_rows(p, r0, r1, *d_rows)
        for l, d, f in zip(lam_runs, d_runs, f_runs):
            np.multiply(l, d, out=f)
        top = self.top
        if top is not None:
            np.subtract(p[r0 - 1], p[r0], out=top)
            np.multiply(lam[self.into], top, out=top)
        out = phi_out[self.nodes].reshape(self.node_rows)
        _outflow_rows(*f_rows, top, out)
        if dual:
            for d, l, c, t in zip(d_runs, lam_runs, self.half_c2, f_runs):
                np.multiply(0.5, d, out=t)
                t *= d
                t -= c
                np.multiply(tau, t, out=t)
                np.add(l, t, out=t)
                np.maximum(0.0, t, out=d)
        np.subtract(self.b, out, out=out)
        np.multiply(tau, out, out=out)
        np.add(p[r0:r1], out, out=out)


def _run_slabs(m, n_steps, slab_step):
    """slab_step(k, step) for each of n_steps steps and each slab k < m.

    Slab 0 runs in the caller's thread, the others in threads of their
    own that meet at a barrier after every step. The first failure in
    any slab aborts the barrier, so no thread waits for it, and is raised
    here once every thread has ended.
    """
    if m == 1:
        for step in range(n_steps):
            slab_step(0, step)
        return
    barrier, errors = threading.Barrier(m), []

    def run(k):
        try:
            for step in range(n_steps):
                slab_step(k, step)
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # another slab failed, and its error is raised
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    started = []
    try:
        for k in range(1, m):
            worker = threading.Thread(target=contextvars.copy_context().run, args=(run, k))
            worker.start()
            started.append(worker)
        run(0)
    except BaseException:
        barrier.abort()
        raise
    finally:
        for worker in started:
            worker.join()
    if errors:
        raise errors[0]


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
