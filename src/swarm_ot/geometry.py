"""Domain geometry and the graphs over it.

The transport ground cost is the Euclidean length c(x, y) = ||x - y||,
so its geodesics are straight segments and the closed eps-ball around x
is the Euclidean ball of radius eps; `lengths` is its one spelling. An
agent graph, the grid and the flow oracle each join nodes by an edge
list, which `edge_list` reads.
"""

import numpy as np


class Domain:
    """Axis-aligned rectangle [lo, hi] in the plane."""

    def __init__(self, lo=(0.0, 0.0), hi=(1.0, 1.0)):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != (2,) or self.hi.shape != (2,):
            raise ValueError("domain corners must be 2-vectors")
        if not np.all(self.hi - self.lo > 0):
            raise ValueError("domain must have positive extent in both coordinates")

    @property
    def extent(self):
        return self.hi - self.lo

    def clamp(self, x):
        """Project a point (or array of points) into the domain."""
        return np.minimum(np.maximum(np.asarray(x, dtype=float), self.lo), self.hi)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))


def lengths(v):
    """Euclidean length of each 2-vector along the last axis of v, as
    sqrt(x*x + y*y).

    Elementwise IEEE arithmetic rounds the same on any CPU, where a BLAS
    dot product's rounding depends on the kernel it runs.
    """
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


def edge_list(edges, n):
    """`edges`, an (E, 2) array of integer node indices 0..n-1 or the empty
    list, as int64; a ValueError names the shape or the index otherwise."""
    a = np.asarray(edges)
    a = a.reshape(0, 2) if a.shape == (0,) else a
    if a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind not in "iuf":
        raise ValueError(f"edges must be an (E, 2) array of node indices, got {a.dtype} {a.shape}")
    bad = (a != np.trunc(a)) | (a < 0) | (a >= n)
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise ValueError(f"edge index {a[k, j].item()!r} of edge {k} is not a node 0..{n - 1}")
    return a.astype(np.int64, copy=False)
