"""Domain geometry.

The transport ground cost is the Euclidean length c(x, y) = ||x - y||,
so its geodesics are straight segments and the closed eps-ball around x
is the Euclidean ball of radius eps.
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

