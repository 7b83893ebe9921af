"""Domain geometry and the transport ground metric.

The ground cost is c(x, y) = xi * ||x - y|| for a constant conformal
factor xi > 0. Geodesics of such a metric are straight segments, and
the closed eps-ball around x is the Euclidean ball of radius eps / xi.
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


class MetricCost:
    """Transport ground cost c(x, y) = xi * ||x - y|| with xi > 0."""

    def __init__(self, xi=1.0):
        if not xi > 0:
            raise ValueError("conformal factor xi must be positive")
        self.xi = float(xi)

    def distance(self, x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return self.xi * float(np.sqrt(np.dot(d, d)))
