"""Target density fields: analytic Gaussian mixtures and raster images.

A field is an unnormalized nonnegative shape over the domain, and
`values_on(q)` alone normalizes it: the midpoint rule of the quadrature
q integrates its values to one. `load_pgm` ingests grayscale images
with the convention that darker pixels mean higher target density.
Raster lookup is nearest-cell (piecewise constant).
"""

import numpy as np

from .geometry import Domain

_WS = frozenset(b" \t\r\n\x0b\x0c")

# quadrature cells whose temporaries `DensityField.values_on` holds at one
# time, rounded to whole grid rows
BLOCK = 4096


# fdlibm's exp: ln 2 split so that k * _LN2_HI is exact for |k| < 2**20,
# and the minimax coefficients of its rational approximation on
# [-ln(2)/2, ln(2)/2]
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e00
_P = (1.66666666666666019037e-01, -2.77777777770155933842e-03, 6.61375632143793436117e-05,
      -1.65339022054652515390e-06, 4.13813679705723846039e-08)


def fixed_exp(x):
    """exp(x) elementwise for x <= 709, from IEEE basic operations alone.

    fdlibm's algorithm: Cody-Waite reduction x = k ln 2 + r with
    |r| <= ln(2)/2, a fixed rational approximation of exp(r), and
    `np.ldexp` for the 2**k; within 1 ulp of exp. `np.exp` picks its
    loop by the CPU's SIMD features and rounds differently on each,
    where this rounds the same on any CPU. Below -746, where exp
    underflows to 0, x is clamped there.
    """
    x = np.maximum(x, -746.0)
    k = np.rint(x * _INV_LN2)
    lo = k * _LN2_LO
    x -= k * _LN2_HI  # exact: the high part of r
    r = x - lo
    t = r * r
    c = _P[4] * t
    for p in _P[3::-1]:
        c += p
        c *= t
    c = r - c
    y = r * c
    y /= 2.0 - c
    y = 1.0 - ((lo - y) - x)
    return np.ldexp(y, k.astype(np.int64))


class PgmParseError(ValueError):
    """Malformed PGM input; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


class DomainMismatchError(ValueError):
    """A field evaluated on a quadrature over another domain."""


class QuadratureGrid:
    """Midpoint-rule quadrature cells over a rectangular domain."""

    def __init__(self, domain, nx=256, ny=None):
        if ny is None:
            ny = nx
        nx, ny = int(nx), int(ny)
        if nx < 1 or ny < 1:
            raise ValueError("a quadrature needs at least one cell per axis")
        self.domain = domain
        self.nx = nx
        self.ny = ny
        ext = domain.extent
        self.cell_area = float(ext[0] * ext[1] / (nx * ny))
        self.xs = domain.lo[0] + (np.arange(nx) + 0.5) * ext[0] / nx
        self.ys = domain.lo[1] + (np.arange(ny) + 0.5) * ext[1] / ny

    @property
    def n_cells(self):
        return self.nx * self.ny

    @property
    def centers(self):
        """(M, 2) cell centers, built on each access; row-major: cell
        j*nx + i sits at (xs[i], ys[j])."""
        return self.row_centers(0, self.ny)

    def row_centers(self, start, stop):
        """Cell centers of the grid rows [start, stop), in `centers` order."""
        X, Y = np.meshgrid(self.xs, self.ys[start:stop])
        return np.column_stack([X.ravel(), Y.ravel()])


class DensityField:
    """Unnormalized density shape over a domain, analytic or raster-backed.

    Use the `gaussian_mixture`, `raster`, or `uniform` constructors.
    A field carries no scale: `values_on(q)` normalizes it on the
    quadrature that discretizes it.
    """

    def __init__(self, kind, payload, domain):
        if kind not in ("gaussian_mixture", "raster"):
            raise ValueError(f"unknown density kind '{kind}'")
        self.kind = kind
        self.payload = payload
        self.domain = domain

    @classmethod
    def gaussian_mixture(cls, means, covariances, weights=None, domain=None):
        """Weighted sum of bivariate Gaussian pdfs, truncated to the domain."""
        domain = domain if domain is not None else Domain()
        means = np.atleast_2d(np.asarray(means, dtype=float))
        covariances = np.asarray(covariances, dtype=float)
        if covariances.ndim == 2:
            covariances = covariances[None, :, :]
        if weights is None:
            weights = np.ones(len(means))
        weights = np.asarray(weights, dtype=float)
        if not (len(means) == len(covariances) == len(weights)):
            raise ValueError("means, covariances, and weights must have equal length")
        if np.any(weights <= 0):
            raise ValueError("mixture weights must be positive")
        if covariances.shape[1:] != (2, 2):
            raise ValueError("covariances must be 2 x 2 matrices")
        a, b, c, d = (covariances[:, i, j] for i in (0, 1) for j in (0, 1))
        det = a * d - b * c
        # a symmetric 2 x 2 matrix is positive definite exactly when its
        # first entry and its determinant are positive; a positive
        # determinant alone also admits negative definite matrices, whose
        # "pdf" grows away from the mean
        symmetric = np.allclose(covariances, np.swapaxes(covariances, 1, 2))
        if not (symmetric and np.all(a > 0) and np.all(det > 0)):
            raise ValueError("covariances must be symmetric positive definite")
        invs = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2) / det[:, None, None]
        norms = 1.0 / (2.0 * np.pi * np.sqrt(det))
        payload = (means, invs, norms, weights)
        return cls("gaussian_mixture", payload, domain)

    @classmethod
    def raster(cls, values, domain=None):
        """Piecewise-constant field; values[0, :] is the max-y row."""
        domain = domain if domain is not None else Domain()
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("raster values must be a 2-D array")
        if np.any(values < 0):
            raise ValueError("raster values must be nonnegative")
        return cls("raster", values, domain)

    @classmethod
    def uniform(cls, domain=None):
        return cls.raster(np.ones((1, 1)), domain)

    def _raw_many(self, points):
        """Unnormalized density at an (M, 2) array of points, in one pass:
        `_raw_on` hands it a block of grid rows at a time."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "gaussian_mixture":
            means, invs, norms, weights = self.payload
            total = np.zeros(len(points))
            for m, inv, nrm, w in zip(means, invs, norms, weights):
                d = points - m
                total += w * nrm * fixed_exp(-0.5 * np.einsum("ij,jk,ik->i", d, inv, d))
            return total
        values = self.payload
        h, w = values.shape
        lo, ext = self.domain.lo, self.domain.extent
        col = np.clip((points[:, 0] - lo[0]) / ext[0] * w, 0, w - 1e-9).astype(int)
        # image row 0 maps to the top (max-y) edge of the domain
        row = np.clip((self.domain.hi[1] - points[:, 1]) / ext[1] * h, 0, h - 1e-9).astype(int)
        return values[row, col]

    def values_on(self, q):
        """Density at every quadrature cell center of q, normalized so that
        q's midpoint rule integrates it to one.

        A DomainMismatchError unless q covers the field's own domain:
        elsewhere the values would not integrate to one over the domain.
        The field is evaluated a block of grid rows at a time, so no (M, 2)
        table of centers is built; each value has the bits of one pass over
        them, divided by their quadrature integral. A target whose integral
        on q is not positive is a ValueError.
        """
        values = self._raw_on(q)
        total = float(values.sum() * q.cell_area)
        if not total > 0:
            raise ValueError("degenerate target: density integrates to zero")
        values /= total
        return values

    def _raw_on(self, q):
        """Unnormalized density at every quadrature cell center of q, which
        must cover the field's domain."""
        mine, theirs = self.domain, q.domain
        if not (np.array_equal(mine.lo, theirs.lo) and np.array_equal(mine.hi, theirs.hi)):
            raise DomainMismatchError(
                f"the target's domain {mine.lo.tolist()}-{mine.hi.tolist()} is not "
                f"the quadrature's {theirs.lo.tolist()}-{theirs.hi.tolist()}"
            )
        values = np.empty(q.n_cells)
        step = max(1, BLOCK // q.nx)
        for start in range(0, q.ny, step):
            stop = start + step
            values[start * q.nx : stop * q.nx] = self._raw_many(q.row_centers(start, stop))
        return values


def load_pgm(data, domain=None):
    """Parse a PGM image (P2 ascii or P5 binary) into a raster density field.

    Darker pixels mean higher density: the raster value is maxval - pixel.
    Image rows map onto the domain top-down (first row at the max-y edge).
    An entirely white image, which carries no mass, is a ValueError.
    """
    domain = domain if domain is not None else Domain()
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("load_pgm expects bytes")
    data = bytes(data)

    def skip_ws(pos):
        while pos < len(data):
            b = data[pos]
            if b in _WS:
                pos += 1
            elif b == 0x23:  # '#' comment to end of line
                while pos < len(data) and data[pos] not in (0x0A, 0x0D):
                    pos += 1
            else:
                break
        return pos

    def read_token(pos, what):
        pos = skip_ws(pos)
        if pos >= len(data):
            raise PgmParseError(f"unexpected end of data reading {what}", pos)
        start = pos
        while pos < len(data) and data[pos] not in _WS and data[pos] != 0x23:
            pos += 1
        return data[start:pos], start, pos

    def read_int(pos, what, lo, hi):
        tok, start, pos = read_token(pos, what)
        try:
            val = int(tok)
        except ValueError:
            raise PgmParseError(f"malformed {what} {tok!r}", start) from None
        if not lo <= val <= hi:
            raise PgmParseError(f"{what} {val} out of range [{lo}, {hi}]", start)
        return val, pos

    magic, magic_at, pos = read_token(0, "magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"not a PGM image (magic {magic!r})", magic_at)
    dims_at = skip_ws(pos)
    width, pos = read_int(pos, "width", 1, 1 << 30)
    height, pos = read_int(pos, "height", 1, 1 << 30)
    maxval, pos = read_int(pos, "maxval", 1, 65535)
    count = width * height

    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WS:
            raise PgmParseError("missing whitespace after maxval", pos)
        pos += 1
        stride = 2 if maxval > 255 else 1
        need = count * stride
        if len(data) - pos < need:
            raise PgmParseError(
                f"truncated pixel data: need {need} bytes, have {len(data) - pos}", pos
            )
        dtype = ">u2" if stride == 2 else np.uint8
        pixels = np.frombuffer(data, dtype=dtype, count=count, offset=pos).astype(int)
        bad = np.nonzero(pixels > maxval)[0]
        if bad.size:
            raise PgmParseError(
                f"pixel value {pixels[bad[0]]} exceeds maxval {maxval}",
                pos + int(bad[0]) * stride,
            )
    else:
        # every ascii pixel takes at least one byte, so a header that
        # declares more pixels than bytes remain is rejected before the
        # pixel buffer is allocated
        if count > len(data) - pos:
            raise PgmParseError(
                f"header declares {width}x{height} pixels but only {len(data) - pos} bytes follow",
                dims_at,
            )
        pixels = np.empty(count, dtype=int)
        for k in range(count):
            val, pos = read_int(pos, "pixel", 0, maxval)
            pixels[k] = val
        tail = skip_ws(pos)
        if tail != len(data):
            raise PgmParseError("trailing data after pixels", tail)

    values = (maxval - pixels).reshape(height, width).astype(float)
    if not values.any():
        raise ValueError("degenerate target: image is entirely white")
    return DensityField.raster(values, domain)


def cell_masses(partition, density_values):
    """Per-agent target masses of the partition cells, summing to one.

    `density_values` is the target's `values_on(partition.q)`, evaluated
    once a run by the caller; each is weighted by `partition.q.cell_area`.
    """
    weights = density_values * partition.q.cell_area
    return np.bincount(partition.owner, weights=weights, minlength=len(partition.sites))
