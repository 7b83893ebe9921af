"""Target density fields: analytic Gaussian mixtures and raster images.

A field evaluates a nonnegative density over the domain. `normalize`
fixes the scale so midpoint-rule quadrature over the domain equals one;
`load_pgm` ingests grayscale images with the convention that darker
pixels mean higher target density. Raster lookup is nearest-cell
(piecewise constant).
"""

import numpy as np

from .geometry import Domain

_WS = frozenset(b" \t\r\n\x0b\x0c")


class PgmParseError(ValueError):
    """Malformed PGM input; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


class QuadratureGrid:
    """Midpoint-rule quadrature cells over a rectangular domain."""

    def __init__(self, domain, nx=256, ny=None):
        if ny is None:
            ny = nx
        nx, ny = int(nx), int(ny)
        if nx < 2 or ny < 2:
            raise ValueError("quadrature resolution must be at least 2x2")
        self.domain = domain
        self.nx = nx
        self.ny = ny
        ext = domain.extent
        self.cell_area = float(ext[0] * ext[1] / (nx * ny))
        self.xs = domain.lo[0] + (np.arange(nx) + 0.5) * ext[0] / nx
        self.ys = domain.lo[1] + (np.arange(ny) + 0.5) * ext[1] / ny
        X, Y = np.meshgrid(self.xs, self.ys)  # row-major: cell j*nx + i sits at (xs[i], ys[j])
        self.centers = np.column_stack([X.ravel(), Y.ravel()])

    @property
    def n_cells(self):
        return self.nx * self.ny


class DensityField:
    """Normalized density over a domain, analytic or raster-backed.

    Use the `gaussian_mixture`, `raster`, or `uniform` constructors.
    `normalizer` divides the raw values; `normalize` adjusts it so the
    quadrature integral over the domain is one.
    """

    def __init__(self, kind, payload, domain, normalizer=1.0):
        if kind not in ("gaussian_mixture", "raster"):
            raise ValueError(f"unknown density kind '{kind}'")
        if not normalizer > 0:
            raise ValueError("normalizer must be positive")
        self.kind = kind
        self.payload = payload
        self.domain = domain
        self.normalizer = float(normalizer)

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
        invs, norms = [], []
        for cov in covariances:
            det = float(np.linalg.det(cov))
            # a positive determinant alone also admits negative definite
            # matrices, whose "pdf" grows away from the mean
            if det <= 0 or not np.allclose(cov, cov.T) or np.any(np.linalg.eigvalsh(cov) <= 0):
                raise ValueError("covariances must be symmetric positive definite")
            invs.append(np.linalg.inv(cov))
            norms.append(1.0 / (2.0 * np.pi * np.sqrt(det)))
        payload = (means, np.array(invs), np.array(norms), weights)
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
        domain = domain if domain is not None else Domain()
        field = cls.raster(np.ones((2, 2)), domain)
        area = float(domain.extent[0] * domain.extent[1])
        field.normalizer = area
        return field

    def _raw_many(self, points):
        """Unnormalized density at an (M, 2) array of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "gaussian_mixture":
            means, invs, norms, weights = self.payload
            total = np.zeros(len(points))
            for m, inv, nrm, w in zip(means, invs, norms, weights):
                d = points - m
                quad = np.einsum("ij,jk,ik->i", d, inv, d)
                total += w * nrm * np.exp(-0.5 * quad)
            return total
        values = self.payload
        h, w = values.shape
        lo, ext = self.domain.lo, self.domain.extent
        col = np.clip((points[:, 0] - lo[0]) / ext[0] * w, 0, w - 1e-9).astype(int)
        # image row 0 maps to the top (max-y) edge of the domain
        row = np.clip((self.domain.hi[1] - points[:, 1]) / ext[1] * h, 0, h - 1e-9).astype(int)
        return values[row, col]

    def density_at(self, x):
        """Normalized density at a single point of the domain."""
        x = np.asarray(x, dtype=float)
        if not self.domain.contains(x):
            raise ValueError(f"point {x.tolist()} lies outside the domain")
        return float(self._raw_many(x[None, :])[0] / self.normalizer)

    def values_on(self, q):
        """Normalized density at every quadrature cell center."""
        return self._raw_many(q.centers) / self.normalizer

    def normalize(self, q):
        """Return a copy rescaled so quadrature over the domain equals one."""
        total = float(self.values_on(q).sum() * q.cell_area)
        if total <= 0:
            raise ValueError("degenerate target: density integrates to zero")
        return DensityField(self.kind, self.payload, self.domain, self.normalizer * total)


def load_pgm(data, domain=None):
    """Parse a PGM image (P2 ascii or P5 binary) into a raster density field.

    Darker pixels mean higher density: the raster value is maxval - pixel.
    Image rows map onto the domain top-down (first row at the max-y edge).
    The returned field integrates to one over the domain (exactly, using
    the image's own cells as the quadrature).
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
    field = DensityField.raster(values, domain)
    area = float(domain.extent[0] * domain.extent[1])
    integral = float(values.mean() * area)
    if integral <= 0:
        raise ValueError("degenerate target: image is entirely white")
    field.normalizer = integral
    return field


def cell_masses(partition, density_values):
    """Per-agent target masses of the partition cells, summing to one.

    `density_values` is the target's `values_on(partition.q)`, evaluated
    once a run by the caller; each is weighted by `partition.q.cell_area`.
    """
    weights = density_values * partition.q.cell_area
    return np.bincount(partition.owner, weights=weights, minlength=len(partition.sites))
