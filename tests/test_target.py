"""Target density and quadrature tests.

Frozen expectations were computed with independent tooling: closed-form
Gaussian integrals for the refinement checks, and a by-hand raster walk
for the tiny PGM images.
"""

import numpy as np
import pytest

import swarm_ot as so
from swarm_ot import DensityField, Domain, PgmParseError, QuadratureGrid, load_pgm


def quad(n=64):
    return QuadratureGrid(Domain(), n)


def test_uniform_density_is_one_on_unit_square():
    field = DensityField.uniform(Domain())
    assert field.density_at(np.array([0.3, 0.7])) == pytest.approx(1.0)
    q = quad()
    assert np.allclose(field.values_on(q), 1.0)
    assert field.values_on(q).sum() * q.cell_area == pytest.approx(1.0)


def test_uniform_density_respects_domain_area():
    dom = Domain((0.0, 0.0), (2.0, 0.5))
    field = DensityField.uniform(dom)
    assert field.density_at(np.array([1.0, 0.25])) == pytest.approx(1.0)


def test_gaussian_mixture_matches_pointwise_formula():
    mean = np.array([0.4, 0.6])
    cov = np.array([[0.02, 0.0], [0.0, 0.05]])
    field = DensityField.gaussian_mixture(mean, cov)
    x = np.array([0.5, 0.5])
    d = x - mean
    expected = np.exp(-0.5 * d @ np.linalg.inv(cov) @ d) / (
        2.0 * np.pi * np.sqrt(np.linalg.det(cov))
    )
    assert field.density_at(x) == pytest.approx(expected, rel=1e-12)


def test_gaussian_mixture_rejects_bad_covariance():
    with pytest.raises(ValueError):
        DensityField.gaussian_mixture([[0.5, 0.5]], [[[0.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ValueError):
        DensityField.gaussian_mixture([[0.5, 0.5]], [[[1.0, 2.0], [0.0, 1.0]]])
    with pytest.raises(ValueError):
        # symmetric with a positive determinant, but negative definite
        DensityField.gaussian_mixture([[0.5, 0.5]], [-0.05 * np.eye(2)])
    with pytest.raises(ValueError):
        DensityField.gaussian_mixture([[0.5, 0.5]], [np.eye(2)], weights=[-1.0])


def test_normalize_fixes_quadrature_integral():
    field = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2))
    q = quad(128)
    normalized = field.normalize(q)
    assert normalized.values_on(q).sum() * q.cell_area == pytest.approx(1.0, abs=1e-14)
    # normalizing twice changes nothing
    again = normalized.normalize(q)
    assert again.normalizer == pytest.approx(normalized.normalizer, rel=1e-14)


def test_normalized_integral_is_stable_under_refinement():
    # the midpoint rule is second order, so going 64 -> 256 moves the
    # integral of this smooth truncated Gaussian by well under 1e-5
    field = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2))
    coarse = field.normalize(quad(64))
    fine = quad(256)
    integral = coarse.values_on(fine).sum() * fine.cell_area
    assert integral == pytest.approx(1.0, abs=1e-5)


def test_density_at_rejects_outside_points():
    field = DensityField.uniform(Domain())
    with pytest.raises(ValueError):
        field.density_at(np.array([1.2, 0.5]))


def test_degenerate_density_raises_on_normalize():
    field = DensityField.raster(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        field.normalize(quad())


def test_raster_orientation_first_row_is_top():
    # bottom half dark (high), top half light (zero)
    field = DensityField.raster(np.array([[0.0, 0.0], [4.0, 4.0]]))
    assert field.density_at(np.array([0.5, 0.1])) == pytest.approx(4.0)
    assert field.density_at(np.array([0.5, 0.9])) == pytest.approx(0.0)


# --- PGM parsing ---


def test_pgm_ascii_one_by_two_darker_is_denser():
    # left pixel white (255), right pixel black (0): all mass on the right
    field = load_pgm(b"P2 2 1 255 255 0")
    assert field.density_at(np.array([0.25, 0.5])) == pytest.approx(0.0)
    assert field.density_at(np.array([0.75, 0.5])) == pytest.approx(2.0)
    q = quad()
    assert field.values_on(q).sum() * q.cell_area == pytest.approx(1.0)


def test_pgm_binary_matches_ascii():
    ascii_img = b"P2\n3 2\n255\n10 20 30\n40 50 60\n"
    binary_img = b"P5\n3 2\n255\n" + bytes([10, 20, 30, 40, 50, 60])
    fa = load_pgm(ascii_img)
    fb = load_pgm(binary_img)
    np.testing.assert_allclose(fa.payload, fb.payload)
    assert fa.normalizer == pytest.approx(fb.normalizer)


def test_pgm_sixteen_bit_binary_is_big_endian():
    img = b"P5 2 1 65535 " + (1000).to_bytes(2, "big") + (64535).to_bytes(2, "big")
    field = load_pgm(img)
    np.testing.assert_allclose(field.payload, [[64535.0, 1000.0]])


def test_pgm_comments_and_whitespace_are_skipped():
    img = b"P2 # comment\n# another\n 2 1 # sizes\n 255\n 0 255\n"
    field = load_pgm(img)
    np.testing.assert_allclose(field.payload, [[255.0, 0.0]])


def test_pgm_errors_carry_byte_offsets():
    with pytest.raises(PgmParseError) as err:
        load_pgm(b"P3 2 1 255 0 0")
    assert "magic" in str(err.value) and "at byte 0" in str(err.value)

    with pytest.raises(PgmParseError) as err:
        load_pgm(b"P2 2 1 70000 0 0")
    assert err.value.offset == 7

    with pytest.raises(PgmParseError) as err:
        load_pgm(b"P5 2 1 255 " + bytes([7]))
    assert "truncated" in str(err.value)

    with pytest.raises(PgmParseError) as err:
        load_pgm(b"P2 2 1 255 0 99 13")
    assert "trailing" in str(err.value)

    with pytest.raises(PgmParseError):
        load_pgm(b"P2 2 1 255 0 abc")


def test_pgm_header_larger_than_the_data_is_a_parse_error():
    # 2**40 declared ascii pixels in a 26-byte file: rejected at the
    # header before any pixel buffer is allocated
    data = b"P2\n1048576 1048576\n255\n0 0"
    assert len(data) == 26
    with pytest.raises(PgmParseError) as err:
        load_pgm(data)
    assert err.value.offset == 3


def test_pgm_rejects_pixels_above_maxval():
    with pytest.raises(PgmParseError):
        load_pgm(b"P2 2 1 100 0 101")


def test_pgm_all_white_is_degenerate():
    with pytest.raises(ValueError):
        load_pgm(b"P2 2 1 255 255 255")


# --- cell masses over a partition ---


def two_site_setup(n=256):
    dom = Domain()
    q = QuadratureGrid(dom, n)
    sites = np.array([[0.25, 0.5], [0.85, 0.5]])
    part = so.build_partition(sites, q)
    return dom, q, part


def test_cell_masses_of_uniform_two_site_partition():
    # the bisector x = 0.55 splits a 256-wide grid into 141 and 115
    # columns of cell centers, so the masses are 141/256 and 115/256
    dom, q, part = two_site_setup()
    masses = so.cell_masses(part, DensityField.uniform(dom).values_on(q))
    assert masses[0] == pytest.approx(141.0 / 256.0, abs=1e-12)
    assert masses[1] == pytest.approx(115.0 / 256.0, abs=1e-12)
    # and those agree with the exact split 0.55 / 0.45 up to grid snap
    assert masses[0] == pytest.approx(0.55, abs=0.004)


def test_cell_masses_partition_of_unity():
    dom, q, part = two_site_setup()
    field = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2)).normalize(q)
    masses = so.cell_masses(part, field.values_on(q))
    assert masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_cell_masses_stable_under_quadrature_refinement():
    dom, qc, part_c = two_site_setup(64)
    _, qf, part_f = two_site_setup(256)
    field = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2))
    coarse = so.cell_masses(part_c, field.normalize(qc).values_on(qc))
    fine = so.cell_masses(part_f, field.normalize(qf).values_on(qf))
    assert np.all(np.abs(coarse - fine) < 0.02 * fine)

