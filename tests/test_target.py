"""Target density and quadrature tests.

Frozen expectations were computed with independent tooling: closed-form
Gaussian integrals for the refinement checks, and a by-hand raster walk
for the tiny PGM images.
"""

import tracemalloc

import numpy as np
import pytest

import swarm_ot as so
from swarm_ot import DensityField, Domain, PgmParseError, QuadratureGrid, load_pgm, target


def quad(n=64):
    return QuadratureGrid(Domain(), n)


def raw_at(field, x):
    """The field's unnormalized density at one point."""
    return float(field._raw_many(np.asarray(x, dtype=float))[0])


def test_uniform_density_is_one_on_unit_square():
    field = DensityField.uniform(Domain())
    q = quad()
    assert np.allclose(field.values_on(q), 1.0)
    assert field.values_on(q).sum() * q.cell_area == pytest.approx(1.0)


def test_a_target_on_a_quadrature_over_another_domain_is_an_error():
    # the unit-square uniform target on this quadrature ran, and its cell
    # masses summed to 4.0 instead of 1
    q = QuadratureGrid(Domain((-1.0, 2.0), (3.0, 3.0)), 32)
    field = DensityField.uniform()
    with pytest.raises(so.DomainMismatchError, match=r"\[0.0, 0.0\]-\[1.0, 1.0\]"):
        field.values_on(q)
    assert issubclass(so.DomainMismatchError, ValueError)  # the CLI reports it
    # an equal domain built separately is the same domain
    assert field.values_on(quad(8)).sum() * quad(8).cell_area == 1.0


def test_uniform_density_respects_domain_area():
    dom = Domain((0.0, 0.0), (2.0, 0.5))
    field = DensityField.uniform(dom)
    q = QuadratureGrid(dom, 16, 4)
    # the domain's area is one, so the density is one on it
    np.testing.assert_allclose(field.values_on(q), 1.0, rtol=1e-15)


def test_gaussian_mixture_matches_pointwise_formula():
    mean = np.array([0.4, 0.6])
    cov = np.array([[0.02, 0.0], [0.0, 0.05]])
    field = DensityField.gaussian_mixture(mean, cov)
    x = np.array([0.5, 0.5])
    d = x - mean
    expected = np.exp(-0.5 * d @ np.linalg.inv(cov) @ d) / (
        2.0 * np.pi * np.sqrt(np.linalg.det(cov))
    )
    assert raw_at(field, x) == pytest.approx(expected, rel=1e-12)


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


def test_gaussian_mixture_rejects_covariances_that_are_not_2x2():
    with pytest.raises(ValueError, match="2 x 2"):
        DensityField.gaussian_mixture([[0.5, 0.5]], [np.eye(3)])


def test_the_closed_form_covariance_algebra_matches_lapack():
    rng = np.random.default_rng(11)
    roots = rng.normal(size=(50, 2, 2))
    covs = roots @ roots.transpose(0, 2, 1) + 1e-3 * np.eye(2)
    field = DensityField.gaussian_mixture(rng.uniform(size=(50, 2)), covs)
    _, invs, norms, _ = field.payload
    np.testing.assert_allclose(invs, np.linalg.inv(covs), rtol=1e-9)
    dets = np.linalg.det(covs)
    np.testing.assert_allclose(norms, 1.0 / (2.0 * np.pi * np.sqrt(dets)), rtol=1e-12)


def test_fixed_exp_is_within_two_ulp_of_exp():
    # a target's exponents -quad/2 lie in (-inf, 0]; below -745.13 exp
    # underflows to 0, also far from a narrow Gaussian's mean
    rng = np.random.default_rng(5)
    x = np.concatenate([
        -rng.uniform(0.0, 750.0, 200_000), -rng.uniform(0.0, 1.0, 50_000),
        -np.logspace(-300, 2, 2_000), [0.0, -0.0, -708.5, -745.13, -745.14, -1e300, -np.inf],
    ])
    got, ref = target.fixed_exp(x), np.exp(x)
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.maximum(ref, 5e-324)))
    assert np.all(got[ref == 0.0] == 0.0)
    narrow = DensityField.gaussian_mixture([0.1, 0.1], 1e-4 * np.eye(2))
    assert raw_at(narrow, [0.9, 0.9]) == 0.0


def test_normalize_fixes_quadrature_integral():
    # values_on divides by the quadrature integral, so a field's overall
    # scale does not reach its values
    q = quad(128)
    field = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2))
    values = field.values_on(q)
    assert values.sum() * q.cell_area == pytest.approx(1.0, abs=1e-14)
    tripled = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2), weights=[3.0])
    np.testing.assert_allclose(tripled.values_on(q), values, rtol=1e-14)


def test_normalized_integral_is_stable_under_refinement():
    # the midpoint rule is second order, so going 64 -> 256 moves the
    # integral of this smooth truncated Gaussian, by which values_on
    # divides, by well under 1e-5
    field = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2))
    coarse, fine = quad(64), quad(256)
    integrals = [field._raw_on(q).sum() * q.cell_area for q in (coarse, fine)]
    assert integrals[0] == pytest.approx(integrals[1], rel=1e-5)


# a 32 x 32 dark disk on a white background, whose pixels a 100 x 100
# quadrature does not tile: normalized over its own pixels, its cell
# masses there summed to 1.00628
DISK = load_pgm(
    b"P2 32 32 255 " + b" ".join(
        b"0" if (ix - 15.5) ** 2 + (iy - 15.5) ** 2 <= 64 else b"255"
        for iy in range(32) for ix in range(32)
    )
)


@pytest.mark.parametrize("nx, ny", [(100, 100), (256, 256), (37, 11), (1, 1), (1, 5)])
def test_values_on_integrate_to_one_on_any_quadrature(nx, ny):
    q = QuadratureGrid(Domain(), nx, ny)
    part = so.build_partition(np.array([[0.5, 0.5]]), q)
    for field in [*_fields(), DISK]:
        assert so.cell_masses(part, field.values_on(q)).sum() == pytest.approx(1.0, abs=1e-12)


def _fields():
    mixture = DensityField.gaussian_mixture(
        [[0.3, 0.3], [0.7, 0.6]], [np.eye(2) * 0.02, [[0.03, 0.01], [0.01, 0.02]]], [1.0, 2.0]
    )
    raster = DensityField.raster(np.random.default_rng(3).uniform(size=(7, 5)))
    return [mixture, raster, DensityField.uniform()]


# 300 x 200 cells take blocks of 13 rows, which do not divide 200
@pytest.mark.parametrize("nx, ny", [(300, 200), (64, 64), (2, 3)])
def test_values_on_have_the_bits_of_one_pass_over_the_centers(nx, ny):
    q = QuadratureGrid(Domain(), nx, ny)
    for field in _fields():
        raw = field._raw_many(q.centers)
        assert field.values_on(q).tobytes() == (raw / (raw.sum() * q.cell_area)).tobytes()


def test_values_on_hold_no_table_of_every_center():
    q = quad(256)
    for field in _fields():
        field.values_on(q)  # warm-up
        tracemalloc.start()
        try:
            field.values_on(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the result is one node array; the (M, 2) centers alone are two
        assert peak < 2.5 * q.n_cells * 8


def test_degenerate_density_raises_on_normalize():
    field = DensityField.raster(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="degenerate target"):
        field.values_on(quad())
    # a dark pixel that no cell center of the quadrature reads
    speck = load_pgm(b"P2 4 1 255 0 255 255 255")
    with pytest.raises(ValueError, match="degenerate target"):
        speck.values_on(QuadratureGrid(Domain(), 1))


def test_raster_orientation_first_row_is_top():
    # bottom half dark (high), top half light (zero)
    field = DensityField.raster(np.array([[0.0, 0.0], [4.0, 4.0]]))
    assert raw_at(field, [0.5, 0.1]) == 4.0
    assert raw_at(field, [0.5, 0.9]) == 0.0


# --- PGM parsing ---


def test_pgm_ascii_one_by_two_darker_is_denser():
    # left pixel white (255), right pixel black (0): all mass on the right
    field = load_pgm(b"P2 2 1 255 255 0")
    q = quad()
    values = field.values_on(q).reshape(q.ny, q.nx)
    assert np.all(values[:, :32] == 0.0)
    np.testing.assert_allclose(values[:, 32:], 2.0, rtol=1e-15)


def test_pgm_binary_matches_ascii():
    ascii_img = b"P2\n3 2\n255\n10 20 30\n40 50 60\n"
    binary_img = b"P5\n3 2\n255\n" + bytes([10, 20, 30, 40, 50, 60])
    fa = load_pgm(ascii_img)
    fb = load_pgm(binary_img)
    np.testing.assert_allclose(fa.payload, fb.payload)


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
    field = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2))
    masses = so.cell_masses(part, field.values_on(q))
    assert masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_cell_masses_stable_under_quadrature_refinement():
    dom, qc, part_c = two_site_setup(64)
    _, qf, part_f = two_site_setup(256)
    field = DensityField.gaussian_mixture([0.5, 0.5], 2.0 * np.eye(2))
    coarse = so.cell_masses(part_c, field.values_on(qc))
    fine = so.cell_masses(part_f, field.values_on(qf))
    assert np.all(np.abs(coarse - fine) < 0.02 * fine)

