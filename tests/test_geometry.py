"""Domain and metric cost tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swarm_ot import Domain, MetricCost

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
points = st.tuples(coords, coords).map(np.array)


def test_unit_square_defaults():
    dom = Domain()
    assert np.allclose(dom.lo, [0.0, 0.0])
    assert np.allclose(dom.hi, [1.0, 1.0])
    assert np.allclose(dom.extent, [1.0, 1.0])


def test_domain_rejects_empty_rectangle():
    with pytest.raises(ValueError):
        Domain((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        Domain((0.5, 0.0), (0.2, 1.0))


def test_clamp_and_contains():
    dom = Domain()
    assert dom.contains(np.array([0.5, 0.5]))
    assert not dom.contains(np.array([1.5, 0.5]))
    assert np.allclose(dom.clamp(np.array([1.5, -0.2])), [1.0, 0.0])
    # boundary points belong to the closed domain
    assert dom.contains(np.array([0.0, 1.0]))


def test_distance_matches_scaled_euclidean():
    cost = MetricCost(xi=2.5)
    x = np.array([0.0, 0.0])
    y = np.array([3.0, 4.0])
    assert cost.distance(x, y) == pytest.approx(12.5)


def test_xi_must_be_positive():
    with pytest.raises(ValueError):
        MetricCost(xi=0.0)
    with pytest.raises(ValueError):
        MetricCost(xi=-1.0)


@given(points, points, points)
def test_metric_axioms(x, y, z):
    cost = MetricCost(xi=1.7)
    assert cost.distance(x, y) >= 0.0
    assert cost.distance(x, y) == pytest.approx(cost.distance(y, x), abs=1e-12)
    assert cost.distance(x, z) <= cost.distance(x, y) + cost.distance(y, z) + 1e-12
    assert cost.distance(x, x) == 0.0


@given(points, points, st.floats(min_value=0.0, max_value=1.0))
def test_geodesic_point_splits_distance_proportionally(x, y, s):
    # geodesics of a constant conformal factor are straight segments, so
    # the point at parameter s splits the distance additively
    cost = MetricCost()
    mid = (1.0 - s) * x + s * y
    d = cost.distance(x, y)
    assert cost.distance(x, mid) == pytest.approx(s * d, abs=1e-9)
    assert cost.distance(mid, y) == pytest.approx((1.0 - s) * d, abs=1e-9)
