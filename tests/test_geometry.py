"""Domain tests."""

import numpy as np
import pytest

from swarm_ot import Domain


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

