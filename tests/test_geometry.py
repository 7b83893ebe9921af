"""Domain, edge-list and length tests."""

import numpy as np
import pytest

from swarm_ot import Domain, NeighborGraph, PotentialState, min_cost_flow
from swarm_ot.geometry import edge_list


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


# each entry point on three nodes, with one cost and one multiplier per edge
EDGE_READERS = {
    "NeighborGraph": lambda edges: NeighborGraph(3, edges, np.ones(len(edges))),
    "PotentialState": lambda edges: PotentialState(np.zeros(3), np.ones(len(edges)), edges),
    "min_cost_flow": lambda edges: min_cost_flow(edges, np.ones(len(edges)), np.zeros(3)),
}


@pytest.mark.parametrize("reader", EDGE_READERS.values(), ids=EDGE_READERS.keys())
@pytest.mark.parametrize(
    "edges, names",
    [
        # once read as the two edges (0, 1) and (1, 2)
        ([[0, 1, 1, 2]], r"\(E, 2\) array of node indices, got int64 \(1, 4\)"),
        ([0, 1], r"got int64 \(2,\)"),
        ([[[0, 1]]], r"got int64 \(1, 1, 2\)"),
        ([["0", "1"]], r"got <U1 \(1, 2\)"),
        ([[True, False]], r"got bool \(1, 2\)"),
        # once read as node 2
        ([[0, 1], [1, 2.7]], r"edge index 2\.7 of edge 1 is not a node 0\.\.2"),
        ([[0, np.nan]], r"edge index nan of edge 0"),
        ([[0, np.inf]], r"edge index inf of edge 0"),
        # once accepted, to fail later inside np.bincount or as an IndexError
        ([[0, 1], [1, -1]], r"edge index -1 of edge 1 is not a node 0\.\.2"),
        ([[0, 1], [1, 5]], r"edge index 5 of edge 1 is not a node 0\.\.2"),
    ],
)
def test_every_edge_list_is_read_by_one_check(reader, edges, names):
    with pytest.raises(ValueError, match=names):
        reader(edges)


@pytest.mark.parametrize("edges", [[], [[0, 1], [1, 2]], np.array([[0.0, 1.0], [1.0, 2.0]])])
def test_an_edge_list_of_integer_values_is_read_as_int64_pairs(edges):
    read = edge_list(edges, 3)
    assert read.dtype == np.int64 and read.shape == (len(edges), 2)
    assert np.array_equal(read, np.reshape(edges, (-1, 2)))
    for reader in EDGE_READERS.values():
        reader(edges)
