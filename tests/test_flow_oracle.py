"""Min-cost-flow oracle tests and its duality with the potential iteration.

The strong-duality checks are the heart of the validation story: the
iterative dual solver and the exact LP solver (HiGHS) on the flow side
take completely different routes to the same LP value.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import swarm_ot as so
from conftest import run_python
from swarm_ot import NeighborGraph, cli
from swarm_ot.config import ExperimentConfig
from swarm_ot.flow import incidence


def path_graph(costs):
    edges = [[k, k + 1] for k in range(len(costs))]
    return NeighborGraph(len(costs) + 1, edges, costs)


def test_the_cli_does_not_load_the_lp_solver_until_the_oracle_runs():
    # agents, pde and fig never call the oracle, so they should not pay
    # for importing scipy.optimize
    check = "import sys, swarm_ot.cli; print('scipy.optimize' in sys.modules)"
    result = run_python(["-c", check], timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_oracle_check_fails_an_instance_whose_flow_value_disagrees(monkeypatch, capsys):
    # a flow value off by 1 leaves a gap far above the 1e-4 the check accepts
    exact = cli.min_cost_flow

    def off_by_one(edges, costs, supplies):
        value, flow = exact(edges, costs, supplies)
        return value + 1.0, flow

    monkeypatch.setattr(cli, "min_cost_flow", off_by_one)
    assert cli.oracle_check(ExperimentConfig(seed=0), n_instances=1) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("instance 0: ") and lines[0].endswith(" FAIL")
    assert lines[-1] == "oracle check FAILED on 1/1 instances"


def test_zero_supplies_cost_nothing():
    g = path_graph([1.0, 2.0])
    value, flow = so.min_cost_flow(g.edges, g.costs, np.zeros(3))
    assert value == 0.0
    assert flow.tolist() == [0.0, 0.0]


def test_single_edge_ships_directly():
    value, flow = so.min_cost_flow([[0, 1]], [0.5], [0.4, -0.4])
    assert value == pytest.approx(0.2, abs=1e-12)
    assert flow == pytest.approx([0.4])


def test_two_hop_path_adds_costs():
    # 0.3 units travel 0 -> 1 -> 2 at cost 1 + 1 per unit
    g = path_graph([1.0, 1.0])
    value, flow = so.min_cost_flow(g.edges, g.costs, [0.3, 0.0, -0.3])
    assert value == pytest.approx(0.6, abs=1e-12)
    assert flow == pytest.approx([0.3, 0.3])


def test_cheaper_detour_wins():
    # triangle: direct edge 0-2 is pricier than going through node 1
    value, flow = so.min_cost_flow([[0, 1], [0, 2], [1, 2]], [1.0, 5.0, 1.0], [1.0, 0.0, -1.0])
    assert value == pytest.approx(2.0, abs=1e-12)
    assert flow[1] == 0.0


def test_value_scales_linearly_in_supplies():
    g = path_graph([0.7, 0.4])
    b = np.array([0.2, 0.1, -0.3])
    v1, _ = so.min_cost_flow(g.edges, g.costs, b)
    v2, _ = so.min_cost_flow(g.edges, g.costs, 3.0 * b)
    assert v2 == pytest.approx(3.0 * v1, rel=1e-12)


def test_unbalanced_supplies_are_rejected():
    with pytest.raises(ValueError, match="balance"):
        so.min_cost_flow([[0, 1]], [1.0], [0.5, -0.4])


@pytest.mark.parametrize(
    "edges, costs, supplies, names",
    [
        ([[0, 1]], [1.0], [np.nan, 0.0], "supplies"),
        ([[0, 1]], [1.0], [np.inf, -np.inf], "supplies"),
        ([[0, 1]], [np.nan], [0.5, -0.5], "costs"),
        ([[0, 1]], [np.inf], [0.5, -0.5], "costs"),
        ([[0, 1]], [-1.0], [0.5, -0.5], "costs"),
        ([[0, 2]], [1.0], [0.5, -0.5], "edge index"),
        ([[-1, 1]], [1.0], [0.5, -0.5], "edge index"),
        ([[0, 1]], [1.0, 2.0], [0.5, -0.5], "costs"),
        ([[0, 1], [1, 2]], [1.0], [0.5, 0.0, -0.5], "costs"),
    ],
)
def test_bad_inputs_raise_a_value_error_naming_them(edges, costs, supplies, names):
    # each once escaped as a scipy error or as a RuntimeError of an unbounded LP
    with pytest.raises(ValueError, match=names):
        so.min_cost_flow(edges, costs, supplies)


def test_disconnected_imbalance_is_infeasible():
    edges, costs = [[0, 1], [2, 3]], [1.0, 1.0]
    # component {0, 1} has net surplus that only component {2, 3} can absorb
    with pytest.raises(ValueError, match="infeasible"):
        so.min_cost_flow(edges, costs, [0.5, -0.25, -0.25, 0.0])
    # balance within each component is fine
    value, _ = so.min_cost_flow(edges, costs, [0.5, -0.5, -0.25, 0.25])
    assert value == pytest.approx(0.75)


@st.composite
def connected_flow_problems(draw):
    """(edges, costs, supplies) with supplies summing to zero on a connected
    edge list: a random spanning tree plus extra edges, or a 4-neighbor grid."""
    if draw(st.booleans()):
        nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        n, edges = nx * ny, so.grid_edges(nx, ny)
    else:
        n = draw(st.integers(2, 12))
        edges = {tuple(sorted((v, draw(st.integers(0, v - 1))))) for v in range(1, n)}
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {tuple(sorted(p)) for p in draw(st.lists(pairs, max_size=2 * n)) if p[0] != p[1]}
        edges = np.array(sorted(edges))
    costs = np.array(draw(st.lists(st.floats(0.01, 5.0), min_size=len(edges), max_size=len(edges))))
    raw = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return edges, costs, raw - raw.mean()


@settings(deadline=None, max_examples=100)
@given(connected_flow_problems())
# supplies below HiGHS's feasibility tolerance once came back as no flow;
# scaling them up must not magnify a rounding imbalance into infeasibility
@example((np.array([[0, 1]]), np.array([1.0]), np.array([-5e-10, 5e-10])))
@example((np.array([[0, 1]]), np.array([1.0]), np.array([0.0, -1.734723475976807e-18])))
@example((np.array([[0, 1]]), np.array([1.0]), np.array([0.0, 5e-324])))
def test_flows_conserve_supplies_on_graph_arcs(problem):
    edges, costs, supplies = problem
    value, flow = so.min_cost_flow(edges, costs, supplies)
    assert flow.shape == (len(edges),) and np.all(np.isfinite(flow))
    net = incidence(edges, len(supplies)).T @ flow
    np.testing.assert_allclose(net, supplies, rtol=0, atol=1e-12)
    assert value == pytest.approx(float(costs @ np.abs(flow)), rel=1e-12, abs=1e-15)


def test_strong_duality_on_random_graphs():
    # dual iterate value == flow value on connected random instances
    for trial in range(5):
        gen = so.SplitMix64(so.derive(99, trial))
        n = 4 + gen.next_u64() % 5
        sites = gen.uniforms(2 * n).reshape(n, 2)
        part = so.build_partition(sites, so.QuadratureGrid(so.Domain(), 48))
        g = so.neighbor_graph(part)
        masses = so.cell_masses(part, so.DensityField.uniform().values_on(part.q))
        b = so.mass_imbalance(masses)
        state, info = so.converge_pd(so.zero_state(g), b, g, tol=1e-9)
        assert info["converged"]
        value, _ = so.min_cost_flow(g.edges, g.costs, b)
        assert so.dual_objective(state.phi, b) == pytest.approx(value, abs=1e-6)


def test_two_node_duality_gap_is_tiny():
    g = NeighborGraph(2, [[0, 1]], [0.6])
    b = np.array([0.05, -0.05])
    state, info = so.converge_pd(so.zero_state(g), b, g, tol=1e-11)
    assert info["converged"]
    value, _ = so.min_cost_flow(g.edges, g.costs, b)
    assert abs(so.dual_objective(state.phi, b) - value) <= 1e-9


def test_balanced_instance_gives_zero_on_both_routes():
    g = path_graph([1.0, 1.0])
    b = np.zeros(3)
    state, _ = so.converge_pd(so.zero_state(g), b, g)
    value, _ = so.min_cost_flow(g.edges, g.costs, b)
    assert so.dual_objective(state.phi, b) == 0.0
    assert value == 0.0


def test_flow_value_upper_bounds_every_feasible_potential():
    # weak duality: any feasible phi gives phi . b <= flow value
    g = path_graph([1.0, 1.0])
    b = np.array([0.3, 0.0, -0.3])
    value, _ = so.min_cost_flow(g.edges, g.costs, b)
    gen = so.SplitMix64(5)
    for _ in range(50):
        phi = 2.0 * gen.uniforms(3) - 1.0
        if so.feasibility_violation(phi, g) == 0.0:
            assert so.dual_objective(phi, b) <= value + 1e-12


def test_discrete_ot_identity_and_known_pairing():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert so.discrete_ot_cost(pts, pts) == 0.0
    # translating both points by 0.5 means each moves 0.5 under the
    # identity pairing, and any other pairing only moves them farther
    shifted = pts + np.array([0.5, 0.0])
    assert so.discrete_ot_cost(pts, shifted) == pytest.approx(0.5)


def test_discrete_ot_finds_the_crossing_free_matching():
    src = np.array([[0.0, 0.0], [1.0, 0.0]])
    dst = np.array([[1.1, 0.0], [0.1, 0.0]])
    # (0 -> 0.1, 1 -> 1.1) costs 0.1 each; the crossing costs 1.1 and 0.9
    assert so.discrete_ot_cost(src, dst) == pytest.approx(0.1)


def test_discrete_ot_is_permutation_invariant_and_symmetric():
    gen = so.SplitMix64(17)
    src = gen.uniforms(10).reshape(5, 2)
    dst = gen.uniforms(10).reshape(5, 2)
    base = so.discrete_ot_cost(src, dst)
    perm = np.array([3, 1, 4, 0, 2])
    assert so.discrete_ot_cost(src[perm], dst) == pytest.approx(base, rel=1e-12)
    assert so.discrete_ot_cost(dst, src) == pytest.approx(base, rel=1e-12)


def test_discrete_ot_rejects_mismatched_sets():
    with pytest.raises(ValueError):
        so.discrete_ot_cost(np.zeros((3, 2)), np.zeros((4, 2)))
