"""Check the distributed potential estimate against an exact flow solver.

Agents partition the unit square into nearest-site cells, and each
agent knows only its own target mass and the distances to the owners
of adjacent cells. The primal-dual iteration run on that neighbor
graph should reach the same optimal value as a centralized min-cost
flow solved on the identical graph: the two are a dual pair, so the
gap between them measures how far the iteration is from the saddle.

Run with: python3 demos/potential_duality_demo.py
"""

import numpy as np

from swarm_ot import (
    DensityField,
    Domain,
    FlowProblem,
    MetricCost,
    QuadratureGrid,
    SplitMix64,
    build_partition,
    cell_masses,
    converge_pd,
    derive,
    dual_objective,
    feasibility_violation,
    is_connected,
    mass_imbalance,
    min_cost_flow,
    neighbor_graph,
    zero_state,
)

domain = Domain()
metric = MetricCost()
q = QuadratureGrid(domain, 64)
dens = DensityField.uniform().values_on(q)

print("site sets of growing size, uniform target, 64x64 quadrature")
print(f"{'n':>4} {'dual objective':>16} {'flow value':>16} {'gap':>10} "
      f"{'worst edge':>10} {'iters':>7}")

for n in (3, 5, 8, 12, 20):
    gen = SplitMix64(derive(0, 11, n))
    sites = gen.uniforms(2 * n).reshape(n, 2)
    partition = build_partition(sites, q)
    graph = neighbor_graph(partition, metric)
    assert is_connected(graph), "every site owns cells on a shared raster"

    b = mass_imbalance(cell_masses(partition, dens))
    state, info = converge_pd(zero_state(graph), b, graph, tol=1e-10)
    dual = dual_objective(state.phi, b)
    flow, _ = min_cost_flow(FlowProblem(graph, b))

    print(f"{n:>4} {dual:>16.10f} {flow:>16.10f} {abs(dual - flow):>10.2e} "
          f"{feasibility_violation(state.phi, graph):>10.2e} "
          f"{info['iterations']:>7}")

print()
print("the gap column is the duality gap; at the saddle it vanishes, so")
print("anything at round-off scale certifies both routes simultaneously.")
