"""Watch a swarm quantize a Gaussian target, varying the inner budget.

Thirty agents start uniformly at random and take proximal transport
steps toward equal shares of a two-bump Gaussian mixture. The only
coupling between agents is the potential estimate computed on the
cell-neighbor graph, so the number of inner estimation iterations per
round (n) controls how good the descent direction is. One iteration
per round is already enough to drive the mass variance down; ten
iterations buy a visibly faster and cleaner descent.

Run with: python3 demos/agent_quantization_demo.py
"""

import numpy as np

from swarm_ot import (
    DensityField,
    Domain,
    QuadratureGrid,
    TransportConfig,
    initial_positions,
    run_experiment,
)

domain = Domain()
q = QuadratureGrid(domain, 256)
# the target's density at the quadrature cells, normalized on them
dens = DensityField.gaussian_mixture(
    means=[[0.3, 0.3], [0.7, 0.75]],
    covariances=[[[0.03, 0.0], [0.0, 0.03]], [[0.03, 0.0], [0.0, 0.03]]],
).values_on(q)

seed = 1
n_agents = 30
rounds = 60
runs = {}  # inner budget -> (every round's record, the last round's cell masses)
for inner in (1, 10):
    cfg = TransportConfig(eps=0.02, tau=1.0, inner_iters=inner, rounds=rounds)
    positions = initial_positions(n_agents, domain, seed)
    records = []

    def keep(state, cells, record):
        # the loop hands over every round; keep its record and its masses
        records.append(record)
        runs[inner] = (records, cells.masses)

    run_experiment(positions, cfg, dens, q, keep, seed=seed)

print(f"{n_agents} agents, {rounds} rounds, eps=0.02, tau=1.0, seed={seed}")
print(f"{'round':>6} {'variance n=1':>14} {'variance n=10':>14} "
      f"{'cost n=1':>10} {'cost n=10':>10}")
for k in range(0, rounds + 1, 5):
    r1, r10 = runs[1][0][k], runs[10][0][k]
    print(f"{k:>6} {r1.mass_variance:>14.3e} {r10.mass_variance:>14.3e} "
          f"{r1.net_cost:>10.5f} {r10.net_cost:>10.5f}")

for inner in (1, 10):
    records, masses = runs[inner]
    first, last = records[0], records[-1]
    print()
    print(f"n={inner}: variance {first.mass_variance:.3e} -> "
          f"{last.mass_variance:.3e} "
          f"({first.mass_variance / last.mass_variance:.0f}x reduction), "
          f"net transport cost {last.net_cost:.5f}")
    print(f"      final shares span [{masses.min():.4f}, {masses.max():.4f}] "
          f"around the ideal 1/{n_agents} = {1 / n_agents:.4f}")
