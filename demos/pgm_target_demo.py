"""Use a grayscale image as the transport target.

Targets do not have to be analytic: any PGM image defines one, with
dark pixels marking where mass should end up. This script renders a
dark disk on a white background as ASCII PGM bytes, parses it into a
density, checks that the parsed mass sits inside the disk, and then
lets a small swarm quantize it. The same image drives the grid solver
equally well.

Run with: python3 demos/pgm_target_demo.py
"""

import numpy as np

from swarm_ot import (
    Domain,
    MetricCost,
    QuadratureGrid,
    TransportConfig,
    initial_positions,
    load_pgm,
    run_experiment,
)

# a 32x32 image: pixel value 0 (black) inside the disk, 255 outside
side = 32
center = (side - 1) / 2.0
radius = side / 4.0
rows = []
for iy in range(side):
    row = [
        "0" if (ix - center) ** 2 + (iy - center) ** 2 <= radius**2 else "255"
        for ix in range(side)
    ]
    rows.append(" ".join(row))
pgm_text = f"P2\n# disk target\n{side} {side}\n255\n" + "\n".join(rows) + "\n"

domain = Domain()
target = load_pgm(pgm_text.encode("ascii"), domain)
q = QuadratureGrid(domain, 256)

# integrate the parsed density inside and outside the disk region
centers = q.centers
inside = np.hypot(centers[:, 0] - 0.5, centers[:, 1] - 0.5) <= 0.25
masses = target.values_on(q) * q.cell_area
print(f"parsed a {side}x{side} PGM disk target")
print(f"mass inside the disk (radius 0.25): {masses[inside].sum():.4f}")
print(f"mass outside:                       {masses[~inside].sum():.4f}")

# cells outside the disk hold almost no mass, which makes the inner
# potential iteration stiffer than on smooth targets; a half-size inner
# step keeps it stable
n_agents = 12
cfg = TransportConfig(eps=0.02, tau=0.5, inner_iters=10, rounds=30)
positions = initial_positions(n_agents, domain, seed=5)
records, snapshots = run_experiment(positions, cfg, target, MetricCost(), q, seed=5)

print()
print(f"{n_agents} agents, {cfg.rounds} rounds toward the disk")
print(f"{'round':>6} {'mass variance':>14} {'agents in disk':>15}")
for k in range(0, cfg.rounds + 1, 5):
    _, pos, _ = snapshots[k]
    in_disk = int(np.sum(np.hypot(pos[:, 0] - 0.5, pos[:, 1] - 0.5) <= 0.25))
    print(f"{k:>6} {records[k].mass_variance:>14.3e} {in_disk:>15}")

_, pos, owned = snapshots[-1]
print()
print(f"final owned-mass spread: [{owned.min():.4f}, {owned.max():.4f}] "
      f"(ideal 1/{n_agents} = {1 / n_agents:.4f})")
