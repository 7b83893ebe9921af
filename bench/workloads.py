"""The benchmark's workloads and the checks each run's output must pass.

Every workload is one `swarm-ot` command with a fixed config; the
benchmark seed is passed as `--seed`, so the same seed gives the same
inputs. Each workload is dominated by a different layer (see README.md).
"""

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str | None  # None runs the command without --config
    check: Callable  # (out_dir, stdout) -> (problems, results)
    why: str


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _column(header, rows, name):
    k = header.index(name)
    return [row[k] for row in rows]


def agents_check(rounds, agents):
    """Row counts of both CSVs, finite values, and a variance that fell."""

    def check(out_dir, stdout):
        header, rows = _read_csv(out_dir / "metrics.csv")
        _, positions = _read_csv(out_dir / "positions.csv")
        problems = []
        if len(rows) != rounds + 1:
            problems.append(f"metrics.csv has {len(rows)} rows, expected {rounds + 1}")
        if len(positions) != (rounds + 1) * agents:
            problems.append(
                f"positions.csv has {len(positions)} rows, expected {(rounds + 1) * agents}"
            )
        if not all(math.isfinite(v) for row in rows + positions for v in row):
            problems.append("non-finite value in the agent CSVs")
        variance = _column(header, rows, "mass_variance")
        if not variance[-1] < variance[0]:
            problems.append(
                f"final mass variance {variance[-1]!r} is not below the initial {variance[0]!r}"
            )
        results = {
            "final_mass_variance": variance[-1],
            "final_net_cost": _column(header, rows, "net_cost")[-1],
        }
        return problems, results

    return check


def pde_check(steps):
    """Row count, finite values, and mass conserved to 1e-12 on every row."""

    def check(out_dir, stdout):
        header, rows = _read_csv(out_dir / "metrics.csv")
        problems = []
        if len(rows) != steps + 1:
            problems.append(f"metrics.csv has {len(rows)} rows, expected {steps + 1}")
        if not all(math.isfinite(v) for row in rows for v in row):
            problems.append("non-finite value in metrics.csv")
        worst = max(_column(header, rows, "mass_error"), default=math.inf)
        if not worst <= 1e-12:
            problems.append(f"mass_error reaches {worst!r}, above 1e-12")
        V = _column(header, rows, "V")[-1] if rows else math.nan
        return problems, {"final_density_error": math.sqrt(2.0 * V)}

    return check


_INSTANCE = re.compile(r"^instance \d+: .* iterations=(\d+) (ok|FAIL)$", re.M)


def oracle_check(instances):
    """Every instance line reads `ok` and the summary reports a pass."""

    def check(out_dir, stdout):
        found = _INSTANCE.findall(stdout)
        ok = sum(status == "ok" for _, status in found)
        problems = []
        if ok != instances or len(found) != instances:
            problems.append(f"{ok}/{len(found)} instances ok, expected {instances}/{instances}")
        if "oracle check passed" not in stdout:
            problems.append("no pass summary on stdout")
        return problems, {"iterations": sum(int(n) for n, _ in found)}

    return check


def digest(out_dir, stdout):
    """sha256 over every CSV the run wrote (by name) and its stdout."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(stdout.encode())
    return h.hexdigest()


AGENTS_N300 = """\
transport.N = 300
transport.K = 15
transport.n = 10
quadrature.resolution = 256
target.means = 0.3 0.3; 0.7 0.6
target.covariances = 0.02 0 0 0.02; 0.03 0 0 0.02
"""

PDE_PD256 = """\
mode = pde
grid.nx = 256
grid.ny = 256
grid.mode = on_the_fly_pd
grid.warm_start = true
grid.n = 15
grid.T = 0.1
"""

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "agents_n300",
            "agents",
            AGENTS_N300,
            agents_check(rounds=15, agents=300),
            "300 agents on a 256^2 quadrature: the Voronoi partition is ~97% of each round",
        ),
        Workload(
            "pde_pd256",
            "pde",
            PDE_PD256,
            pde_check(steps=100),
            "256^2 grid, on-the-fly primal-dual: pd_flow_step on large arrays dominates",
        ),
        Workload(
            "pde_default",
            "pde",
            None,
            pde_check(steps=10_000),
            "default 50^2 grid: many small grid calls and no pd_flow_step at all",
        ),
        Workload(
            "oracle",
            "oracle-check",
            None,
            oracle_check(instances=10),
            "10 tiny oracle instances: converge_pd per-iteration overhead dominates",
        ),
    ]
}
