"""Benchmark of the `swarm-ot` command line, end to end and per layer.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Load is a closed loop: one client runs one CLI
process at a time, each with `--threads` set to the usable core count,
until `--seconds` have passed. Every process of a run gets the same
inputs (the seed is passed as `--seed`), and every run's output is
checked; same-seed processes must write byte-identical CSVs.

With `--trace 0` a run first starts SETUP_PROBES processes that exit at
the first main-loop call, then the closed loop; the end-to-end metrics
are medians over the run's processes (set-up time over all of them).
With `--trace 1` untraced and traced processes alternate;
the traced ones wrap every layer's public functions (see child.py) and
give the per-layer metrics, and the difference of the two kinds' wall
times is the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
report. See README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from child import IMPORT_FAILED, now_ns  # noqa: E402
from layers import EXACT, PER_LAYER, span_metrics  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# A run never starts a process that could not finish before this many
# seconds, and kills one that is still running then.
RUN_LIMIT_S = 170.0

# Set-up-only processes per untraced run, so that even a run with two
# full processes has several set-up samples.
SETUP_PROBES = 3


@dataclass
class Invocation:
    """One CLI process: what it cost and what it wrote.

    kind is "setup" (exits at the first main-loop call), "plain" or
    "traced".
    """

    kind: str
    exit_code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    cpu_s: float
    stdout: str = ""
    stderr: str = ""
    problems: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    digest: str = ""
    csv_bytes: int = 0
    spans: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.exit_code == 0 and (self.kind != "setup" or self.setup_s is not None)

    @property
    def traced(self):
        return self.kind == "traced"


class ProgramMissing(RuntimeError):
    pass


def cli_args(workload, seed, out_dir, config_path):
    args = [workload.command, "--seed", str(seed), "--out", str(out_dir)]
    args += ["--threads", str(len(os.sched_getaffinity(0)))]
    if config_path is not None:
        args += ["--config", str(config_path)]
    return args


def invoke(workload, seed, work_dir, kind, timeout):
    """Run one CLI process in `work_dir` and measure it from outside."""
    work_dir.mkdir(parents=True)
    out_dir = work_dir / "out"
    config_path = None
    if workload.config is not None:
        config_path = work_dir / "run.cfg"
        config_path.write_text(workload.config)
    stamp = work_dir / "setup.stamp"
    spans = work_dir / "spans.json"
    argv = [sys.executable, str(BENCH / "child.py"), "--stamp", str(stamp)]
    argv += {"setup": ["--setup-only"], "plain": [], "traced": ["--spans", str(spans)]}[kind]
    argv += ["--"] + cli_args(workload, seed, out_dir, config_path)
    stdout_path, stderr_path = work_dir / "stdout.txt", work_dir / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launch = now_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work_dir)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would keep
        # the largest peak RSS of every earlier child of this process.
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = now_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(
        kind=kind,
        exit_code=proc.returncode,
        wall_s=(end - launch) / 1e9,
        setup_s=(int(stamp.read_text()) - launch) / 1e9 if stamp.exists() else None,
        peak_rss_mb=usage.ru_maxrss / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=stdout_path.read_text(),
        stderr=stderr_path.read_text(),
    )
    if inv.exit_code == IMPORT_FAILED:
        raise ProgramMissing(inv.stderr.strip())
    if inv.ok and kind != "setup":
        try:
            inv.problems, inv.results = workload.check(out_dir, inv.stdout)
        except (OSError, ValueError) as exc:
            inv.problems = [f"unreadable output: {exc}"]
        inv.digest = digest(out_dir, inv.stdout)
        inv.csv_bytes = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
    if inv.traced and spans.exists():
        inv.spans = json.loads(spans.read_text())
        inv.layers = span_metrics(inv.spans)
    return inv


def run_loop(workload, seed, seconds, trace, scratch):
    """Set-up probes, then a closed loop of CLI processes for `seconds`.

    Traced runs take no probes and alternate plain and traced processes.
    """
    start = time.monotonic()
    kinds = [] if trace else ["setup"] * SETUP_PROBES
    runs = []
    while True:
        full = [r for r in runs if r.kind != "setup"]
        kind = kinds.pop(0) if kinds else "traced" if trace and len(full) % 2 else "plain"
        left = RUN_LIMIT_S - (time.monotonic() - start)
        runs.append(invoke(workload, seed, scratch / f"run{len(runs)}", kind, left))
        elapsed = time.monotonic() - start
        both_kinds = not trace or any(r.traced for r in runs)
        if kind != "setup" and elapsed >= seconds and both_kinds:
            break
        if elapsed + max(r.wall_s for r in runs) > RUN_LIMIT_S:
            break
    return runs


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def check_runs(runs):
    """Problems across the whole run: output checks, digests, exact counts."""
    problems = []
    for i, r in enumerate(runs):
        problems += [f"process {i}: {p}" for p in r.problems]
    digests = {r.digest for r in runs if r.ok and r.kind != "setup"}
    if len(digests) > 1:
        problems.append(f"same-seed processes wrote different outputs: {sorted(digests)}")
    traced = [r.layers for r in runs if r.ok and r.traced]
    for name in EXACT:
        if len({t[name] for t in traced}) > 1:
            problems.append(f"{name} differs between traced processes")
    return problems


def summarize(runs, trace):
    """The end-to-end (trace off) or per-layer (trace on) metrics of a run."""

    def full(kind):
        """Processes of one kind, only the successful ones if there are any."""
        of_kind = [r for r in runs if r.kind == kind]
        return [r for r in of_kind if r.ok] or of_kind

    plain = full("plain")
    if not trace:
        return {
            "wall_s": _median(r.wall_s for r in plain),
            "setup_s": _median(r.setup_s for r in runs),
            "peak_rss_mb": _median(r.peak_rss_mb for r in plain),
        }
    traced = full("traced")
    metrics = {
        name: _median(r.layers.get(name) for r in traced) for name, _ in PER_LAYER
    }
    # exact counts are equal across traced processes (check_runs), so
    # take them as they are rather than as a median of two
    exact = traced[0].layers if traced else {}
    metrics.update({name: exact[name] for name in EXACT if name in exact})
    first = (plain or runs)[0]
    wall = _median(r.wall_s for r in plain)
    cpu = _median(r.cpu_s for r in plain)
    metrics.update(
        {
            "cli.csv_bytes": first.csv_bytes,
            "cli.cpu_s": cpu,
            "cli.cpu_per_wall": cpu / wall if wall else 0.0,
            "cli.trace_overhead_s": _median(r.wall_s for r in traced) - wall,
            "cli.final_mass_variance": first.results.get("final_mass_variance", 0.0),
            "cli.final_net_cost": first.results.get("final_net_cost", 0.0),
            "cli.final_density_error": first.results.get("final_density_error", 0.0),
        }
    )
    return metrics


@dataclass
class Measurement:
    runs: list
    problems: list
    metrics: dict
    units: dict


def measure(workload, seed, seconds, trace, scratch):
    """Run the closed loop, check every process and summarize the run."""
    runs = run_loop(workload, seed, seconds, trace, scratch)
    units = dict(PER_LAYER if trace else END_TO_END)
    return Measurement(runs, check_runs(runs), summarize(runs, trace), units)


def report(workload, seed, trace, m):
    """Readable report lines and the result object of one measurement."""
    lines = [f"workload {workload.name} seed {seed} trace {int(trace)}"]
    for i, r in enumerate(m.runs):
        setup = "-" if r.setup_s is None else f"{r.setup_s:.4f}"
        extra = "".join(f" {k}={v!r}" for k, v in r.results.items())
        lines.append(
            f"process {i} {r.kind} exit={r.exit_code} wall_s={r.wall_s:.4f} "
            f"setup_s={setup} peak_rss_mb={r.peak_rss_mb:.1f} cpu_s={r.cpu_s:.3f}"
            f" sha256={r.digest or '-'}{extra}"
        )
        if not r.ok:
            lines.append(f"process {i} failed: {r.stderr.strip().splitlines()[-1:]}")
    lines += [f"problem: {p}" for p in m.problems]
    lines += [f"{name} {m.metrics[name]!r} {unit}" for name, unit in m.units.items()]
    result = {
        "correct": not m.problems,
        "attempted": len(m.runs),
        "failed": sum(not r.ok for r in m.runs),
        "metrics": {
            name: {"value": m.metrics[name], "unit": unit} for name, unit in m.units.items()
        },
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "swarm_ot" / "cli.py").is_file():
        sys.exit(f"error: no program to benchmark under {ROOT / 'src'}")
    work_root = ROOT / ".bench_run"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work_root))
    workload, trace = WORKLOADS[args.workload], bool(args.trace)
    try:
        m = measure(workload, args.seed, args.seconds, trace, scratch)
    except ProgramMissing as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines, result = report(workload, args.seed, trace, m)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
