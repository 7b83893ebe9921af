"""Self-tests of the benchmark: accounting, exact counts and layer split.

Run with `python3 -m pytest bench/check_bench.py` (about two minutes
on two cores: every workload runs twice untraced and twice traced at
seed 0). The file name keeps the repository's own test run from
collecting it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import EXACT, PER_LAYER, SpanTable, self_ns  # noqa: E402
from workloads import WORKLOADS, Workload, agents_check  # noqa: E402

ORDER = ["agents_n300", "pde_pd256", "pde_default", "oracle"]


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    """Each workload at seed 0 as untraced, traced, untraced, traced.

    The workloads run one after another in this process, the largest
    first, so a per-process peak RSS that leaked from one child into the
    next would show on the later workloads.
    """
    out = {}
    for name in ORDER:
        scratch = tmp_path_factory.mktemp(name)
        runs = [
            run.invoke(WORKLOADS[name], 0, scratch / f"run{i}", kind, run.RUN_LIMIT_S)
            for i, kind in enumerate(["plain", "traced", "plain", "traced"])
        ]
        out[name] = runs
    return out


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0, 100, -1, None],
        ["a", 10, 60, 0, None],
        ["b", 20, 30, 1, None],
        ["b", 70, 75, 0, None],
    ]
    assert self_ns(spans) == [45, 40, 10, 5]
    table = SpanTable(spans)
    assert table.self_ns == {"cli.main": 45, "a": 40, "b": 15}
    assert table.calls["b"] == 2
    assert table.share("b", "cli.main") == 0.15


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_failing_runs_are_counted_and_the_loop_keeps_going(tmp_path):
    # The README quick-start run: tau 1 diverges in round 1 today.
    quickstart = Workload(
        "quickstart",
        "agents",
        "transport.N = 30\ntransport.K = 40\ntransport.n = 10\n"
        "target.means = 0.4 0.6\ntarget.covariances = 0.02 0 0 0.02\n",
        agents_check(rounds=40, agents=30),
        "diverges with FloatingPointError",
    )
    m = run.measure(quickstart, 0, 6.0, False, tmp_path)
    _, result = run.report(quickstart, 0, False, m)
    full = [r for r in m.runs if r.kind == "plain"]
    assert len(full) >= 2
    assert all("diverged" in r.stderr for r in full)
    # set-up ends before round 1, so the set-up probes succeed
    assert result["failed"] == len(full) == result["attempted"] - run.SETUP_PROBES
    assert result["correct"]
    # with no successful full process the times come from the failed ones
    assert result["metrics"]["wall_s"]["value"] > 0


def test_seed0_runs_succeed_and_write_identical_outputs(seed0):
    for name, runs in seed0.items():
        assert [r.exit_code for r in runs] == [0, 0, 0, 0], name
        assert all(not r.problems for r in runs), (name, [r.problems for r in runs])
        assert len({r.digest for r in runs}) == 1, name
        assert not run.check_runs(runs), name


def test_traced_counts_repeat_exactly(seed0):
    for name, runs in seed0.items():
        first, second = (r.layers for r in runs if r.traced)
        assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}, name


def test_peak_rss_is_per_process(seed0):
    agents = min(r.peak_rss_mb for r in seed0["agents_n300"])
    later = max(r.peak_rss_mb for name in ORDER[1:] for r in seed0[name])
    assert agents > 400
    assert later < agents / 2


def test_layer_split_at_seed0(seed0):
    agents, pd256, default, oracle = (
        next(r for r in seed0[name] if r.traced) for name in ORDER
    )
    t = SpanTable(agents.spans)
    assert t.share("voronoi.build_partition", "transport.run_experiment") >= 0.9
    assert agents.layers["target.cell_masses_calls"] == 2 * 15 + 1

    t = SpanTable(oracle.spans)
    assert t.share("primal_dual.converge_pd", "cli.main") >= 0.9
    assert oracle.layers["primal_dual.iterations"] == 330_600

    t = SpanTable(pd256.spans)
    grid = {k: v for k, v in t.self_ns.items() if k.startswith("grid.")}
    assert max(grid, key=grid.get) == "grid.pd_flow_step"

    assert default.layers["grid.inner_steps"] == 0
    assert "grid.pd_flow_step" not in SpanTable(default.spans).calls


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    args = ["--workload", spec["workloads"][0]["name"], "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        spec["command"] + args, cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
