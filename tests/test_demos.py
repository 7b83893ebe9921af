"""Smoke test: every script in demos/ runs to completion.

Each demo goes through the primal-dual kernel (via run_experiment,
run_coupled or converge_pd), so a demo that no longer runs is a broken
public entry point. They run in a subprocess against the checkout's
src/ directory, as their docstrings tell a reader to run them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
