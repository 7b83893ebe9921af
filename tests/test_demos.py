"""Smoke test: every script in demos/ and README's library example runs.

Each demo goes through the primal-dual kernel (via run_experiment or
run_coupled, whose sinks the demos print from, or via converge_pd), so a
demo that no longer runs is a broken public entry point. They run in a subprocess against the checkout's
src/ directory, as their docstrings tell a reader to run them.
"""

import re
from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    result = run_python(["-c", blocks[0]], tmp_path)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) > 0.0  # the final mass variance
