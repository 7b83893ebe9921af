"""Shared test helpers.

`run_python` starts a Python subprocess that imports swarm_ot from this
checkout's src/ directory, so the suite needs no installed package and
no PYTHONPATH of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, cwd=None, env=None, timeout=300):
    """Run `python args...` with src/ first on PYTHONPATH; capture its text."""
    env = os.environ if env is None else env
    pythonpath = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**env, "PYTHONPATH": pythonpath},
        timeout=timeout,
    )
