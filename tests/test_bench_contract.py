"""The traced benchmark run patches library names from outside.

`bench/child.py` replaces named functions in the calling modules of
`swarm_ot` to time each layer and to stamp the end of set-up. A name it
patches that the library no longer binds breaks the traced run, so every
`(module, name)` pair in its tables must stay bound to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


child = load_child()
PATCHED = sorted(
    {(module, name) for module, name, _ in child.TRACED} | set(child.MAIN_LOOP.values())
)


@pytest.mark.parametrize("module, name", PATCHED, ids=[f"{m}.{n}" for m, n in PATCHED])
def test_patched_name_is_bound(module, name):
    mod = importlib.import_module(f"swarm_ot.{module}")
    assert callable(getattr(mod, name, None)), f"swarm_ot.{module}.{name} is not bound"
