"""The traced benchmark run patches library names from outside.

`bench/child.py` replaces named functions in the calling modules of
`swarm_ot` to time each layer and to stamp the end of set-up. A name it
patches that the library no longer binds breaks the traced run, so every
`(module, name)` pair in its tables must stay bound to a callable.

Binding is not all it relies on: its span notes read call arguments and
results (`pd_flow_step`'s second positional argument, `transport_round`'s
diagnostics, `converge_pd`'s `tau` and `(state, info)` pair), and the
`pde` set-up stamp needs `cli.run_pde` to call `cli.run_coupled`. So the
traced child also runs here, on tiny configs of every command it times.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import swarm_ot as so
from swarm_ot import primal_dual

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


AGENTS = "mode = agents\ntransport.N = 8\ntransport.K = 2\ntransport.n = 2\nquadrature.resolution = 32\n"
PDE = "mode = pde\ngrid.nx = 6\ngrid.ny = 6\ngrid.dt = 1e-2\ngrid.T = 0.05\ngrid.mode = {}\n"

# command, config, spans the traced run must contain
TRACED_RUNS = {
    "agents": ("agents", AGENTS, {
        "cli.main", "transport.run_experiment", "transport.transport_round",
        "voronoi.build_partition", "voronoi.neighbor_graph", "target.cell_masses",
        "primal_dual.run_pd", "transport.local_gradient", "transport.proximal_step",
    }),
    "pde_on_the_fly_pd": ("pde", PDE.format("on_the_fly_pd"), {
        "cli.main", "grid.run_coupled", "grid.pd_flow_step", "grid.transport_step",
        "grid.lyapunov",
    }),
    "pde_on_the_fly_fixed": ("pde", PDE.format("on_the_fly_fixed"), {
        "cli.main", "grid.run_coupled", "grid.relaxed_primal_step", "grid.transport_step",
        "grid.lyapunov",
    }),
    "pde_inner_steady_state": ("pde", PDE.format("inner_steady_state"), {
        "cli.main", "grid.run_coupled", "grid.steady_potentials", "grid.transport_step",
        "grid.lyapunov",
    }),
}


@pytest.mark.parametrize("name", TRACED_RUNS)
def test_the_traced_child_runs_each_command(tmp_path, name):
    command, config, expected = TRACED_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    stamp, spans_file = tmp_path / "stamp", tmp_path / "spans.json"
    res = subprocess.run(
        [sys.executable, str(CHILD), "--stamp", str(stamp), "--spans", str(spans_file),
         "--", command, "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert int(stamp.read_text()) > 0
    spans = json.loads(spans_file.read_text())
    names = [span[0] for span in spans]
    assert expected <= set(names)
    loop = "transport.transport_round" if command == "agents" else "grid.run_coupled"
    loops = {i for i, span_name in enumerate(names) if span_name == loop}
    for span_name, _, _, parent, note in spans:
        if span_name == "transport.transport_round":
            assert set(note) == {"agents", "moved", "isolated", "perturbed"}
        if span_name == "grid.pd_flow_step":
            assert note["bytes"] > 0
        if span_name in ("grid.lyapunov", "grid.transport_step"):
            # the records and steps of a pde run happen inside its main loop
            assert parent in loops


def test_the_converge_pd_note_reads_a_real_result():
    # a step of 4 diverges on this path graph, so converge_pd halves it;
    # the note needs a real result, not a converged one
    g = so.NeighborGraph(4, [[0, 1], [1, 2], [2, 3]], [1.0, 1.0, 1.0])
    b = [0.3, -0.1, -0.1, -0.1]
    args, kwargs = (so.zero_state(g), b, g), {"tau": 4.0, "max_iter": 1000}
    result = primal_dual.converge_pd(*args, **kwargs)
    note = child._notes({"primal_dual": primal_dual})["primal_dual.converge_pd"]
    info = note(args, kwargs, result)
    assert info["iterations"] == result[1]["iterations"] == 1000
    assert info["tau_halvings"] >= 1
    assert 4.0 / 2 ** info["tau_halvings"] == result[1]["tau"]
