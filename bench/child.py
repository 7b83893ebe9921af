"""Run one `swarm-ot` command inside a benchmark child process.

Usage:
    python3 bench/child.py --stamp FILE [--spans FILE | --setup-only] -- <swarm-ot arguments>

The program is imported from the checkout's `src/` directory, so no
install step is needed. The first call of the command's main loop
(`transport_round` for `agents`, `run_coupled` for `pde`, the first
`converge_pd` for `oracle-check`) writes a CLOCK_MONOTONIC timestamp to
the stamp file; the parent subtracts its own launch timestamp from it to
get the set-up time. CLOCK_MONOTONIC is system-wide on Linux, so the two
clocks agree across processes. With --setup-only the process exits 0
right there, which lets a run sample set-up time cheaply.

With --spans, the public functions of every layer are wrapped at their
call sites and each call is kept in memory as a span (name, start, end,
parent, note); the spans are written to that file as JSON when the
command returns. Callers bind these names with
`from ... import`, so the wrappers replace the name in the calling
module (for example `swarm_ot.transport.build_partition`); patching the
defining module would not be seen. No file of the program is changed.

The exit code is the command's own exit code; 3 means the program could
not be imported from the checkout.
"""

import argparse
import functools
import inspect
import json
import math
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_FAILED = 3

# The call that ends set-up, per subcommand: (calling module, name).
MAIN_LOOP = {
    "agents": ("transport", "transport_round"),
    "pde": ("cli", "run_coupled"),
    "oracle-check": ("cli", "converge_pd"),
}

# Traced names: (calling module, name bound there, span name). The span
# name is the layer (defining module) plus the function.
TRACED = [
    ("cli", "run_experiment", "transport.run_experiment"),
    ("cli", "run_coupled", "grid.run_coupled"),
    ("cli", "converge_pd", "primal_dual.converge_pd"),
    ("cli", "min_cost_flow", "flow.min_cost_flow"),
    ("cli", "build_partition", "voronoi.build_partition"),
    ("cli", "neighbor_graph", "voronoi.neighbor_graph"),
    ("cli", "cell_masses", "target.cell_masses"),
    ("cli", "write_csv", "cli.write_csv"),
    ("transport", "transport_round", "transport.transport_round"),
    ("transport", "build_partition", "voronoi.build_partition"),
    ("transport", "neighbor_graph", "voronoi.neighbor_graph"),
    ("transport", "cell_masses", "target.cell_masses"),
    ("transport", "run_pd", "primal_dual.run_pd"),
    ("transport", "run_primal", "primal_dual.run_primal"),
    ("transport", "local_gradient", "transport.local_gradient"),
    ("transport", "proximal_step", "transport.proximal_step"),
    ("grid", "pd_flow_step", "grid.pd_flow_step"),
    ("grid", "relaxed_primal_step", "grid.relaxed_primal_step"),
    ("grid", "transport_step", "grid.transport_step"),
    ("grid", "kkt_residual", "grid.kkt_residual"),
    ("grid", "lyapunov", "grid.lyapunov"),
    ("grid", "steady_potentials", "grid.steady_potentials"),
    ("primal_dual", "pd_residual", "primal_dual.pd_residual"),
]


def now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _partition_note(args, kwargs, result):
    return {"sites": len(result.sites), "cells": int(result.q.n_cells)}


def _graph_note(args, kwargs, result):
    return {"edges": len(result.edges)}


def _round_note(args, kwargs, result):
    _, diag = result
    steps = diag["step_lengths"]
    return {
        "agents": len(steps),
        "moved": int((steps > 0).sum()),
        "isolated": len(diag["isolated"]),
        "perturbed": len(diag["perturbed"]),
    }


def _converge_note(signature):
    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        _, info = result
        return {
            "iterations": int(info["iterations"]),
            "tau_halvings": round(math.log2(bound.arguments["tau"] / info["tau"])),
        }

    return note


def _flow_step_note(args, kwargs, result):
    s, rho_star = args[0], args[1]
    read = s.phi.nbytes + s.rho.nbytes + rho_star.nbytes + s.lam.nbytes + s.edges.nbytes
    return {"bytes": read + result.phi.nbytes + result.lam.nbytes}


def _notes(modules):
    return {
        "voronoi.build_partition": _partition_note,
        "voronoi.neighbor_graph": _graph_note,
        "transport.transport_round": _round_note,
        "primal_dual.converge_pd": _converge_note(
            inspect.signature(modules["primal_dual"].converge_pd)
        ),
        "grid.pd_flow_step": _flow_step_note,
    }


class Tracer:
    """Spans of wrapped calls, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                spans[idx] = [name, start, end, parent, None]
            if note is not None:
                spans[idx][4] = note(args, kwargs, result)
            return result

        return traced

    def install(self, modules):
        notes = _notes(modules)
        for module, attr, name in TRACED:
            mod = modules[module]
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), notes.get(name)))


class SetupDone(Exception):
    """Raised at the first main-loop call of a --setup-only process."""


def _stamp_once(fn, stamp, stop):
    @functools.wraps(fn)
    def first_call(*args, **kwargs):
        if not stamp:
            stamp.append(now_ns())
            if stop:
                raise SetupDone
        return fn(*args, **kwargs)

    return first_call


def main(argv):
    parser = argparse.ArgumentParser(description="Run one benchmarked swarm-ot command.")
    parser.add_argument("--stamp", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if not cli_args or cli_args[0] not in MAIN_LOOP:
        parser.error(f"the command must be one of {sorted(MAIN_LOOP)}")
    sys.path.insert(0, str(SRC))
    try:
        import swarm_ot.cli
    except ImportError as exc:
        print(f"cannot import swarm_ot from {SRC}: {exc}", file=sys.stderr)
        return IMPORT_FAILED
    if not Path(swarm_ot.__file__).resolve().is_relative_to(SRC):
        print(f"swarm_ot resolved outside {SRC}: {swarm_ot.__file__}", file=sys.stderr)
        return IMPORT_FAILED
    modules = {name: sys.modules[f"swarm_ot.{name}"] for name in
               ("cli", "transport", "grid", "primal_dual")}

    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        tracer.install(modules)
    stamp = []
    loop_module, loop_name = MAIN_LOOP[cli_args[0]]
    mod = modules[loop_module]
    setattr(mod, loop_name, _stamp_once(getattr(mod, loop_name), stamp, args.setup_only))

    main_fn = modules["cli"].main
    if tracer is not None:
        main_fn = tracer.wrap("cli.main", main_fn)
    try:
        return main_fn(cli_args)
    except SetupDone:
        return 0
    finally:
        if stamp:
            args.stamp.write_text(str(stamp[0]))
        if tracer is not None:
            args.spans.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
