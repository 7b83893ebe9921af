"""Golden sha256 digests of seeded CSV output.

Each case runs one command of the in-process CLI on a tiny seed-0
configuration and compares the sha256 of every CSV it writes (for
`oracle-check`, of its stdout) with a digest recorded here.
Determinism tests elsewhere only compare a run with itself; these
digests also catch a refactor that changes output bytes without
meaning to.

Every output value is built from IEEE basic operations, `np.bincount`
and `einsum` reductions, the fixed exp of the Gaussian target and the
partition's exact K = 2 products, so the digests do not depend on the
SIMD loops numpy picks or on the BLAS kernel OpenBLAS picks: each digest
is also checked in subprocesses under environment settings that steer
both to other kernels. They still pin the numpy they were recorded with
(numpy 2.4 on x86-64), whose reductions another release may round
differently. An intended output change updates the digests in the same
change and names itself, with the size of the deviation, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath as _umath

from conftest import run_python
from swarm_ot import cli
from swarm_ot.config import ExperimentConfig

AGENTS = """\
mode = agents
transport.N = 10
transport.K = 3
transport.n = 5
quadrature.resolution = 64
"""

AGENTS_FIXED_DUAL = AGENTS + "transport.fixed_dual = 1.0\n"

# a concentrated target in the corner drives agents onto the same
# clamped positions, so `_dedupe` nudges duplicates apart (9 times)
AGENTS_NUDGED = """\
mode = agents
transport.N = 10
transport.K = 20
transport.n = 5
quadrature.resolution = 64
target.means = 0.98 0.98
target.covariances = 0.001 0 0 0.001
transport.eps = 0.1
transport.tau = 0.3
"""

PDE = """\
mode = pde
grid.nx = 8
grid.ny = 8
grid.T = 0.1
output.record_every = 10
"""


# every other pde case is square, so a transposed (ny, nx) layout
# would go unseen there
PDE_9X5 = PDE.replace("grid.nx = 8", "grid.nx = 9").replace("grid.ny = 8", "grid.ny = 5")


# a positivity stop that the dynamics reach on their own: n = 1 stops
# after step 473, between two records, and keeps 68 of its 73 rows
FIG5_PARTIAL = """\
mode = pde
grid.nx = 20
grid.ny = 20
grid.dt = 1e-3
grid.T = 0.5
target.means = 0.5 0.5
target.covariances = 0.05 0 0 0.05
output.record_every = 7
"""


def pde(mode, base=PDE):
    return base + f"grid.mode = {mode}\n"


CASES = {
    "agents": (["agents"], AGENTS, {
        "metrics.csv": "47015872a2c663516d3563bb8961c40d198aee564955ef0936f3dd2cbcc805f8",
        "positions.csv": "bf365d3f6214fa91317e19c555cf9325309a5da35ff0177577f82c907074d249",
    }),
    "agents_fixed_dual": (["agents"], AGENTS_FIXED_DUAL, {
        "metrics.csv": "0221de915150a3a2a0883d9fbb0cbf12e0382c7fb52ca8221b51b53b82b0bafc",
        "positions.csv": "58964fb117b60c4ce20fba3191411b0f174eae6ff0e7bb1adb1c47e762df8ba7",
    }),
    "agents_nudged": (["agents"], AGENTS_NUDGED, {
        "metrics.csv": "b511764bad4ae896a971f02272a883ce4bf578a547d7bbc4960664b907916301",
        "positions.csv": "daa569af515de2d7d3e712c0fed2967cc7dab5ab122d42877e7f0cc873d2d34d",
    }),
    "pde_on_the_fly_pd": (["pde"], pde("on_the_fly_pd"), {
        "metrics.csv": "e7da9852cb8bd2e33e2f1d0bb3e6d6db06967d6d11609e3fc55755f7e800ac8f",
    }),
    "pde_on_the_fly_pd_warm": (["pde"], pde("on_the_fly_pd") + "grid.warm_start = true\n", {
        "metrics.csv": "5c04172604bc47484389c47db8ac8623afc14df8bc47df716b5856cc2e898a49",
    }),
    "pde_on_the_fly_fixed": (["pde"], pde("on_the_fly_fixed"), {
        "metrics.csv": "68579dad5c27da591961ed4d92a23bbb974b66ca6f511a1f0e9ab012c863367e",
    }),
    "pde_inner_steady_state": (["pde"], pde("inner_steady_state"), {
        "metrics.csv": "0f806ba2bf463830570c8e45aeb0e414204a35f4f9c5d5729dc76d60da5cb57d",
    }),
    "pde_9x5_on_the_fly_pd": (["pde"], pde("on_the_fly_pd", PDE_9X5), {
        "metrics.csv": "70a46e5f737356acc1df8e586bbf7ca5337f71256408aa3d6c7a7aab921cc670",
    }),
    "pde_9x5_on_the_fly_fixed": (["pde"], pde("on_the_fly_fixed", PDE_9X5), {
        "metrics.csv": "5a30381e916661fed8851e0aa50de52656c0874c7a91c83e186cb8d9170a5575",
    }),
    "pde_9x5_inner_steady_state": (["pde"], pde("inner_steady_state", PDE_9X5), {
        "metrics.csv": "8b89c3c9d7ee2ef1e54c236dbb47580b12f849deca906882be9d72011e154a97",
    }),
    "fig2": (["fig", "2"], AGENTS, {
        "fig2_n1.csv": "21fa08a35ae4d9a5799db30dae9a19478b4227051baf6544feef00d7954d712c",
        "fig2_n5.csv": "47015872a2c663516d3563bb8961c40d198aee564955ef0936f3dd2cbcc805f8",
        "fig2_n10.csv": "a3dd3162165289b37350a28f79a2348f31110dce69f6698410718a7abec3312c",
    }),
    "fig3": (["fig", "3"], AGENTS, {
        "fig3.csv": "a99b50fa1baefdc6cca6295a6468be9129009f7bd116587c20453b2a0b01682f",
    }),
    "fig4": (["fig", "4"], PDE, {
        "fig4_density.csv": "b965d53e496bba3f320ef4923c8edfd71b2b9944278faae57cbc0781cf3750c1",
        "fig4_metrics.csv": "0f806ba2bf463830570c8e45aeb0e414204a35f4f9c5d5729dc76d60da5cb57d",
    }),
    "fig5": (["fig", "5"], PDE, {
        "fig5_n1.csv": "ca59d4d30974f37af9eed46cf9b611c276312ad1bc42b62a7d7e99570d89100a",
        "fig5_n2.csv": "9ff38675584a8fc56202d2c48555e01c048bb5d5c9e725ecb34405ce3117c881",
        "fig5_n5.csv": "d86045ca8dc04e389f284c645efeff1164aae5532551f5fd05df6b2c741898c0",
        "fig5_n10.csv": "8bc52c6d63b523bcff692822cf3ddc49368d113486b0b1c15be210f3660f3372",
    }),
    "fig6": (["fig", "6"], PDE, {
        "fig6_n1.csv": "1431a87b6e41ec1fdc0c935849bc08280e9dd1b9e6bdd3c0c57f003223eee24f",
        "fig6_n2.csv": "bf4ee9af839137edac7598047e4dbd9c33d47d644036b22e0ce40269f240f15d",
        "fig6_n5.csv": "adbb5036a003b67c211ececfe546f0b3d99ae63d19eb05007104a69b3d98f0ab",
        "fig6_n10.csv": "73c656f9e1703363d29ce85d826742a51c06ca5fcf1a59e6fcef41ec7d4f8b6a",
    }),
    "fig5_partial": (["fig", "5"], FIG5_PARTIAL, {
        "fig5_n1.csv": "e49b8b1bd4433f4940ae9f58b5e05b4ecf8028dfa8e5a9472c06718d5bc5062d",
        "fig5_n2.csv": "ba03e9cc101da8f7eaf51972b79f16aad5787474faf133e0503f2323a65a08a3",
        "fig5_n5.csv": "5cf5c4df46e9011149376bc0b62d94651e56861f276f6c70453edf36475702d4",
        "fig5_n10.csv": "08e79e28028cebee9c1f4ae43d3b069976a7b1e1991200fef24822903147819b",
    }),
}

# the stdout of cases whose console output is part of the result
STDOUT = {
    "fig5_partial": (
        "fig 5: n=1 stopped after t=0.4730: transport step made the density "
        "nonpositive or NaN at node (4,9): density -7.795e-06 after the step, outflow "
        "dt*(L phi)_i = 8.586e-06; a larger grid.n (more inner steps per transport step) "
        "can avoid it\n"
        "fig 5: wrote fig5_n1.csv (partial) fig5_n2.csv fig5_n5.csv fig5_n10.csv\n"
    ),
}


def run_case(args, config, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert cli.main([*args, "--config", str(cfg), "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }


@pytest.mark.parametrize("name", CASES)
def test_seeded_output_matches_recorded_digest(name, tmp_path, capsys):
    args, config, expected = CASES[name]
    assert run_case(args, config, tmp_path) == expected
    if name in STDOUT:
        assert capsys.readouterr().out == STDOUT[name]


# stdout of `oracle-check` on the first 3 seed-0 instances
ORACLE_STDOUT = "047bfde714b93b5a687152a169bfb70c78946083779dfdf4a39426eb7d74593e"


def test_oracle_check_stdout_matches_recorded_digest():
    assert oracle_stdout_digest() == ORACLE_STDOUT


def oracle_stdout_digest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.oracle_check(ExperimentConfig(seed=0), n_instances=3) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def all_digests():
    """{case: (file digests, stdout)} of every case, and the oracle stdout digest."""
    runs = {}
    for name, (args, config, _) in CASES.items():
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            runs[name] = (run_case(args, config, Path(tmp)), out.getvalue())
    return runs, oracle_stdout_digest()


# environment settings that steer numpy's SIMD loops and OpenBLAS's
# kernel away from the ones an AVX-512 CPU gets (SkylakeX). numpy warns
# at import about disabling a loop the CPU lacks, so only the loops the
# running CPU has are named; with none, that run is a default one.
NO_AVX512 = " ".join(
    f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
    if f in _umath.__cpu_dispatch__ and _umath.__cpu_features__[f]
)
CPU_SETTINGS = {
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas_zen": {"OPENBLAS_CORETYPE": "Zen"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas_sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy_no_avx512": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
    "numpy_no_avx512_zen": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512, "OPENBLAS_CORETYPE": "Zen"},
}

ALL_DIGESTS = f"""
import json, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_output_digest import all_digests
print(json.dumps(all_digests()))
"""


@pytest.mark.parametrize("setting", CPU_SETTINGS)
def test_every_digest_holds_under_other_simd_loops_and_blas_kernels(setting, tmp_path):
    # one subprocess per setting runs every case, since the settings
    # act when numpy loads
    env = {**os.environ, **{k: v for k, v in CPU_SETTINGS[setting].items() if v}}
    res = run_python(["-c", ALL_DIGESTS], cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    runs, oracle = json.loads(res.stdout)
    assert {name: files for name, (files, _) in runs.items()} == {
        name: expected for name, (_, _, expected) in CASES.items()
    }
    assert {name: runs[name][1] for name in STDOUT} == STDOUT
    assert oracle == ORACLE_STDOUT


def test_agent_and_grid_runs_call_no_linalg(monkeypatch, tmp_path):
    # LAPACK rounds by the CPU it runs on, and its first call costs a
    # process about 1 MiB of memory; no agent or grid command calls it
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("agents", "agents_nudged", "pde_on_the_fly_pd", "pde_inner_steady_state"):
        args, config, expected = CASES[name]
        (tmp_path / name).mkdir()
        assert run_case(args, config, tmp_path / name) == expected
