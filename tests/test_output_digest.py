"""Golden sha256 digests of seeded CSV output.

Each case runs one command of the in-process CLI on a tiny seed-0
configuration and compares the sha256 of every CSV it writes (for
`oracle-check`, of its stdout) with a digest recorded here.
Determinism tests elsewhere only compare a run with itself; these
digests also catch a refactor that changes output bytes without
meaning to.

The digests pin the numpy they were recorded with (numpy 2.4 on
x86-64): a numpy whose reductions round differently changes them. An
intended output change updates the digests in the same change and
names itself, with the size of the deviation, in CHANGES.md.
"""

import hashlib

import pytest

from swarm_ot import cli
from swarm_ot.config import ExperimentConfig

AGENTS = """\
mode = agents
transport.N = 10
transport.K = 3
transport.n = 5
quadrature.resolution = 64
"""

AGENTS_FIXED_DUAL = AGENTS.replace("mode = agents", "mode = agents_fixed_dual") + (
    "transport.fixed_dual = 1.0\n"
)

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
        "metrics.csv": "b2f48ba4c5982fe581a27d856d5b63943403f60ed2112b6ece88e9622c65ad3d",
        "positions.csv": "98b231112e1d938d98c4b41263af0e1e90ab59c12934af20428d3c1f6cc19369",
    }),
    "agents_fixed_dual": (["agents"], AGENTS_FIXED_DUAL, {
        "metrics.csv": "1a5e6d95ed907df0a884b1b2063d5ae490b2344271b11c1bc440649f0ef985ce",
        "positions.csv": "cb978bfc1f5ecaafe2d524d8730e4a3dfc1ac94554abd9b531303190f2a841ba",
    }),
    "agents_nudged": (["agents"], AGENTS_NUDGED, {
        "metrics.csv": "e3fc5bc95a1389a66b96b02a68752ca85845bae419a8bcbca361a75670b2b94c",
        "positions.csv": "ee73414f38d4a12b7b9df9af55e5e25ec95dd97eed376263cf7d64adbfac5b07",
    }),
    "pde_on_the_fly_pd": (["pde"], pde("on_the_fly_pd"), {
        "metrics.csv": "e7da9852cb8bd2e33e2f1d0bb3e6d6db06967d6d11609e3fc55755f7e800ac8f",
    }),
    "pde_on_the_fly_pd_warm": (["pde"], pde("on_the_fly_pd") + "grid.warm_start = true\n", {
        "metrics.csv": "600b98b12a621c6bcf896fde73bbf1e4ea2085f0f311751e970998b564006488",
    }),
    "pde_on_the_fly_fixed": (["pde"], pde("on_the_fly_fixed"), {
        "metrics.csv": "68579dad5c27da591961ed4d92a23bbb974b66ca6f511a1f0e9ab012c863367e",
    }),
    "pde_inner_steady_state": (["pde"], pde("inner_steady_state"), {
        "metrics.csv": "75ef42e150f9a7964e32baa1367a71f7a49360f57b8df4c9958c50a0136126a6",
    }),
    "pde_9x5_on_the_fly_pd": (["pde"], pde("on_the_fly_pd", PDE_9X5), {
        "metrics.csv": "70a46e5f737356acc1df8e586bbf7ca5337f71256408aa3d6c7a7aab921cc670",
    }),
    "pde_9x5_on_the_fly_fixed": (["pde"], pde("on_the_fly_fixed", PDE_9X5), {
        "metrics.csv": "5e52c329bfee19c538514cd63ccecfaf60ff8422948e9f94607fea33e6a5a67c",
    }),
    "pde_9x5_inner_steady_state": (["pde"], pde("inner_steady_state", PDE_9X5), {
        "metrics.csv": "d5a35912b5a9b056123729d7464dfa57ce47e0debfeeea4480c86d7e6d999e95",
    }),
    "fig2": (["fig", "2"], AGENTS, {
        "fig2_n1.csv": "309f0feefc8914d1e9a4cc8888ac2add0a03b00bef66b15ce7b09874b303b9cc",
        "fig2_n5.csv": "b2f48ba4c5982fe581a27d856d5b63943403f60ed2112b6ece88e9622c65ad3d",
        "fig2_n10.csv": "c669d0ab3593592f49299b6dac44896e6cf03c13d3e9f247a6d3b1aa097cafff",
    }),
    "fig3": (["fig", "3"], AGENTS, {
        "fig3.csv": "8bc3cd07f45e78312ab7d457612afb5db35a20eb1d5605889f8ae985d24d8d9f",
    }),
    "fig4": (["fig", "4"], PDE, {
        "fig4_density.csv": "c38c35b2dafbd9ed5e54deaeaeccf0379d77dfc43447ecc5282ef68d4787db92",
        "fig4_metrics.csv": "75ef42e150f9a7964e32baa1367a71f7a49360f57b8df4c9958c50a0136126a6",
    }),
    "fig5": (["fig", "5"], PDE, {
        "fig5_n1.csv": "6c47cc953834022a6aa74d78c71b681ef220e2f12deb0ab9df06931b6aa53be6",
        "fig5_n2.csv": "4bf61d9cc65b95e251e1fafca631269b089b65248a5007bc5c8c8222f73b682a",
        "fig5_n5.csv": "451a18b6522439dbca89c95d65c625749540b95f16e12a94bc6976488ca172e6",
        "fig5_n10.csv": "1dbe480f07e7e965492ea0f437d1e7a9f138b0d888597250f9768d158b872cf9",
    }),
    "fig6": (["fig", "6"], PDE, {
        "fig6_n1.csv": "1431a87b6e41ec1fdc0c935849bc08280e9dd1b9e6bdd3c0c57f003223eee24f",
        "fig6_n2.csv": "83416583df39e06eabd53ff00afec23361b66b71a62a2a8dc9851e614d14a58d",
        "fig6_n5.csv": "282e3b980937587ecc7195f8b8430b16922733361cc1c2d184cf972bbe650acc",
        "fig6_n10.csv": "35c1e1d22b1f7fc1b17dcbe161c5020b7879ba8396dfa6eca66de084f3923f38",
    }),
    "fig5_partial": (["fig", "5"], FIG5_PARTIAL, {
        "fig5_n1.csv": "d8b2b6a30606aced326a173fe415280eb8db1a850f5269d65a72e7d5a0dd890a",
        "fig5_n2.csv": "404328791c69095e46151818f719d805ad5e234cfe8155c28251e4c7d6351c1f",
        "fig5_n5.csv": "52def7bd1f2c73675cfda9b717f3cbdc2793bcfd54617b37066cbd271069f04c",
        "fig5_n10.csv": "1924cad85f0f32f180d63cbf2342426424fcb988753598c09569caa472d38409",
    }),
}

# the stdout of cases whose console output is part of the result
STDOUT = {
    "fig5_partial": (
        "fig 5: n=1 stopped after t=0.4730: transport step made the density "
        "nonpositive or NaN at node (4,9); reduce dt\n"
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


def test_oracle_check_stdout_matches_recorded_digest(capsys):
    assert cli.oracle_check(ExperimentConfig(seed=0), n_instances=3) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ORACLE_STDOUT
