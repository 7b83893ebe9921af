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

PDE = """\
mode = pde
grid.nx = 8
grid.ny = 8
grid.T = 0.1
output.record_every = 10
"""


def pde(mode):
    return PDE + f"grid.mode = {mode}\n"


CASES = {
    "agents": (["agents"], AGENTS, {
        "metrics.csv": "b2f48ba4c5982fe581a27d856d5b63943403f60ed2112b6ece88e9622c65ad3d",
        "positions.csv": "98b231112e1d938d98c4b41263af0e1e90ab59c12934af20428d3c1f6cc19369",
    }),
    "agents_fixed_dual": (["agents"], AGENTS_FIXED_DUAL, {
        "metrics.csv": "1a5e6d95ed907df0a884b1b2063d5ae490b2344271b11c1bc440649f0ef985ce",
        "positions.csv": "cb978bfc1f5ecaafe2d524d8730e4a3dfc1ac94554abd9b531303190f2a841ba",
    }),
    "pde_on_the_fly_pd": (["pde"], pde("on_the_fly_pd"), {
        "metrics.csv": "e7da9852cb8bd2e33e2f1d0bb3e6d6db06967d6d11609e3fc55755f7e800ac8f",
    }),
    "pde_on_the_fly_pd_warm": (["pde"], pde("on_the_fly_pd") + "grid.warm_start = true\n", {
        "metrics.csv": "a765d2557b978e22dc1e87d9d21dbd68bdc27e04a69a0bcd98aaa9f2150be81c",
    }),
    "pde_on_the_fly_fixed": (["pde"], pde("on_the_fly_fixed"), {
        "metrics.csv": "e76dd20cf6646cb9a946696e98e8549bd5d5238442522fef6d854bcdc75b9abd",
    }),
    "pde_inner_steady_state": (["pde"], pde("inner_steady_state"), {
        "metrics.csv": "cf119d61844f287e97ca09ea2e0b5cf397acd0aad633aab28f79233022e91743",
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
        "fig4_density.csv": "96fc0300588fb2abc3de4da81bba76b0e79d99385f2200b32c0ac6053a6aac1c",
        "fig4_metrics.csv": "1c8f66320db41b6064d6692afde25a8396729489ab2f82857972192570d8ae89",
    }),
    "fig5": (["fig", "5"], PDE, {
        "fig5_n1.csv": "9812d02815a4e7001beed9d06e6e512803f7b29d3d8c614b57a2d69abcb28c4f",
        "fig5_n2.csv": "67630a1aea7aa4824c24be80be942728d65daf2ed70dcbb8a2ba0da492d39b3c",
        "fig5_n5.csv": "2b95a834d59beaaf71498afc1ee86c5abff58fdb674efcb77646a7650a8f137a",
        "fig5_n10.csv": "e371b510b739f40ec468c1fcd6c462f549667e7c2761a11b997744c8b50c675c",
    }),
    "fig6": (["fig", "6"], PDE, {
        "fig6_n1.csv": "74e4b23254dbafadf82d927d46e3ae81248c7c375cb678dcd169e8590da353bb",
        "fig6_n2.csv": "369381c2d5538431122df8ad5fff5f3d510a9dd33f0fbdd8a89d603aa0c718bf",
        "fig6_n5.csv": "41d6cbffc5b83abc13f5a53cf67612583bd0f8b49abd1f278a0b71636afa35ba",
        "fig6_n10.csv": "705827e7c5426ba0526fff6ac7791d20eaf28051f67663f66714a5611e699fff",
    }),
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
def test_seeded_output_matches_recorded_digest(name, tmp_path):
    args, config, expected = CASES[name]
    assert run_case(args, config, tmp_path) == expected


# stdout of `oracle-check` on the first 3 seed-0 instances
ORACLE_STDOUT = "047bfde714b93b5a687152a169bfb70c78946083779dfdf4a39426eb7d74593e"


def test_oracle_check_stdout_matches_recorded_digest(capsys):
    assert cli.oracle_check(ExperimentConfig(seed=0), n_instances=3) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ORACLE_STDOUT
