"""Config parsing and command-line harness tests.

The CLI tests run `python -m swarm_ot` from the checkout's src/ in a
subprocess on tiny configurations, checking output schemas and
byte-level determinism.
"""

import hashlib
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import collect, run_python
from swarm_ot import ConfigError, PositivityError, cli, config, grid, load_config, primal_dual

AGENTS_CFG = """\
# agent quantization run
mode = agents
seed = 7
transport.N = 10
transport.K = 3
transport.n = 5
transport.eps = 0.02
transport.tau = 1.0
quadrature.resolution = 64
target.kind = gaussian
target.means = 0.5 0.5
target.covariances = 2.0 0.0 0.0 2.0
"""

PDE_CFG = """\
mode = pde
seed = 1
grid.nx = 8
grid.ny = 8
grid.dt = 1e-2
grid.T = 0.1
grid.mode = on_the_fly_pd
grid.n = 2
target.kind = uniform
output.record_every = 2
"""


def run_cli(*args, cwd=None, env=None):
    return run_python(["-m", "swarm_ot", *args], cwd=cwd, env=env)


def test_defaults_cover_the_standard_experiment():
    cfg = load_config("")
    assert cfg.mode is None  # each command runs its own mode
    assert cfg.n_agents == 30
    assert cfg.rounds == 40
    assert cfg.eps == 0.02
    assert cfg.tau == 1.0
    assert cfg.quad_resolution == 256
    assert cfg.grid_nx == cfg.grid_ny == 50
    assert cfg.grid_dt == 1e-3
    assert cfg.grid_mode == "inner_steady_state"
    assert cfg.grid_warm_start is False


def test_full_agents_config_parses():
    cfg = load_config(AGENTS_CFG)
    assert cfg.seed == 7
    assert cfg.n_agents == 10 and cfg.rounds == 3 and cfg.inner_iters == 5
    np.testing.assert_allclose(cfg.target_means, [[0.5, 0.5]])
    np.testing.assert_allclose(cfg.target_covariances, [2.0 * np.eye(2)])


def test_vector_lists_split_on_semicolons():
    cfg = load_config(
        "target.means = 0.2 0.2; 0.8 0.8\n"
        "target.covariances = 1 0 0 1; 2 0 0 2\n"
        "target.weights = 0.3 0.7\n"
    )
    assert cfg.target_means.shape == (2, 2)
    assert cfg.target_covariances.shape == (2, 2, 2)
    np.testing.assert_allclose(cfg.target_weights, [0.3, 0.7])


def test_unknown_key_is_rejected_with_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown key 'transport.epsilon'"):
        load_config("seed = 1\ntransport.epsilon = 0.5\n")
    # inner_steady_state has no inner solver, so no tolerance for one
    with pytest.raises(ConfigError, match="line 1: unknown key 'grid.inner_tol'"):
        load_config("grid.inner_tol = 1e-8\n")
    # the gradient fit's rcond is a constant, not a knob
    with pytest.raises(ConfigError, match="line 1: unknown key 'transport.grad_tol'"):
        load_config("transport.grad_tol = 1e-9\n")


def test_a_repeated_key_names_both_lines():
    with pytest.raises(ConfigError, match="line 3: key 'transport.N' repeats line 1"):
        load_config("transport.N = 5\nseed = 2\ntransport.N = 7\n")


def test_malformed_and_out_of_range_values_name_the_key():
    with pytest.raises(ConfigError, match="key 'transport.eps' has malformed value"):
        load_config("transport.eps = fast\n")
    with pytest.raises(ConfigError, match="key 'transport.eps' must be positive"):
        load_config("transport.eps = -1\n")
    with pytest.raises(ConfigError, match="key 'transport.N' must be at least 2"):
        load_config("transport.N = 1\n")
    with pytest.raises(ConfigError, match="key 'mode' must be one of"):
        load_config("mode = agent\n")


FLOAT_KEYS = [key for key, (_, parse, _, _) in config._KEYS.items() if parse is config._parse_float]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_floats_are_malformed_for_every_key(key):
    for value in ("inf", "-inf", "nan"):
        with pytest.raises(ConfigError, match=f"line 2: key '{key}' has malformed value"):
            load_config(f"seed = 1\n{key} = {value}\n")
    with pytest.raises(ConfigError, match="key 'target.covariances' has malformed value"):
        load_config("target.covariances = 0.05 0 0 inf\n")


@pytest.mark.parametrize(
    "key, value",
    [
        *((key, value) for key in ("target.means", "target.covariances", "target.weights")
          for value in ("", ";")),
        ("target.pgm_path", ""),
    ],
)
def test_an_empty_value_names_its_key_and_line(key, value):
    with pytest.raises(ConfigError, match=f"^line 3: key '{key}' "):
        load_config(f"seed = 1\ntarget.kind = pgm\n{key} = {value}\n")


@pytest.mark.parametrize("command", [["pde"], ["fig", "4"]])
def test_an_infinite_horizon_is_an_error_not_a_traceback(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = pde\ngrid.nx = 4\ngrid.ny = 4\ngrid.T = inf\n")
    assert cli.main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: line 4: key 'grid.T'" in capsys.readouterr().err
    # past the config file, the grid loop's step count rejects it too
    unchecked = config.ExperimentConfig(mode="pde", grid_nx=4, grid_ny=4, grid_horizon=np.inf)
    with pytest.raises(ValueError, match="horizon must be finite"):
        cli.run_fig(unchecked, 4, tmp_path)


def test_missing_assignment_and_comments():
    with pytest.raises(ConfigError, match="line 3: expected 'key = value'"):
        load_config("# fine\nseed = 3\njust words\n")
    cfg = load_config("seed = 3  # trailing comment\n\n# only comments\n")
    assert cfg.seed == 3


def test_mixture_component_counts_must_agree():
    with pytest.raises(ConfigError, match="component counts disagree"):
        load_config("target.means = 0.5 0.5\ntarget.weights = 0.5 0.5\n")
    # without target.means a Gaussian target has one seeded mean, and the
    # error names a key the file sets, with its line
    mixtures = ["target.weights = 1 2\n", "target.covariances = 1 0 0 1; 2 0 0 2\n"]
    for text in mixtures:
        key = text.split(" =")[0]
        with pytest.raises(ConfigError, match=f"^line 2: key '{key}' mixture component counts "
                                              "disagree: .* and one seeded mean$"):
            load_config("seed = 1\n" + text)
        # a uniform target reads no mixture, so the same keys still load
        assert load_config("target.kind = uniform\n" + text).target_kind == "uniform"
    with pytest.raises(ConfigError, match="entries must be 2-vectors"):
        load_config("target.means = 0.5 0.5 0.5\n")


def test_cross_requirements():
    with pytest.raises(ConfigError, match="requires key 'target.pgm_path'"):
        load_config("target.kind = pgm\n")
    # transport.fixed_dual alone selects the primal-only agent loop
    assert load_config("mode = agents\ntransport.fixed_dual = 1.0\n").fixed_dual == 1.0
    assert load_config("transport.fixed_dual = 1.0\n").fixed_dual == 1.0


def test_the_agents_fixed_dual_mode_is_gone():
    with pytest.raises(ConfigError, match=r"^line 2: key 'mode' must be one of \('agents', 'pde'\)"):
        load_config("transport.fixed_dual = 1.0\nmode = agents_fixed_dual\n")


def test_the_readme_table_names_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    first_cells = [row.split("|")[1] for row in table.splitlines() if row.startswith("| `")]
    named = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(named) == sorted(config._KEYS)


def test_the_config_and_the_grid_loop_share_one_list_of_modes():
    assert config.GRID_MODES is grid.MODES
    rho = np.full(4, 0.25)
    for mode in grid.MODES:
        assert load_config(f"grid.mode = {mode}\n").grid_mode == mode
        grid.run_coupled(grid.GridState(2, 2, rho), rho, mode, collect([]), horizon=0.0)
    with pytest.raises(ConfigError, match="key 'grid.mode' must be one of"):
        load_config("grid.mode = steady\n")
    with pytest.raises(ValueError, match="mode must be one of"):
        grid.run_coupled(grid.GridState(2, 2, rho), rho, "steady", collect([]))


def test_agents_cli_writes_both_csvs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(AGENTS_CFG)
    res = run_cli("agents", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    metrics = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "k,mass_variance,net_cost,dual_objective,feasibility_violation,connected"
    assert len(metrics) == 5  # header + rounds 0..3
    positions = (tmp_path / "out" / "positions.csv").read_text().splitlines()
    assert positions[0] == "k,agent,x,y,owner_mass"
    assert len(positions) == 1 + 4 * 10


def test_pde_cli_writes_metrics(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PDE_CFG)
    res = run_cli("pde", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "t,V,E,kkt_stationarity,kkt_feasibility,kkt_slackness,mass_error"
    assert len(lines) == 7  # header + t=0 + five recorded of ten steps
    t_final = float(lines[-1].split(",")[0])
    assert t_final == pytest.approx(0.1)


def test_pde_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at 65k nodes a BLAS dot product splits its sum by thread count
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode = pde\ngrid.nx = 256\ngrid.ny = 256\ngrid.mode = on_the_fly_pd\n"
        "grid.warm_start = true\ngrid.T = 0.002\n"
    )
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        res = run_cli("pde", "--config", str(cfg), "--out", str(out), env=env)
        assert res.returncode == 0, res.stderr
        digests.add(hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest())
    assert len(digests) == 1


def test_a_pde_run_never_imports_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PDE_CFG + "grid.warm_start = true\n")  # runs the stationary solve
    script = (
        "import sys\n"
        "from swarm_ot import cli\n"
        f"assert cli.main(['pde', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = run_python(["-c", script])
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", [["agents"], ["fig", "2"]], ids=["agents", "fig2"])
def test_an_agent_run_never_imports_scipy(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(AGENTS_CFG)
    argv = [*command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from swarm_ot import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = run_python(["-c", script])
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_an_agent_run_never_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call: about 14 ms and 1.3 MiB of
    # peak RSS that an agent run's pair keys and degrees do not need
    cfg = tmp_path / "run.cfg"
    cfg.write_text(AGENTS_CFG)
    argv = ["agents", "--config", str(cfg), "--out", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from swarm_ot import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    res = run_python(["-c", script])
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_starting_at_the_target_keeps_v_at_zero(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PDE_CFG + "grid.rho0 = target\n")
    res = run_cli("pde", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    v_column = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(v <= 1e-15 for v in v_column)


def test_starting_at_a_target_with_zero_nodes_is_a_config_error(tmp_path):
    # so narrow a Gaussian underflows to 0 at far nodes of the 50x50 grid
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode = pde\ngrid.rho0 = target\ngrid.T = 0.01\n"
        "target.means = 0.5 0.5\ntarget.covariances = 0.0001 0 0 0.0001\n"
    )
    res = run_cli("pde", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "error: grid.rho0 = target needs a strictly positive target" in res.stderr
    assert "at node (0,0) of the 50x50 grid" in res.stderr
    # a random start is unaffected by the zero target nodes
    cfg.write_text(cfg.read_text().replace("grid.rho0 = target", "grid.rho0 = random"))
    res = run_cli("pde", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr


def test_rho0_key_parses_and_rejects_junk():
    assert load_config("").grid_rho0 == "random"
    assert load_config("grid.rho0 = target\n").grid_rho0 == "target"
    with pytest.raises(ConfigError, match="grid.rho0"):
        load_config("grid.rho0 = flat\n")


def test_warm_start_key_is_tied_to_the_pd_mode():
    text = "grid.mode = on_the_fly_pd\ngrid.warm_start = true\n"
    assert load_config(text).grid_warm_start is True
    with pytest.raises(ConfigError, match="grid.warm_start"):
        load_config("grid.warm_start = yes\n")
    with pytest.raises(ConfigError, match="grid.warm_start"):
        load_config("grid.warm_start = true\n")  # default mode is not on_the_fly_pd


def test_mode_and_command_must_agree(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PDE_CFG)
    res = run_cli("agents", "--config", str(cfg), "--out", str(tmp_path))
    assert res.returncode == 1
    assert "does not match command 'agents'" in res.stderr


def test_config_errors_reach_stderr(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("transport.eps = -3\n")
    res = run_cli("agents", "--config", str(cfg), "--out", str(tmp_path))
    assert res.returncode == 1
    assert "transport.eps" in res.stderr


def test_negative_definite_covariance_is_a_config_error(tmp_path):
    # det(-0.05 I) > 0, but the "density" would peak in the corners
    cfg = tmp_path / "run.cfg"
    cfg.write_text(AGENTS_CFG.replace("2.0 0.0 0.0 2.0", "-0.05 0 0 -0.05"))
    res = run_cli("agents", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "error:" in res.stderr and "positive definite" in res.stderr


def test_inner_steady_state_with_dt_above_one_is_an_error(tmp_path):
    # it rescales multipliers by 1 - dt, which would turn them negative
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = pde\ngrid.nx = 8\ngrid.ny = 8\ngrid.dt = 1.5\ngrid.T = 6\n")
    res = run_cli("pde", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "error:" in res.stderr and "dt <= 1" in res.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_density_stops_pde_and_marks_fig6_partial(tmp_path, capsys):
    # a huge fixed multiplier overflows phi to inf, and inf - inf is NaN
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode = pde\ngrid.nx = 8\ngrid.ny = 8\ngrid.mode = on_the_fly_fixed\n"
        "grid.lam_fixed = 1e200\ngrid.dt = 0.5\ngrid.T = 1\ngrid.n = 50\n"
    )
    assert cli.main(["pde", "--config", str(cfg), "--out", str(tmp_path / "pde")]) == 1
    assert "error: transport step made the density nonpositive or NaN" in capsys.readouterr().err
    assert cli.main(["fig", "6", "--config", str(cfg), "--out", str(tmp_path / "fig")]) == 0
    assert "fig6_n1.csv (partial)" in capsys.readouterr().out
    rows = (tmp_path / "fig" / "fig6_n1.csv").read_text().splitlines()[1:]
    assert rows and "nan" not in "".join(rows)


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(AGENTS_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, seed in ((out_a, "7"), (out_b, "8")):
        res = run_cli("agents", "--config", str(cfg), "--seed", seed, "--out", str(out))
        assert res.returncode == 0, res.stderr
    same = (out_a / "metrics.csv").read_text() == (out_b / "metrics.csv").read_text()
    assert not same
    # seed 7 equals the config default run
    res = run_cli("agents", "--config", str(cfg), "--out", str(tmp_path / "c"))
    assert res.returncode == 0
    assert (out_a / "metrics.csv").read_text() == (tmp_path / "c" / "metrics.csv").read_text()


def test_zero_rounds_gives_header_plus_initial_row(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(AGENTS_CFG.replace("transport.K = 3", "transport.K = 0"))
    res = run_cli("agents", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,")


# the smallest square grid whose inner steps `iterate` splits across threads
SPLIT = math.isqrt(primal_dual.THREAD_MIN_NODES - 1) + 1


def test_threads_flag_never_changes_bytes(tmp_path):
    split = f"seed = 3\ngrid.nx = {SPLIT}\ngrid.ny = {SPLIT}\ngrid.T = 0.003\ngrid.n = 3\n"
    cases = [
        (["agents"], AGENTS_CFG, ("1", "4")),
        (["pde"], split + "grid.mode = on_the_fly_pd\n", ("1", "2", "3")),
        (["pde"], split + "grid.mode = on_the_fly_fixed\n", ("1", "2", "3")),
        (["fig", "5"], split.replace("grid.T = 0.003", "grid.T = 0.002"), ("1", "2", "3")),
    ]
    for k, (command, config, thread_counts) in enumerate(cases):
        cfg = tmp_path / f"run{k}.cfg"
        cfg.write_text(config)
        outputs = []
        for threads in thread_counts:
            out = tmp_path / f"case{k}_t{threads}"
            res = run_cli(*command, "--config", str(cfg), "--threads", threads, "--out", str(out))
            assert res.returncode == 0, res.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert outputs[0] and all(o == outputs[0] for o in outputs[1:]), command
    res = run_cli("agents", "--config", str(tmp_path / "run0.cfg"), "--threads", "0",
                  "--out", str(tmp_path))
    assert res.returncode == 1


def test_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PDE_CFG)
    for out in ("r1", "r2"):
        res = run_cli("pde", "--config", str(cfg), "--out", str(tmp_path / out))
        assert res.returncode == 0, res.stderr
    assert (tmp_path / "r1" / "metrics.csv").read_bytes() == (
        tmp_path / "r2" / "metrics.csv"
    ).read_bytes()


def test_write_csv_memory_does_not_grow_with_its_rows(tmp_path):
    # rows are formatted and written one at a time, so neither the lines
    # nor the joined text of a long run are ever held
    path = tmp_path / "rows.csv"

    def peak(n):
        rows = ((i / 3, i / 7, i / 11, i / 13, i / 17, i / 19, i / 23) for i in range(n))
        tracemalloc.start()
        try:
            cli.write_csv(path, cli.PDE_HEADER, rows)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(1_000)
    assert peak(50_000) - small < 64 * 2**10
    assert path.read_bytes().count(b"\n") == 50_001


def test_pde_memory_does_not_grow_with_its_horizon(tmp_path):
    # each record goes to the CSV as the loop takes it, so ten times the
    # records take no more memory; kept in a list they would take 0.4 KiB each
    cfg = tmp_path / "run.cfg"

    def peak(horizon):
        cfg.write_text(
            "mode = pde\ngrid.nx = 6\ngrid.ny = 6\ngrid.dt = 1e-3\n"
            f"grid.T = {horizon}\ngrid.mode = inner_steady_state\n"
        )
        tracemalloc.start()
        try:
            assert cli.main(["pde", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.001)  # a first run takes the lazy imports, such as numpy.fft
    small = peak(1)
    assert abs(peak(10) - small) < 64 * 2**10
    assert (tmp_path / "metrics.csv").read_bytes().count(b"\n") == 1 + 10_001


def test_agents_memory_does_not_grow_with_its_rounds(tmp_path):
    # each round's rows go to the CSVs as the loop hands the round over,
    # so ten times the rounds take no more memory
    cfg = tmp_path / "run.cfg"

    def peak(rounds):
        cfg.write_text(
            f"transport.N = 8\ntransport.K = {rounds}\ntransport.n = 2\nquadrature.resolution = 32\n"
        )
        tracemalloc.start()
        try:
            assert cli.main(["agents", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # a first run takes the lazy imports
    small = peak(40)
    assert abs(peak(400) - small) < 64 * 2**10
    assert (tmp_path / "metrics.csv").read_bytes().count(b"\n") == 1 + 401
    assert (tmp_path / "positions.csv").read_bytes().count(b"\n") == 1 + 401 * 8


def test_pde_on_the_empty_config_runs_the_default_pde(tmp_path, capsys):
    # an empty config leaves the mode to the command, as no config does
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert cli.main(["pde", "--out", str(tmp_path / "none")]) == 0
    assert cli.main(["pde", "--config", str(empty), "--out", str(tmp_path / "empty")]) == 0
    assert (tmp_path / "empty" / "metrics.csv").read_bytes() == (
        tmp_path / "none" / "metrics.csv"
    ).read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]


def test_positivity_stops_that_dt_does_not_move(tmp_path):
    # 32x32, seed 15, one inner step: the stop time converges as dt halves
    # and the stop stays at one node, so a smaller dt does not avoid it
    stops = []
    for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        cfg = load_config(
            f"seed = 15\ngrid.nx = 32\ngrid.ny = 32\ngrid.dt = {dt}\ngrid.T = 1.0\n"
            "grid.mode = on_the_fly_pd\ngrid.warm_start = true\ngrid.n = 1\n"
        )
        state, rho_star = cli._pde_state(cfg)
        with pytest.raises(PositivityError) as stop:
            # records play no part in the stop, so the run takes only the first
            grid.run_coupled(state, rho_star, cfg.grid_mode, lambda s, r: None, inner_n=1,
                             horizon=cfg.grid_horizon, record_every=10**9)
        stops.append((stop.value.t, str(stop.value)))
    times = [t for t, _ in stops]
    rises = np.diff(times)
    assert np.all(rises > 0) and np.all(np.diff(rises) < 0), times
    assert 0.63 < times[0] and times[-1] < 0.64
    # every stop names the node, its density after the step and its
    # outflow, and the one lever that moved such stops: grid.n, not dt
    message = re.compile(
        r"transport step made the density nonpositive or NaN at node \(31,19\): density "
        r"(\S+) after the step, outflow dt\*\(L phi\)_i = (\S+); a larger grid\.n "
        r"\(more inner steps per transport step\) can avoid it"
    )
    for _, text in stops:
        density, outflow = map(float, message.fullmatch(text).groups())
        assert density <= 0.0 < outflow


@pytest.mark.parametrize(
    "command, config, built",
    [
        ("agents", AGENTS_CFG, [(64, 64)]),
        ("pde", PDE_CFG.replace("target.kind = uniform\n", ""), [(8, 8)]),
    ],
    ids=["agents", "pde"],
)
def test_a_run_builds_the_quadratures_it_uses(tmp_path, monkeypatch, command, config, built):
    # the agents normalize their Gaussian target on the quadrature they
    # run on, and a grid command on the cells of its grid alone
    real, shapes = cli.QuadratureGrid, []

    def counted(*args, **kwargs):
        q = real(*args, **kwargs)
        shapes.append((q.nx, q.ny))
        return q

    for module in (cli, grid):
        monkeypatch.setattr(module, "QuadratureGrid", counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert shapes == built


def test_pgm_target_flows_through_the_cli(tmp_path):
    img = tmp_path / "target.pgm"
    img.write_bytes(b"P2 2 2 255 0 255 255 0")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode = agents\nseed = 2\ntransport.N = 6\ntransport.K = 2\n"
        "quadrature.resolution = 32\ntarget.kind = pgm\n"
        f"target.pgm_path = {img}\n"
    )
    res = run_cli("agents", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "out" / "positions.csv").exists()


def test_fig_subcommand_smoke(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode = agents\nseed = 2\ntransport.N = 6\ntransport.K = 2\n"
        "quadrature.resolution = 32\ntarget.kind = uniform\n"
        "grid.nx = 5\ngrid.ny = 5\ngrid.dt = 1e-2\ngrid.T = 0.05\n"
    )
    res = run_cli("fig", "3", "--config", str(cfg), "--out", str(tmp_path / "f3"))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "f3" / "fig3.csv").read_text().splitlines()
    assert lines[0] == "n,net_cost"
    assert len(lines) == 11
    res = run_cli("fig", "5", "--config", str(cfg), "--out", str(tmp_path / "f5"))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "f5" / "fig5_n2.csv").read_text().splitlines()
    assert lines[0].startswith("t,density_error,V,E,")
    assert len(lines) >= 3
    res = run_cli("fig", "7", "--config", str(cfg), "--out", str(tmp_path))
    assert res.returncode == 2  # argparse rejects out-of-range figure numbers


def test_fig2_keeps_the_fixed_dual_of_its_config(tmp_path):
    # each fig 2 curve is the `agents` run at its transport.n, with or
    # without a fixed dual, and the fixed dual changes it
    plain = "transport.N = 8\ntransport.K = 3\nquadrature.resolution = 32\n"
    configs = {
        "plain": "mode = agents\n" + plain,
        "fixed": "transport.fixed_dual = 1.0\n" + plain,
    }
    curves = {}
    for name, text in configs.items():
        cfg, fig = tmp_path / f"{name}.cfg", tmp_path / name / "fig"
        cfg.write_text(text)
        assert cli.main(["fig", "2", "--config", str(cfg), "--out", str(fig)]) == 0
        for n in (1, 5, 10):
            cfg, out = tmp_path / f"{name}_n{n}.cfg", tmp_path / name / f"n{n}"
            cfg.write_text(text + f"transport.n = {n}\n")
            assert cli.main(["agents", "--config", str(cfg), "--out", str(out)]) == 0
            curves[name, n] = (fig / f"fig2_n{n}.csv").read_bytes()
            assert curves[name, n] == (out / "metrics.csv").read_bytes()
    assert all(curves["fixed", n] != curves["plain", n] for n in (1, 5, 10))


def test_fig3_rows_are_the_final_net_costs_of_agents_runs(tmp_path):
    # fig 3's row n holds, as text, the last net_cost of `agents` at transport.n = n
    text = "transport.N = 8\ntransport.K = 3\ntransport.tau = 0.25\nquadrature.resolution = 32\n"
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(text)
    assert cli.main(["fig", "3", "--config", str(cfg), "--out", str(tmp_path / "fig")]) == 0
    rows = (tmp_path / "fig" / "fig3.csv").read_text().splitlines()
    for n in (1, 5, 10):
        cfg, out = tmp_path / f"n{n}.cfg", tmp_path / f"n{n}"
        cfg.write_text(text + f"transport.n = {n}\n")
        assert cli.main(["agents", "--config", str(cfg), "--out", str(out)]) == 0
        net_cost = (out / "metrics.csv").read_text().splitlines()[-1].split(",")[2]
        assert rows[n] == f"{n},{net_cost}"


def test_uniform_pde_target_reaches_tiny_error(tmp_path):
    # rho0 far from uniform decays toward it; V must drop monotonically
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode = pde\nseed = 4\ngrid.nx = 6\ngrid.ny = 6\n"
        "grid.dt = 1e-2\ngrid.T = 1.0\ngrid.mode = inner_steady_state\n"
        "target.kind = uniform\n"
    )
    res = run_cli("pde", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    vs = [float(line.split(",")[1]) for line in lines]
    assert vs[-1] < vs[0] * 0.2
    assert all(b <= a + 1e-15 for a, b in zip(vs, vs[1:]))


@pytest.mark.parametrize("positivity", [True, False])
def test_fig5_marks_partial_only_on_positivity_stops(tmp_path, monkeypatch, capsys, positivity):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mode = pde\nseed = 2\ntarget.kind = uniform\noutput.record_every = 1\n"
        "grid.nx = 5\ngrid.ny = 5\ngrid.dt = 1e-2\ngrid.T = 0.05\n"
    )
    real, calls = grid.transport_step, []

    def fail_second_step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise (PositivityError if positivity else ValueError)("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(grid, "transport_step", fail_second_step)
    code = cli.main(["fig", "5", "--config", str(cfg), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    if positivity:
        assert code == 0, err
        assert "fig5_n1.csv (partial)" in out
        assert len((tmp_path / "out" / "fig5_n1.csv").read_text().splitlines()) == 3
        assert (tmp_path / "out" / "fig5_n10.csv").exists()
    else:
        # any other ValueError is a failure of the command, not a partial figure
        assert code == 1
        assert "error: injected failure" in err
        assert "wrote" not in out
        assert not list((tmp_path / "out").glob("fig5_*.csv"))


@pytest.mark.parametrize("horizon", ["0.01", "0.014"])
@pytest.mark.parametrize("mode", ["inner_steady_state", "on_the_fly_fixed"])
def test_fig4_is_one_pde_run_with_its_last_snapshot_at_the_horizon(tmp_path, mode, horizon):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mode = pde\ngrid.nx = 8\ngrid.ny = 8\ngrid.dt = 1e-3\ngrid.T = {horizon}\n"
        f"grid.mode = {mode}\noutput.record_every = 3\n"
    )
    assert cli.main(["pde", "--config", str(cfg), "--out", str(tmp_path / "pde")]) == 0
    assert cli.main(["fig", "4", "--config", str(cfg), "--out", str(tmp_path / "fig")]) == 0
    metrics = (tmp_path / "fig" / "fig4_metrics.csv").read_bytes()
    assert metrics == (tmp_path / "pde" / "metrics.csv").read_bytes()
    density = np.loadtxt(tmp_path / "fig" / "fig4_density.csv", delimiter=",", skiprows=1)
    times = sorted(set(density[:, 0]))
    assert len(times) == 5 and times[0] == 0.0
    assert times[-1] == pytest.approx(float(horizon), abs=1e-12)


# a natural positivity stop: n = 1 of fig 5 stops after step 473
PARTIAL_CFG = """\
mode = pde
grid.nx = 20
grid.ny = 20
grid.dt = 1e-3
grid.T = 0.5
target.means = 0.5 0.5
target.covariances = 0.05 0 0 0.05
output.record_every = 7
grid.n = 2
"""


@pytest.mark.parametrize("number, mode", [(5, "on_the_fly_pd"), (6, "on_the_fly_fixed")])
def test_fig5_and_fig6_curves_are_pde_runs(tmp_path, number, mode):
    cfg = tmp_path / "run.cfg"
    # fig 5 warm-starts its curves, fig 6 does not
    warm = "grid.warm_start = true\n" if number == 5 else ""
    cfg.write_text(PARTIAL_CFG + f"grid.mode = {mode}\n" + warm)
    assert cli.main(["pde", "--config", str(cfg), "--out", str(tmp_path / "pde")]) == 0
    assert cli.main(["fig", str(number), "--config", str(cfg), "--out", str(tmp_path / "fig")]) == 0
    curve = (tmp_path / "fig" / f"fig{number}_n2.csv").read_text().splitlines()
    rows = [line.split(",") for line in curve]
    without_error = "".join(",".join(row[:1] + row[2:]) + "\n" for row in rows)
    assert without_error == (tmp_path / "pde" / "metrics.csv").read_text()
    assert len(rows) == 1 + 73


def test_a_pde_positivity_stop_keeps_its_rows_and_fails(tmp_path, capsys):
    # the pde run of fig 5's n = 1 curve: its records stream to the CSV,
    # so the stop leaves the partial curve's rows, and the command fails
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        PARTIAL_CFG.replace("grid.n = 2", "grid.n = 1")
        + "grid.mode = on_the_fly_pd\ngrid.warm_start = true\n"
    )
    assert cli.main(["pde", "--config", str(cfg), "--out", str(tmp_path / "pde")]) == 1
    assert "error: transport step made the density nonpositive" in capsys.readouterr().err
    assert cli.main(["fig", "5", "--config", str(cfg), "--out", str(tmp_path / "fig")]) == 0
    assert "fig5_n1.csv (partial)" in capsys.readouterr().out
    rows = [line.split(",") for line in (tmp_path / "fig" / "fig5_n1.csv").read_text().splitlines()]
    without_error = "".join(",".join(row[:1] + row[2:]) + "\n" for row in rows)
    assert without_error == (tmp_path / "pde" / "metrics.csv").read_text()
    assert len(rows) == 1 + 68


@pytest.mark.parametrize("number", [5, 6])
def test_fig5_and_fig6_make_one_run_per_curve(tmp_path, monkeypatch, number):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = pde\ngrid.nx = 4\ngrid.ny = 4\ngrid.dt = 1e-2\ngrid.T = 0.03\n")
    real, curves = cli.run_coupled, []

    def counted(*args, **kwargs):
        curves.append(kwargs["inner_n"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_coupled", counted)
    assert cli.main(["fig", str(number), "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert curves == [1, 2, 5, 10]
