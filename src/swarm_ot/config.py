"""Flat key-value experiment configuration.

The format is one `section.key = value` assignment per line with `#`
comments; vector values are whitespace-separated numbers, and lists of
vectors use `;` between items. Every number must be finite. Unknown
and repeated keys are rejected so typos fail loudly, and every error
names the key and line it came from.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import MODES as GRID_MODES


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Validated experiment parameters with documented defaults."""

    mode: str | None = None  # None: the command's mode
    seed: int = 0
    # agent transport
    n_agents: int = 30
    rounds: int = 40
    inner_iters: int = 1
    eps: float = 0.02
    tau: float = 1.0
    fixed_dual: float | None = None
    radius: float | None = None
    quad_resolution: int = 256
    # target measure
    target_kind: str = "gaussian"
    target_means: np.ndarray | None = None
    target_covariances: np.ndarray | None = None
    target_weights: np.ndarray | None = None
    target_pgm_path: str | None = None
    # grid solver
    grid_nx: int = 50
    grid_ny: int = 50
    grid_dt: float = 1e-3
    grid_horizon: float = 10.0
    grid_mode: str = "inner_steady_state"
    grid_inner: int = 1
    grid_lam_fixed: float = 1.0
    grid_cost: float = 1.0
    grid_rho0: str = "random"
    grid_warm_start: bool = False
    record_every: int = 1
    out_dir: str = "."


_MODES = ("agents", "pde")
_TARGET_KINDS = ("gaussian", "uniform", "pgm")


def _parse_int(text):
    return int(text, 0)


def _parse_float(text):
    """A finite float: inf and nan are malformed for every key."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parse_bool(text):
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _parse_vectors(text):
    """Parse `a b; c d; ...` into a nonempty list of float arrays."""
    items = [part.strip() for part in text.split(";") if part.strip()]
    if not items:
        raise ValueError(text)
    return [np.array([_parse_float(tok) for tok in item.split()]) for item in items]


def _positive(value):
    return value > 0


def _nonnegative(value):
    return value >= 0


# key -> (attribute, parser, check, description of the constraint)
_KEYS = {
    "mode": ("mode", str, lambda v: v in _MODES, f"one of {_MODES}"),
    "seed": ("seed", _parse_int, lambda v: 0 <= v < 2**64, "a 64-bit unsigned integer"),
    "transport.N": ("n_agents", _parse_int, lambda v: v >= 2, "at least 2"),
    "transport.K": ("rounds", _parse_int, _nonnegative, "nonnegative"),
    "transport.n": ("inner_iters", _parse_int, _nonnegative, "nonnegative"),
    "transport.eps": ("eps", _parse_float, _positive, "positive"),
    "transport.tau": ("tau", _parse_float, _positive, "positive"),
    "transport.fixed_dual": ("fixed_dual", _parse_float, _positive, "positive"),
    "transport.radius": ("radius", _parse_float, _positive, "positive"),
    "quadrature.resolution": ("quad_resolution", _parse_int, lambda v: v >= 2, "at least 2"),
    "target.kind": ("target_kind", str, lambda v: v in _TARGET_KINDS, f"one of {_TARGET_KINDS}"),
    "target.means": ("target_means", _parse_vectors, None, None),
    "target.covariances": ("target_covariances", _parse_vectors, None, None),
    "target.weights": ("target_weights", _parse_vectors, None, None),
    "target.pgm_path": ("target_pgm_path", str, bool, "a nonempty path"),
    "grid.nx": ("grid_nx", _parse_int, lambda v: v >= 1, "at least 1"),
    "grid.ny": ("grid_ny", _parse_int, lambda v: v >= 1, "at least 1"),
    "grid.dt": ("grid_dt", _parse_float, _positive, "positive"),
    "grid.T": ("grid_horizon", _parse_float, _positive, "positive"),
    "grid.mode": ("grid_mode", str, lambda v: v in GRID_MODES, f"one of {GRID_MODES}"),
    "grid.n": ("grid_inner", _parse_int, lambda v: v >= 1, "at least 1"),
    "grid.lam_fixed": ("grid_lam_fixed", _parse_float, _positive, "positive"),
    "grid.cost": ("grid_cost", _parse_float, _positive, "positive"),
    "grid.rho0": (
        "grid_rho0",
        str,
        lambda v: v in ("random", "target"),
        "one of ('random', 'target')",
    ),
    "grid.warm_start": ("grid_warm_start", _parse_bool, None, None),
    "output.record_every": ("record_every", _parse_int, _positive, "positive"),
    "output.dir": ("out_dir", str, None, None),
}


def _finish_vectors(cfg, line_of):
    """Shape and cross-validate the target vector values."""

    def fail(key, message):
        where = f"line {line_of[key]}: " if key in line_of else ""
        raise ConfigError(f"{where}key '{key}' {message}")

    if cfg.target_means is not None:
        means = cfg.target_means
        if any(len(m) != 2 for m in means):
            fail("target.means", "entries must be 2-vectors")
        cfg.target_means = np.vstack(means)
    if cfg.target_covariances is not None:
        covs = cfg.target_covariances
        if any(len(c) != 4 for c in covs):
            fail("target.covariances", "entries must have 4 numbers (row-major 2x2)")
        cfg.target_covariances = np.stack([c.reshape(2, 2) for c in covs])
    if cfg.target_weights is not None:
        weights = np.concatenate(cfg.target_weights)
        if np.any(weights <= 0):
            fail("target.weights", "must be positive")
        cfg.target_weights = weights
    counts = {
        "target.means": None if cfg.target_means is None else len(cfg.target_means),
        "target.covariances": None
        if cfg.target_covariances is None
        else len(cfg.target_covariances),
        "target.weights": None if cfg.target_weights is None else len(cfg.target_weights),
    }
    given = {k: v for k, v in counts.items() if v is not None}
    # without target.means, `cli.build_target` seeds one Gaussian mean
    seeded = cfg.target_kind == "gaussian" and cfg.target_means is None
    if len(set(given.values()) | ({1} if seeded else set())) > 1:
        seeded_note = " and one seeded mean" if seeded else ""
        fail(sorted(given)[0], f"mixture component counts disagree: {given}{seeded_note}")


def load_config(text):
    """Parse and validate config text into an ExperimentConfig."""
    cfg = ExperimentConfig()
    line_of = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {ln}: unknown key '{key}'")
        if key in line_of:
            raise ConfigError(f"line {ln}: key '{key}' repeats line {line_of[key]}")
        attr, parser, check, constraint = _KEYS[key]
        try:
            parsed = parser(value)
        except ValueError:
            raise ConfigError(
                f"line {ln}: key '{key}' has malformed value '{value}'"
            ) from None
        if check is not None and not check(parsed):
            raise ConfigError(f"line {ln}: key '{key}' must be {constraint}, got {value}")
        setattr(cfg, attr, parsed)
        line_of[key] = ln
    _finish_vectors(cfg, line_of)
    if cfg.target_kind == "pgm" and cfg.target_pgm_path is None:
        raise ConfigError("target.kind 'pgm' requires key 'target.pgm_path'")
    if cfg.grid_warm_start and cfg.grid_mode != "on_the_fly_pd":
        raise ConfigError("key 'grid.warm_start' applies to grid.mode 'on_the_fly_pd' only")
    return cfg
