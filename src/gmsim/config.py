"""Scenario files: a YAML description of one market plus run parameters.

A scenario file holds everything a reproducible run needs:

    states: [0.0, 1.0]
    generator:
      - [0.0, 0.5]
      - [0.8, 0.0]
    lambda: 4.0
    noise: {family: logistic, scale: 2.0}
    initial_belief: [0.5, 0.5]
    horizon: 3.0
    seed: 42
    ode_step: 0.001      # optional
    fp_tol: 1.0e-12      # optional
    n_paths: 100         # optional

Generator diagonals may be written as zeros (they are derived from the row
sums) or spelled out, in which case each row must sum to zero. Error
messages name the offending field. load/save round-trips reproduce the
scenario exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .beliefs import DEFAULT_ODE_STEP
from .core import Belief, GeneratorMatrix, StateGrid
from .engine import MarketModel, SimConfig, check_seed
from .equilibrium import DEFAULT_TOL
from .errors import ConfigError
from .noise import NoiseModel, noise_from_dict, noise_to_dict

_REQUIRED = ("states", "generator", "lambda", "noise", "initial_belief",
             "horizon", "seed")
_OPTIONAL = {"ode_step": DEFAULT_ODE_STEP, "fp_tol": DEFAULT_TOL, "n_paths": 1}


@dataclass(frozen=True)
class ScenarioConfig:
    grid: StateGrid
    generator: GeneratorMatrix
    arrival_rate: float
    noise: NoiseModel
    initial_belief: Belief
    horizon: float
    seed: int
    ode_step: float = DEFAULT_ODE_STEP
    fp_tol: float = DEFAULT_TOL
    n_paths: int = 1

    def __post_init__(self):
        # here rather than in scenario_from_dict, so that the CLI's --seed and
        # --paths overrides (applied with dataclasses.replace) are checked too
        check_seed(self.seed)
        if self.n_paths < 1:
            raise ConfigError(f"n_paths: must be at least 1, got {self.n_paths}")

    def model(self) -> MarketModel:
        return MarketModel(
            grid=self.grid,
            generator=self.generator,
            arrival_rate=self.arrival_rate,
            noise=self.noise,
            initial_belief=self.initial_belief,
        )

    def sim_config(
        self,
        sample_dt: float | None = None,
        perturb_ask: float = 0.0,
        force: bool = False,
    ) -> SimConfig:
        return SimConfig(
            ode_step=self.ode_step,
            fp_tol=self.fp_tol,
            sample_dt=sample_dt,
            perturb_ask=perturb_ask,
            force=force,
        )


def _require_number(data, key, kind=float):
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return int(value)
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return out


def _require_vector(data, key):
    value = data[key]
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key}: expected a non-empty list of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{key}[{i}]: expected a number, got {v!r}")
        out.append(float(v))
    return out


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a scenario from plain nested data."""
    if not isinstance(data, dict):
        raise ConfigError("scenario: expected a mapping at the top level")
    known = set(_REQUIRED) | set(_OPTIONAL)
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")
    for key in _REQUIRED:
        if key not in data:
            raise ConfigError(f"{key}: required key is missing")

    try:
        grid = StateGrid(_require_vector(data, "states"))
    except ConfigError as exc:
        msg = str(exc)
        raise ConfigError(msg if msg.startswith("states") else f"states: {msg}")

    rows = data["generator"]
    if not isinstance(rows, (list, tuple)):
        raise ConfigError("generator: expected a list of rows")
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != len(rows):
            raise ConfigError(f"generator[{i}]: expected a row of {len(rows)} rates")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"generator[{i}][{j}]: expected a number")
        matrix.append([float(v) for v in row])
    try:
        generator = GeneratorMatrix(matrix)
    except ConfigError as exc:
        raise ConfigError(f"generator: {exc}")

    lam = _require_number(data, "lambda")
    if lam < 0.0:
        raise ConfigError(f"lambda: must be nonnegative, got {lam}")

    if not isinstance(data["noise"], dict):
        raise ConfigError("noise: expected a mapping with a 'family' key")
    noise = noise_from_dict(data["noise"])

    try:
        belief = Belief(_require_vector(data, "initial_belief"))
    except ConfigError as exc:
        msg = str(exc)
        raise ConfigError(
            msg if msg.startswith("initial_belief") else f"initial_belief: {msg}"
        )

    horizon = _require_number(data, "horizon")
    if horizon <= 0.0:
        raise ConfigError(f"horizon: must be positive, got {horizon}")
    seed = _require_number(data, "seed", kind=int)

    extras = {}
    for key, default in _OPTIONAL.items():
        if key in data:
            extras[key] = _require_number(
                data, key, kind=int if key == "n_paths" else float
            )
        else:
            extras[key] = default
    if extras["ode_step"] <= 0.0:
        raise ConfigError(f"ode_step: must be positive, got {extras['ode_step']}")
    if extras["fp_tol"] <= 0.0:
        raise ConfigError(f"fp_tol: must be positive, got {extras['fp_tol']}")

    cfg = ScenarioConfig(
        grid=grid,
        generator=generator,
        arrival_rate=lam,
        noise=noise,
        initial_belief=belief,
        horizon=horizon,
        seed=seed,
        ode_step=extras["ode_step"],
        fp_tol=extras["fp_tol"],
        n_paths=extras["n_paths"],
    )
    cfg.model()  # cross-field validation (sizes) with MarketModel's messages
    return cfg


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "states": [float(v) for v in cfg.grid.values],
        "generator": [[float(v) for v in row] for row in cfg.generator.rates],
        "lambda": cfg.arrival_rate,
        "noise": noise_to_dict(cfg.noise),
        "initial_belief": [float(v) for v in cfg.initial_belief.probs],
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "ode_step": cfg.ode_step,
        "fp_tol": cfg.fp_tol,
        "n_paths": cfg.n_paths,
    }


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}")
    return scenario_from_dict(data)


def save_scenario(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(
        yaml.safe_dump(scenario_to_dict(cfg), sort_keys=False)
    )
