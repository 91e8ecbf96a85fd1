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
messages name the offending field.

This module is the only one that knows the file format: the keys, the noise
families' names, and how a value is parsed. ScenarioConfig applies the
values' rules, so a scenario built in code or by dataclasses.replace meets
the same rules and messages as a file. Each rule has one home, which the
library's entry points share: core.check_number for the real numbers (via
SimConfig for ode_step and fp_tol), engine.check_seed and check_n_paths,
and engine.MarketModel for the market's fields and their sizes, since a
ScenarioConfig extends MarketModel.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import yaml

from .beliefs import DEFAULT_ODE_STEP
from .core import Belief, GeneratorMatrix, StateGrid, check_number
from .engine import MarketModel, SimConfig, check_n_paths, check_seed
from .equilibrium import DEFAULT_TOL
from .errors import ConfigError
from .noise import Gaussian, Laplace, Logistic, NoiseModel, NoiseTraderMix, TwoPointDiscrete

# The file's noise families; a family's fields are its dataclass's fields.
_FAMILIES = {
    "logistic": Logistic,
    "gaussian": Gaussian,
    "laplace": Laplace,
    "two_point": TwoPointDiscrete,
    "noise_trader": NoiseTraderMix,
}


@dataclass(frozen=True)
class ScenarioConfig(MarketModel):
    """One scenario: a market (MarketModel's fields) plus run parameters, so
    it goes wherever a MarketModel does. Its rules are checked however it is
    built (from a file, in code, or by dataclasses.replace, as the CLI's
    --seed and --paths overrides are), with messages naming the file's keys."""

    horizon: float
    seed: int
    ode_step: float = DEFAULT_ODE_STEP
    fp_tol: float = DEFAULT_TOL
    n_paths: int = 1

    def __post_init__(self):
        check_number("lambda", self.arrival_rate, "nonnegative")
        check_number("horizon", self.horizon, "positive")
        self.sim_config()  # ode_step and fp_tol, with SimConfig's messages
        check_seed(self.seed)
        check_n_paths(self.n_paths)
        super().__post_init__()  # the sizes, with MarketModel's messages

    def model(self) -> MarketModel:
        return self

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


_REQUIRED = ("states", "generator", "lambda", "noise", "initial_belief",
             "horizon", "seed")
# the optional keys are the fields with a default, which is the key's default
_OPTIONAL = tuple(f.name for f in fields(ScenarioConfig) if f.default is not MISSING)


def _number(value, key, kind=float):
    """value as a float, or as an int with kind=int; a ConfigError naming
    key unless it is a number, and an integral one for kind=int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return kind(value)


def _numbers(value, key):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key}: expected a non-empty list of numbers")
    return [_number(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _rows(rows):
    if not isinstance(rows, (list, tuple)):
        raise ConfigError("generator: expected a list of rows")
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != len(rows):
            raise ConfigError(f"generator[{i}]: expected a row of {len(rows)} rates")
        matrix.append([_number(v, f"generator[{i}][{j}]") for j, v in enumerate(row)])
    return matrix


def _keyed(key, build, *args, **kwargs):
    """build(*args, **kwargs), with key prefixed to its ConfigError."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def noise_from_dict(spec: dict) -> NoiseModel:
    """Build a family from a config mapping like {"family": "logistic",
    "scale": 2.0}. Unknown families and stray or missing fields are
    ConfigErrors naming the offending key."""
    if not isinstance(spec, dict):
        raise ConfigError("noise: expected a mapping with a 'family' key")
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ConfigError(f"noise.family: expected one of {known}, got {family!r}")
    names = [f.name for f in fields(_FAMILIES[family])]
    missing = [name for name in names if name not in spec]
    if missing:
        raise ConfigError(f"noise.{missing[0]}: required for family {family!r}")
    extra = [key for key in spec if key != "family" and key not in names]
    if extra:
        raise ConfigError(f"noise.{extra[0]}: unknown field for family {family!r}")
    values = {name: _number(spec[name], f"noise.{name}") for name in names}
    return _keyed("noise", _FAMILIES[family], **values)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a scenario from plain nested data. Only the keys and the types
    are checked here; ScenarioConfig checks the values."""
    if not isinstance(data, dict):
        raise ConfigError("scenario: expected a mapping at the top level")
    for key in data:
        if key not in _REQUIRED and key not in _OPTIONAL:
            raise ConfigError(f"{key}: unknown key")
    for key in _REQUIRED:
        if key not in data:
            raise ConfigError(f"{key}: required key is missing")
    return ScenarioConfig(
        grid=_keyed("states", StateGrid, _numbers(data["states"], "states")),
        generator=_keyed("generator", GeneratorMatrix, _rows(data["generator"])),
        arrival_rate=_number(data["lambda"], "lambda"),
        noise=noise_from_dict(data["noise"]),
        initial_belief=_keyed(
            "initial_belief", Belief, _numbers(data["initial_belief"], "initial_belief")
        ),
        horizon=_number(data["horizon"], "horizon"),
        seed=_number(data["seed"], "seed", int),
        **{key: _number(data[key], key, int if key == "n_paths" else float)
           for key in _OPTIONAL if key in data},
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}")
    return scenario_from_dict(data)

