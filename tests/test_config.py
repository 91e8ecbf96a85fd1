"""Scenario files: parsing, validation messages, and loading."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from gmsim.config import (
    ScenarioConfig,
    load_scenario,
    scenario_from_dict,
)
from gmsim.core import Belief
from gmsim.errors import ConfigError
from gmsim.noise import Gaussian, Logistic


def base_data():
    return {
        "states": [0.0, 0.5, 1.0],
        "generator": [
            [0.0, 0.4, 0.1],
            [0.3, 0.0, 0.3],
            [0.2, 0.5, 0.0],
        ],
        "lambda": 4.0,
        "noise": {"family": "logistic", "scale": 2.0},
        "initial_belief": [0.4, 0.2, 0.4],
        "horizon": 3.0,
        "seed": 42,
    }


def test_minimal_scenario_parses_with_defaults():
    cfg = scenario_from_dict(base_data())
    assert cfg.grid.n == 3
    assert cfg.arrival_rate == 4.0
    assert isinstance(cfg.noise, Logistic)
    assert cfg.noise.scale == 2.0
    assert cfg.horizon == 3.0
    assert cfg.seed == 42
    assert cfg.ode_step == 1e-3
    assert cfg.fp_tol == 1e-12
    assert cfg.n_paths == 1


def test_optional_keys_override_defaults():
    data = base_data() | {"ode_step": 0.01, "fp_tol": 1e-10, "n_paths": 25}
    cfg = scenario_from_dict(data)
    assert cfg.ode_step == 0.01
    assert cfg.fp_tol == 1e-10
    assert cfg.n_paths == 25


def test_generator_diagonal_may_be_spelled_out():
    data = base_data()
    data["generator"] = [
        [-0.5, 0.4, 0.1],
        [0.3, -0.6, 0.3],
        [0.2, 0.5, -0.7],
    ]
    cfg = scenario_from_dict(data)
    assert cfg.generator.rates[0][0] == pytest.approx(-0.5)
    assert sum(cfg.generator.rates[1]) == pytest.approx(0.0, abs=1e-15)


def test_model_and_sim_config_builders():
    cfg = scenario_from_dict(base_data() | {"ode_step": 0.02})
    model = cfg.model()
    assert model.arrival_rate == 4.0
    assert model.grid.n == 3
    sim = cfg.sim_config(sample_dt=0.1, perturb_ask=0.05, force=True)
    assert sim.ode_step == 0.02
    assert sim.sample_dt == 0.1
    assert sim.perturb_ask == 0.05
    assert sim.force


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="lamda: unknown key"):
        scenario_from_dict(base_data() | {"lamda": 4.0})


def test_missing_key_is_named():
    data = base_data()
    del data["horizon"]
    with pytest.raises(ConfigError, match="horizon: required key is missing"):
        scenario_from_dict(data)


def test_top_level_must_be_mapping():
    with pytest.raises(ConfigError, match="mapping"):
        scenario_from_dict([1, 2, 3])


class TestFieldErrors:
    """Every rejected field names itself in the message."""

    def check(self, overrides, pattern):
        with pytest.raises(ConfigError, match=pattern):
            scenario_from_dict(base_data() | overrides)

    def test_states_not_a_list(self):
        self.check({"states": "0,1"}, r"^states")

    def test_states_entry_not_a_number(self):
        self.check({"states": [0.0, "x"]}, r"states\[1\]")

    def test_states_not_increasing(self):
        self.check({"states": [1.0, 0.0]}, r"^states: .*increasing")

    def test_states_too_short(self):
        self.check({"states": [1.0]}, r"^states: .*two")

    def test_generator_not_a_list(self):
        self.check({"generator": 3.0}, r"^generator: expected a list")

    def test_generator_ragged_row(self):
        self.check(
            {"generator": [[0.0, 1.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0]]},
            r"generator\[1\]",
        )

    def test_generator_non_numeric_entry(self):
        self.check(
            {"generator": [[0.0, None, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            r"generator\[0\]\[1\]",
        )

    def test_generator_negative_rate(self):
        self.check(
            {"generator": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
            r"^generator: .*>= 0",
        )

    def test_generator_bad_row_sum(self):
        self.check(
            {"generator": [[-0.5, 0.4, 0.2], [0.3, -0.6, 0.3], [0.2, 0.5, -0.7]]},
            r"^generator: .*row 0 sums",
        )

    def test_lambda_negative(self):
        self.check({"lambda": -1.0}, r"^lambda: must be nonnegative")

    def test_lambda_not_a_number(self):
        self.check({"lambda": True}, r"^lambda: expected a number")

    def test_noise_not_a_mapping(self):
        self.check({"noise": "logistic"}, r"^noise: expected a mapping")

    def test_noise_unknown_family(self):
        self.check({"noise": {"family": "cauchy", "scale": 1.0}},
                   r"noise\.family")

    def test_noise_family_not_a_name(self):
        self.check({"noise": {"family": ["logistic"], "scale": 1.0}},
                   r"^noise\.family: expected one of")

    def test_noise_family_value_out_of_range(self):
        self.check({"noise": {"family": "logistic", "scale": -1.0}},
                   r"^noise: logistic scale must be positive")

    def test_noise_missing_field(self):
        self.check({"noise": {"family": "logistic"}}, r"noise\.scale: required")

    def test_noise_stray_field(self):
        self.check({"noise": {"family": "gaussian", "sigma": 1.0, "mu": 0.0}},
                   r"noise\.mu: unknown")

    def test_belief_wrong_entries(self):
        self.check({"initial_belief": [0.5, "a", 0.5]},
                   r"initial_belief\[1\]")

    def test_belief_negative_mass(self):
        self.check({"initial_belief": [0.7, -0.4, 0.7]}, r"^initial_belief")

    def test_horizon_zero(self):
        self.check({"horizon": 0.0}, r"^horizon: must be positive")

    def test_horizon_infinite(self):
        self.check({"horizon": math.inf}, r"^horizon: must be finite")

    def test_seed_not_integral(self):
        self.check({"seed": 1.5}, r"^seed: expected an integer")

    def test_seed_too_large(self):
        self.check({"seed": 2**63}, r"^seed: must fit in 64 bits")

    def test_seed_negative(self):
        self.check({"seed": -1}, r"^seed: .*nonnegative")

    def test_ode_step_zero(self):
        self.check({"ode_step": 0.0}, r"^ode_step: must be positive")

    def test_fp_tol_negative(self):
        self.check({"fp_tol": -1e-12}, r"^fp_tol: must be positive")

    def test_n_paths_zero(self):
        self.check({"n_paths": 0}, r"^n_paths: must be at least 1")

    def test_n_paths_fractional(self):
        self.check({"n_paths": 2.5}, r"^n_paths: expected an integer")


def test_cross_field_size_mismatch_is_caught():
    data = base_data()
    data["initial_belief"] = [0.5, 0.5]
    with pytest.raises(ConfigError, match="does not match the grid"):
        scenario_from_dict(data)
    data = base_data()
    data["generator"] = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ConfigError, match=r"generator\[0\]|2x2"):
        scenario_from_dict(data)


BAD_VALUES = {  # scenario file key: (ScenarioConfig field, value, the file's message)
    "horizon": ("horizon", -1.0, "horizon: must be positive, got -1.0"),
    "ode_step": ("ode_step", 0.0, "ode_step: must be positive, got 0.0"),
    "fp_tol": ("fp_tol", -1e-12, "fp_tol: must be positive, got -1e-12"),
    "lambda": ("arrival_rate", -1.0, "lambda: must be nonnegative, got -1.0"),
    "initial_belief": (
        "initial_belief", [0.4, 0.2, 0.4], "initial belief length does not match the grid"
    ),
    "n_paths": ("n_paths", 2.5, "n_paths: expected an integer, got 2.5"),
}


@pytest.mark.parametrize("key", sorted(BAD_VALUES))
def test_scenario_built_in_code_meets_the_file_rules(key):
    """A ScenarioConfig built directly or by dataclasses.replace is refused
    with the message a scenario file with the same value gets."""
    field, value, message = BAD_VALUES[key]
    data = base_data() | {"states": [0.0, 1.0], "generator": [[0.0, 0.5], [0.8, 0.0]],
                          "initial_belief": [0.5, 0.5]}
    with pytest.raises(ConfigError) as from_file:
        scenario_from_dict(data | {key: value})
    assert str(from_file.value) == message
    cfg = scenario_from_dict(data)
    if key == "initial_belief":
        value = Belief(value)
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)} | {field: value}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(**values)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        replace(cfg, **{field: value})


def test_seed_built_in_code_must_be_an_integer():
    """A float seed is refused, even an integral one that a file would
    accept, and so is a bool seed or path count; numpy integers pass."""
    cfg = scenario_from_dict(base_data())
    for seed in (7.9, 7.0, True):
        with pytest.raises(ConfigError, match=r"^seed: must fit in 64 bits"):
            replace(cfg, seed=seed)
    with pytest.raises(ConfigError, match=r"^n_paths: expected an integer, got True$"):
        replace(cfg, n_paths=True)
    assert replace(cfg, seed=np.int64(7), n_paths=np.int32(3)).seed == 7


def test_seed_accepts_integral_float():
    cfg = scenario_from_dict(base_data() | {"seed": 7.0})
    assert cfg.seed == 7
    assert isinstance(cfg.seed, int)


def test_initial_belief_is_normalized():
    cfg = scenario_from_dict(base_data() | {"initial_belief": [2.0, 1.0, 1.0]})
    assert cfg.initial_belief.probs.tolist() == pytest.approx([0.5, 0.25, 0.25])


def test_file_loads_as_its_mapping(tmp_path):
    """A scenario file loads as scenario_from_dict of the mapping it holds,
    field by field."""
    data = base_data() | {"n_paths": 5}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    loaded, cfg = load_scenario(path), scenario_from_dict(data)
    assert loaded.grid == cfg.grid and loaded.noise == Logistic(2.0)
    assert np.array_equal(loaded.generator.rates, cfg.generator.rates)
    assert np.array_equal(loaded.initial_belief.probs, cfg.initial_belief.probs)
    scalars = ("arrival_rate", "horizon", "seed", "ode_step", "fp_tol", "n_paths")
    assert [getattr(loaded, k) for k in scalars] == [getattr(cfg, k) for k in scalars]


def test_load_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "nope.yaml")


def test_load_invalid_yaml_is_config_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("states: [0.0, 1.0\ngenerator: oops")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_scenario(path)


def test_load_non_mapping_yaml_is_config_error(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_scenario(path)


def test_gaussian_noise_file_loads_as_gaussian(tmp_path):
    path = tmp_path / "g.yaml"
    path.write_text(yaml.safe_dump(base_data() | {"noise": {"family": "gaussian",
                                                             "sigma": 1.5}}))
    noise = load_scenario(path).noise
    assert isinstance(noise, Gaussian) and noise == Gaussian(1.5)
