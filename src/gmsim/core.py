"""Value types shared by the solvers, the filter, and the simulator.

A StateGrid holds the support of the unobserved value process, a Belief is a
probability vector over that support, a Quote is an (ask, bid) pair, and a
GeneratorMatrix is the rate matrix of the value chain. All four are frozen:
the engine threads them through tight loops and never mutates them in place.
check_number holds the one rule of the package's rates, horizons, steps and
tolerances: finite, and positive or nonnegative where the input needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Tolerances used by the constructors below. Belief entries may come out of
# an ODE step a hair negative; anything below -NEG_TOL is treated as a bug
# rather than roundoff.
NEG_TOL = 1e-9
ROW_SUM_TOL = 1e-9

# A path keeps each arrival as an event of about 0.6 kB and draws each jump
# of the value chain in a Python loop, so an expected count of either above
# this is refused. A sampled path's grid of horizon / sample_dt rows is held
# to the same bound: each row costs a quote solve, and the path allocates
# rows x (n + 4) floats of sample columns when it starts (8 (n + 4) bytes a
# row, less than a row kept as Python objects would take). So are a path's
# horizon / ode_step RK4 steps: a sampled segment's trail keeps one entry
# per step, about the size of an event, and `gmsim simulate` always samples
# path 0 for plot.csv; at 85-120 us a step
# (README market, one CPU of a 2-core Xeon), 1e6 steps take 85 s or more.
# check_count is the one check that refuses a count above it.
MAX_EXPECTED_ARRIVALS = 1e6


def check_count(name: str, count: float, what: str) -> None:
    """Raise ConfigError unless count (name says how it is reckoned, what
    names the things one path holds) is at most MAX_EXPECTED_ARRIVALS."""
    if not count <= MAX_EXPECTED_ARRIVALS:
        raise ConfigError(f"{name} = {count:g} {what}, "
                          f"above the {MAX_EXPECTED_ARRIVALS:g} that one path can hold")


def check_number(name: str, value: float, sign: str | None = None) -> None:
    """Raise ConfigError unless value is finite and, for sign "positive" or
    "nonnegative", of that sign, with the message a scenario file's value
    gets: "<name>: must be finite, got <value>", then "<name>: must be
    <sign>, got <value>". A value that is not finite reads as a Python
    float's does (inf, nan), a numpy scalar's too."""
    if not math.isfinite(value):
        raise ConfigError(f"{name}: must be finite, got {float(value)!r}")
    if (sign == "positive" and value <= 0.0) or (sign == "nonnegative" and value < 0.0):
        raise ConfigError(f"{name}: must be {sign}, got {value}")


def _frozen_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateGrid:
    """Strictly increasing support x_1 < ... < x_n of the value chain."""

    values: np.ndarray

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ConfigError("state grid needs at least two values")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("state grid values must be finite")
        if not np.all(arr[1:] > arr[:-1]):
            raise ConfigError("state grid values must be strictly increasing")
        if not math.isfinite(float(arr[-1]) - float(arr[0])):
            raise ConfigError("state grid width x_n - x_1 must be finite, got inf")
        object.__setattr__(self, "values", _frozen_array(arr))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x_min(self) -> float:
        return float(self.values[0])

    @property
    def x_max(self) -> float:
        return float(self.values[-1])

    @property
    def width(self) -> float:
        """Range C = x_n - x_1, the length scale of every bound here."""
        return self.x_max - self.x_min

    def __eq__(self, other):
        if not isinstance(other, StateGrid):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash(self.values.tobytes())


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability vector over a StateGrid's states.

    Construction clamps roundoff negatives (>= -NEG_TOL) to zero and
    renormalizes exactly, so every Belief in circulation sums to one up to
    a final floating division.
    """

    probs: np.ndarray

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigError("belief must be a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("belief entries must be finite")
        if np.any(arr < -NEG_TOL):
            raise ConfigError(
                f"belief entry {arr.min():.3e} below -{NEG_TOL:g}; not roundoff"
            )
        arr = np.where(arr < 0.0, 0.0, arr)
        with np.errstate(over="ignore"):
            total = arr.sum()
        if not math.isfinite(total):
            raise ConfigError("belief total mass overflows the float range")
        if total <= 0.0:
            raise ConfigError("belief must have positive total mass")
        object.__setattr__(self, "probs", _frozen_array(arr / total))

    @property
    def n(self) -> int:
        return self.probs.size

    def mean(self, grid: StateGrid) -> float:
        """Posterior mean sum_i x_i pi_i."""
        return float(self.probs @ grid.values)


def check_sizes(
    belief: Belief, grid: StateGrid, generator: GeneratorMatrix | None = None
) -> None:
    """Raise ConfigError unless the grid (and the generator, when given) has
    as many states as the belief."""
    if grid.n != belief.n or (generator is not None and generator.n != belief.n):
        raise ConfigError("belief, grid and generator sizes disagree")


@dataclass(frozen=True)
class Quote:
    """Posted prices. ask >= bid always; both inside the grid range unless a
    deliberate perturbation (verification negative control) pushed the ask."""

    ask: float
    bid: float

    def __post_init__(self):
        if not (math.isfinite(self.ask) and math.isfinite(self.bid)):
            raise ConfigError("quote prices must be finite")
        if self.bid > self.ask:
            raise ConfigError(f"bid {self.bid} above ask {self.ask}")

    @property
    def spread(self) -> float:
        return self.ask - self.bid


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Conservative rate matrix q of the value chain.

    Off-diagonal entries are jump rates and must be nonnegative; the diagonal
    is rebuilt as minus the off-diagonal row sum, so rows sum to zero exactly
    (up to one floating subtraction). If the caller supplies nonzero
    diagonals they are validated against the row sums first.
    """

    rates: np.ndarray

    def __init__(self, rates):
        arr = np.asarray(rates, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("generator must be a square matrix")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("generator entries must be finite")
        n = arr.shape[0]
        off = arr - np.diag(np.diag(arr))
        if np.any(off < 0.0):
            raise ConfigError("generator off-diagonal rates must be >= 0")
        with np.errstate(over="ignore"):  # a sum that overflows is refused below
            exits = off.sum(axis=1)
            row_sums = arr.sum(axis=1)
        if not np.all(np.isfinite(exits)):
            row = int(np.argmin(np.isfinite(exits)))
            raise ConfigError(f"generator row {row}: its exit rate, the sum of its "
                              "off-diagonal rates, overflows to inf")
        if np.any(np.diag(arr) != 0.0):
            scale = max(1.0, float(np.abs(arr).max()))
            if np.any(np.abs(row_sums) > ROW_SUM_TOL * scale):
                worst = int(np.argmax(np.abs(row_sums)))
                raise ConfigError(
                    f"generator row {worst} sums to {row_sums[worst]:.3e}, not 0"
                )
        out = off.copy()
        out[np.arange(n), np.arange(n)] = -exits
        object.__setattr__(self, "rates", _frozen_array(out))

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    @classmethod
    def zero(cls, n: int) -> "GeneratorMatrix":
        return cls(np.zeros((n, n)))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the admissibility check for one (noise, C) pair.

    K is the smallest constant with -Phi'(y) <= (K/C) * min(Phi(y), Psi(y))
    on [-C, C]; the condition holds when K < 1 and 0 < Phi(0) < 1. M is the
    density at 0, reused by the uniqueness constants. phi_at_c_floor is the
    guaranteed lower bound (1-K) * Phi(0) for Phi(C); it is reported so
    callers can see the buy-probability margin.
    """

    K: float
    M: float
    phi_at_zero: float
    phi_at_c: float
    phi_at_c_floor: float
    passes: bool


@dataclass(frozen=True)
class ContractionConstants:
    """Constants of the local-uniqueness estimate for one market model.

    K comes from the admissibility check, M is the density at 0, L bounds
    the belief-sensitivity of the static prices, K1 = 12 * L * n * lam * M
    bounds the drift mismatch, and quote paths agree on [0, t_star] with
    t_star = (1-K) / (2*K1).
    """

    K: float
    L: float
    M: float
    K1: float
    t_star: float
