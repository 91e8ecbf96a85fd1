"""Noise-trader valuation noise families.

A customer with private valuation X + eps buys at the ask a when
X + eps >= a and sells at the bid b when X + eps <= b, so the two functions
that matter everywhere are the survival function Phi(y) = P[eps >= y] and
the cdf Psi(y) = P[eps <= y]. Five families are provided: three continuous
ones (logistic, Gaussian, Laplace) that can support the dynamic model, and
two purely static ones (a symmetric two-point lattice and the classic
always-trade noise-trader mix) kept for counterexamples and limit checks.

The dynamic model is admissible when the density decays fast enough relative
to the tails:

    -Phi'(y) <= (K / C) * min(Phi(y), 1 - Phi(y))  on [-C, C],  K < 1,

with C the width of the value grid. Each continuous family gives the
smallest such K and the peak density M in closed form (condition_constants),
and check_gm_condition reports them. The ratio -Phi' / min(Phi, 1 - Phi) is
even in y. It is 1/scale for the Laplace and max(Phi, 1 - Phi) / scale <
1/scale for the logistic, so K = C / scale for both. For the Gaussian it is
the standard normal hazard phi(z) / (1 - N(z)) over sigma at z = |y| / sigma,
which increases in z (the inverse Mills ratio; Sampford, Ann. Math. Statist.
24, 1953), so its supremum sits at y = C. M is the density at 0. Each
formula divides in steps, so that a scale near 1e308 overflows nothing.

Scalar methods use plain math calls (math.erfc for the Gaussian tail)
because the simulator evaluates them one price at a time inside tight loops;
the Gaussian computes its erfc denominator sigma * sqrt(2) once, when built.
The array API is two methods, used by scans and by the lockstep engine, and
both equal the scalar methods bit for bit. survival_grid is by default a
loop over survival, overridden by numpy closed forms for the three
continuous families: the logistic and Laplace tails take their exponentials
element by element with math.exp (np.exp rounds differently from the C
library on a few percent of inputs), and the Gaussian tail divides the
prices as one array and takes math.erfc element by element. A price so
large that its division by the scale overflows gives the scalar tail's
0 or 1, silently, as the scalar division does; slope_grid likewise gives
the scalar slope's inf at a scale below about 1.4e-309.
side_tails_grid gives both sides of the book in one array, survival on the
ask rows and cdf on the bid rows, so that the lockstep engine evaluates
each tail once per price. The symmetric families (logistic, Gaussian,
Laplace) share a base whose cdf(y) is survival(-y) bit for bit, so their
side_tails_grid is one survival_grid of the signed prices.

The logistic and Laplace densities follow from the tail value alone:
-Phi'(y) = slope(Phi(y)), with slope(f) = f (1 - f) / scale for the
logistic and min(f, 1 - f) / scale for the Laplace. The quote solver's
Newton step takes them from the tails it has already evaluated, at no
extra exp; slope_grid is the same map over an array, bit for bit. The
other families declare no slope (slope is None). slope and static_only are
all the quote solvers read to pick a family's step: Newton steps where
slope is set; secant steps, through the last two evaluations, for any other
continuous family (the Gaussian); and plain Picard iteration for a
static-only family, whose map jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ConditionReport, check_number
from .errors import ConfigError, GmsimError, NotDifferentiable

# --------------------------------------------------------------------------
# Families


def _elementwise(fn, ys) -> np.ndarray:
    """fn applied to every element of ys, as an array of ys's shape."""
    ys = np.asarray(ys, dtype=float)
    return np.fromiter(map(fn, memoryview(ys.ravel())), float, ys.size).reshape(ys.shape)


class NoiseModel:
    """Common interface: survival Phi, cdf Psi, sampling, certificate K, M."""

    static_only = False

    def survival(self, y: float) -> float:
        """Phi(y) = P[eps >= y]."""
        raise NotImplementedError

    def cdf(self, y: float) -> float:
        """Psi(y) = P[eps <= y]."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    # The density as a function of the tail value, where that alone fixes
    # it: slope(f) = -Phi'(y) at the y where Phi(y) = f, which for a
    # symmetric family is also Psi'(y) at the y where Psi(y) = f. slope_grid
    # maps an array of tail values, bit for bit as slope does. None for the
    # families whose density is not a function of the tail value.
    slope = None
    slope_grid = None

    # Array versions, bit for bit equal to the scalar methods; families with
    # a closed-form tail override survival_grid.

    def survival_grid(self, ys) -> np.ndarray:
        return _elementwise(self.survival, ys)

    def side_tails_grid(self, ys, sign) -> np.ndarray:
        """survival on the rows of ys whose sign is +1, cdf on those whose
        sign is -1 (sign a scalar or a column, one entry per row), each
        tail evaluated only on the rows it gives."""
        if np.ndim(sign) == 0:
            return self.survival_grid(ys) if sign > 0 else _elementwise(self.cdf, ys)
        ys = np.asarray(ys, dtype=float)
        up = np.asarray(sign)[:, 0] > 0
        tails = np.empty(ys.shape)
        tails[up] = self.survival_grid(ys[up])
        tails[~up] = _elementwise(self.cdf, ys[~up])
        return tails

    def condition_constants(self, width: float) -> tuple[float, float]:
        """(K, M) of the certificate on [-width, width], in closed form: K as in
        the module docstring, M the density at 0. Continuous families only."""
        raise NotImplementedError


class _Symmetric(NoiseModel):
    """A family with symmetric noise, whose cdf(y) is survival(-y) bit for
    bit, so that both sides' tails are one survival of the signed prices."""

    def cdf(self, y: float) -> float:
        return self.survival(-y)

    def side_tails_grid(self, ys, sign) -> np.ndarray:
        return self.survival_grid(ys * sign)


@dataclass(frozen=True)
class Logistic(_Symmetric):
    """Logistic noise; Phi(y) = 1 / (1 + exp(y / scale))."""

    scale: float

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ConfigError("logistic scale must be positive and finite")

    def survival(self, y: float) -> float:
        z = y / self.scale
        if z >= 0.0:
            e = math.exp(-z)
            return e / (1.0 + e)
        return 1.0 / (1.0 + math.exp(z))

    def survival_grid(self, ys):
        with np.errstate(over="ignore"):
            z = np.asarray(ys, dtype=float) / self.scale
        e = _elementwise(math.exp, -np.abs(z))
        return np.where(z >= 0.0, e, 1.0) / (1.0 + e)

    def slope(self, f: float) -> float:
        return f * (1.0 - f) / self.scale

    def slope_grid(self, fs):
        with np.errstate(over="ignore"):
            return fs * (1.0 - fs) / self.scale

    def sample(self, rng, size):
        return rng.logistic(0.0, self.scale, size)

    def condition_constants(self, width: float) -> tuple[float, float]:
        # -Phi' = Phi * (1 - Phi) / scale <= min(Phi, 1 - Phi) / scale,
        # and the bound is approached as |y| grows, so K = C / scale exactly.
        return width / self.scale, 0.25 / self.scale


@dataclass(frozen=True)
class Gaussian(_Symmetric):
    """Centered Gaussian noise with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigError("gaussian sigma must be positive and finite")
        # not a field: the fields are what a scenario's noise dict holds
        object.__setattr__(self, "_root2_sigma", self.sigma * math.sqrt(2.0))

    def survival(self, y: float) -> float:
        return 0.5 * math.erfc(y / self._root2_sigma)

    def cdf(self, y: float) -> float:  # survival(-y), without the extra call
        return 0.5 * math.erfc(-y / self._root2_sigma)

    def survival_grid(self, ys):
        with np.errstate(over="ignore"):
            z = np.asarray(ys, dtype=float) / self._root2_sigma
        return 0.5 * _elementwise(math.erfc, z)

    def condition_constants(self, width: float) -> tuple[float, float]:
        # z * hazard(z) at z = C / sigma, inf where the tail underflows to 0
        tail = self.survival(width)
        z = width / self.sigma
        hazard = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / tail if tail else math.inf
        return z * hazard, 1.0 / self.sigma / math.sqrt(2.0 * math.pi)

    def sample(self, rng, size):
        return rng.normal(0.0, self.sigma, size)


@dataclass(frozen=True)
class Laplace(_Symmetric):
    """Double-exponential noise; both condition ratios are exactly 1/scale."""

    scale: float

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ConfigError("laplace scale must be positive and finite")

    def survival(self, y: float) -> float:
        if y >= 0.0:
            return 0.5 * math.exp(-y / self.scale)
        return 1.0 - 0.5 * math.exp(y / self.scale)

    def survival_grid(self, ys):
        ys = np.asarray(ys, dtype=float)
        with np.errstate(over="ignore"):
            z = -np.abs(ys) / self.scale
        e = 0.5 * _elementwise(math.exp, z)
        return np.where(ys >= 0.0, e, 1.0 - e)

    def slope(self, f: float) -> float:
        return min(f, 1.0 - f) / self.scale

    def slope_grid(self, fs):
        with np.errstate(over="ignore"):
            return np.minimum(fs, 1.0 - fs) / self.scale

    def condition_constants(self, width: float) -> tuple[float, float]:
        return width / self.scale, 0.5 / self.scale

    def sample(self, rng, size):
        return rng.laplace(0.0, self.scale, size)


@dataclass(frozen=True)
class TwoPointDiscrete(NoiseModel):
    """eps = +value with probability prob, -value otherwise. No density, so
    only the static price functions are defined; the admissibility check and
    the simulator refuse it unless forced."""

    value: float
    prob: float

    static_only = True

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ConfigError("two-point value must be positive and finite")
        if not 0.0 < self.prob < 1.0:
            raise ConfigError("two-point prob must lie strictly in (0, 1)")

    def survival(self, y: float) -> float:
        if y <= -self.value:
            return 1.0
        if y <= self.value:
            return self.prob
        return 0.0

    def cdf(self, y: float) -> float:
        if y < -self.value:
            return 0.0
        if y < self.value:
            return 1.0 - self.prob
        return 1.0

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.prob, self.value, -self.value)


@dataclass(frozen=True)
class NoiseTraderMix(NoiseModel):
    """Pure noise traders: valuation +inf (always buy) with probability
    buy_prob, -inf (always sell) otherwise. Phi and Psi are flat, so every
    static price collapses to the prior mean."""

    buy_prob: float

    static_only = True

    def __post_init__(self):
        if not 0.0 < self.buy_prob < 1.0:
            raise ConfigError("buy_prob must lie strictly in (0, 1)")

    def survival(self, y: float) -> float:
        return self.buy_prob

    def cdf(self, y: float) -> float:
        return 1.0 - self.buy_prob

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.buy_prob, math.inf, -math.inf)


# --------------------------------------------------------------------------
# Admissibility condition


@lru_cache(maxsize=None)
def check_gm_condition(noise: NoiseModel, width: float) -> ConditionReport:
    """The zero-profit admissibility condition on [-width, width].

    Returns the certificate constants: the smallest K with
    -Phi'(y) <= (K / width) * min(Phi(y), 1 - Phi(y)) on [-width, width] and
    the density at 0, M, both by the family's formula (condition_constants),
    and the tail values Phi(0), Phi(width). The condition passes when K < 1
    and 0 < Phi(0) < 1.

    Results are cached per (noise, width); the families are frozen, so the
    cache key is a value key.
    """
    if noise.static_only:
        raise NotDifferentiable(
            "admissibility condition needs a density; "
            f"{type(noise).__name__} is static-only"
        )
    check_number("width", width, "positive")
    if not math.isfinite(2.0 * float(width)):
        raise ConfigError(f"width: [-width, width] overflows, which the quote solves and "
                          f"verify's statistics cannot take, got {width!r}")

    k_value, m_value = noise.condition_constants(width)
    phi_zero = noise.survival(0.0)
    phi_c = noise.survival(width)
    floor = (1.0 - k_value) * phi_zero if k_value < 1.0 else 0.0
    passes = k_value < 1.0 and 0.0 < phi_zero < 1.0
    if passes and phi_c < floor:
        raise GmsimError(
            "internal inconsistency: Phi(C) fell below (1-K) * Phi(0)"
        )
    return ConditionReport(
        K=k_value,
        M=m_value,
        phi_at_zero=phi_zero,
        phi_at_c=phi_c,
        phi_at_c_floor=floor,
        passes=passes,
    )
