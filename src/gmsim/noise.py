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

with C the width of the value grid. check_gm_condition scans that ratio on a
fixed grid (plus the exact supremum for the logistic family, where
K = C / scale) and reports the certificate constants used downstream.

Scalar methods use plain math calls (math.erfc for the Gaussian tail)
because the simulator evaluates them one price at a time inside tight loops.
The array API is two methods, used by scans and by the lockstep engine, and
both equal the scalar methods bit for bit. survival_grid is by default a
loop over survival, overridden for the logistic and Laplace tails by numpy
closed forms whose exponentials are taken element by element with math.exp
(np.exp rounds differently from the C library on a few percent of inputs).
side_tails_grid gives both sides of the book in one array, survival on the
ask rows and cdf on the bid rows, so that the lockstep engine evaluates
each tail once per price. The symmetric families (logistic, Gaussian,
Laplace) share a base whose cdf(y) is survival(-y) bit for bit, so their
side_tails_grid is one survival_grid of the signed prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ConditionReport
from .errors import ConfigError, GmsimError, NotDifferentiable

CONDITION_GRID_POINTS = 10_001

# --------------------------------------------------------------------------
# Families


def _elementwise(fn, ys) -> np.ndarray:
    """fn applied to every element of ys, as an array of ys's shape."""
    ys = np.asarray(ys, dtype=float)
    return np.fromiter(map(fn, memoryview(ys.ravel())), float, ys.size).reshape(ys.shape)


class NoiseModel:
    """Common interface: survival Phi, cdf Psi, density, and sampling."""

    static_only = False

    def survival(self, y: float) -> float:
        """Phi(y) = P[eps >= y]."""
        raise NotImplementedError

    def cdf(self, y: float) -> float:
        """Psi(y) = P[eps <= y]."""
        raise NotImplementedError

    def density(self, y: float) -> float:
        """-Phi'(y), defined for the continuous families only."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    # Array versions, bit for bit equal to the scalar methods; families with
    # a closed-form tail override survival_grid.

    def survival_grid(self, ys) -> np.ndarray:
        return _elementwise(self.survival, ys)

    def side_tails_grid(self, ys, sign) -> np.ndarray:
        """survival on the rows of ys whose sign is +1, cdf on those whose
        sign is -1 (sign broadcasts against ys, one entry per row)."""
        return np.where(sign > 0, self.survival_grid(ys), _elementwise(self.cdf, ys))

    def analytic_condition_constant(self, width: float) -> float | None:
        """Exact supremum K for the admissibility ratio, where known."""
        return None


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

    def density(self, y: float) -> float:
        e = math.exp(-abs(y) / self.scale)
        return e / (self.scale * (1.0 + e) ** 2)

    def survival_grid(self, ys):
        z = np.asarray(ys, dtype=float) / self.scale
        e = _elementwise(math.exp, -np.abs(z))
        return np.where(z >= 0.0, e, 1.0) / (1.0 + e)

    def sample(self, rng, size):
        return rng.logistic(0.0, self.scale, size)

    def analytic_condition_constant(self, width: float) -> float:
        # -Phi' = Phi * (1 - Phi) / scale <= min(Phi, 1 - Phi) / scale,
        # and the bound is approached as |y| grows, so K = C / scale exactly.
        return width / self.scale


@dataclass(frozen=True)
class Gaussian(_Symmetric):
    """Centered Gaussian noise with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ConfigError("gaussian sigma must be positive and finite")

    def survival(self, y: float) -> float:
        return 0.5 * math.erfc(y / (self.sigma * math.sqrt(2.0)))

    def cdf(self, y: float) -> float:  # survival(-y), without the extra call
        return 0.5 * math.erfc(-y / (self.sigma * math.sqrt(2.0)))

    def density(self, y: float) -> float:
        z = y / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

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

    def density(self, y: float) -> float:
        return math.exp(-abs(y) / self.scale) / (2.0 * self.scale)

    def survival_grid(self, ys):
        ys = np.asarray(ys, dtype=float)
        e = 0.5 * _elementwise(math.exp, -np.abs(ys) / self.scale)
        return np.where(ys >= 0.0, e, 1.0 - e)

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

    def density(self, y: float) -> float:
        raise NotDifferentiable("two-point noise has no density")

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

    def density(self, y: float) -> float:
        raise NotDifferentiable("noise-trader mix has no density")

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.buy_prob, math.inf, -math.inf)


# --------------------------------------------------------------------------
# Admissibility condition


@lru_cache(maxsize=None)
def check_gm_condition(
    noise: NoiseModel, width: float, grid_points: int = CONDITION_GRID_POINTS
) -> ConditionReport:
    """Scan the zero-profit admissibility condition on [-width, width].

    Returns the certificate constants: the smallest K with
    -Phi'(y) <= (K / width) * min(Phi(y), 1 - Phi(y)) on the scan grid
    (replaced by the exact supremum for families that know it), the maximum
    density M on the same grid, and the tail values Phi(0), Phi(width).
    The condition passes when K < 1 and 0 < Phi(0) < 1.

    Results are cached per (noise, width, grid_points); the families are
    frozen, so the cache key is a value key.
    """
    if noise.static_only:
        raise NotDifferentiable(
            "admissibility condition needs a density; "
            f"{type(noise).__name__} is static-only"
        )
    if not (width > 0.0 and math.isfinite(width)):
        raise ConfigError("grid width must be positive and finite")
    if grid_points < 3:
        raise ConfigError("condition scan needs at least 3 grid points")

    ys = np.linspace(-width, width, grid_points)
    sv = noise.survival_grid(ys)
    dens = _elementwise(noise.density, ys)
    small_tail = np.minimum(sv, 1.0 - sv)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dens / small_tail
    ratio = ratio[~np.isnan(ratio)]  # 0/0 deep in a tail: dominated elsewhere
    k_value = width * float(ratio.max())

    exact = noise.analytic_condition_constant(width)
    if exact is not None:
        k_value = max(k_value, exact)

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
        M=float(dens.max()),
        phi_at_zero=phi_zero,
        phi_at_c=phi_c,
        phi_at_c_floor=floor,
        passes=passes,
        grid_points=grid_points,
    )
