"""Independent reference implementations used only by tests.

Everything here is deliberately written from different formulas (or a
different library) than the production code it checks: a series/continued-
fraction erfc in arbitrary precision, a bisection fixed-point solver, the
scipy matrix exponential, the scipy.stats densities and tails of the
continuous noise families, and a plain Kolmogorov-Smirnov statistic. The
exception is two scalar rules that the package now takes as arrays, kept
here in their scalar form: the dense output of an RK4 step and the times of
a path's sample rows, which the array forms must equal bit for bit.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg
import scipy.stats


def erfc_reference(x: float) -> float:
    """erfc via Maclaurin series (|x| <= 3) or the standard continued
    fraction (|x| > 3), evaluated with 60-digit arithmetic. mpmath supplies
    the arithmetic only; its own erfc is not called."""
    with mpmath.workdps(60):
        ax = mpmath.mpf(abs(x))
        if ax <= 3:
            # erf(a) = 2/sqrt(pi) * sum_k (-1)^k a^(2k+1) / (k! (2k+1))
            xx = ax * ax
            power_over_fact = ax
            total = ax
            k = 0
            while True:
                k += 1
                power_over_fact *= -xx / k
                delta = power_over_fact / (2 * k + 1)
                total += delta
                if abs(delta) < mpmath.mpf(10) ** -70 * (1 + abs(total)):
                    break
            result = 1 - 2 / mpmath.sqrt(mpmath.pi) * total
        else:
            # erfc(a) * sqrt(pi) * exp(a^2) = 1/(a+ (1/2)/(a+ (2/2)/(a+ ...)))
            tail = mpmath.mpf(0)
            for k in range(300, 0, -1):
                tail = (mpmath.mpf(k) / 2) / (ax + tail)
            result = mpmath.exp(-ax * ax) / mpmath.sqrt(mpmath.pi) / (ax + tail)
        if x < 0:
            result = 2 - result
        return float(result)


def normal_survival_reference(y: float, sigma: float) -> float:
    with mpmath.workdps(60):
        return float(
            mpmath.mpf(0.5)
            * mpmath.mpf(erfc_reference(y / (sigma * np.sqrt(2.0))))
        )


def scipy_noise(noise):
    """The scipy.stats distribution of a continuous gmsim noise family,
    frozen at its scale: its pdf is -Phi' and its sf is Phi."""
    name = type(noise).__name__
    if name == "Gaussian":
        return scipy.stats.norm(scale=noise.sigma)
    return {"Logistic": scipy.stats.logistic, "Laplace": scipy.stats.laplace}[name](
        scale=noise.scale)


def bisect_root(func, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200):
    """Plain bisection for a sign change of func on [lo, hi]."""
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("no sign change on the bracket")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid == 0.0 or hi - lo < tol:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def expm_reference(matrix: np.ndarray) -> np.ndarray:
    """Library matrix exponential, independent of the package's series."""
    return scipy.linalg.expm(np.asarray(matrix, dtype=float))


def ks_statistic(samples: np.ndarray, cdf_values_sorted: np.ndarray) -> float:
    """One-sample KS distance given the cdf evaluated at the sorted sample."""
    n = len(samples)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf_values_sorted)
    d_minus = np.max(cdf_values_sorted - (i - 1) / n)
    return float(max(d_plus, d_minus))


def hermite_reference(s, h, p0, k0, p1, k1):
    """The belief at fraction s of an RK4 step of length h from p0 to p1,
    with drifts k0 at p0 and k1 at p1, one state at a time: the cubic
    Hermite interpolant of the step's end points, its negative entries set
    to 0 and the vector renormalised."""
    s2 = s * s
    s3 = s2 * s
    c1 = 3.0 * s2 - 2.0 * s3
    c0 = 1.0 - c1
    d0 = h * (s3 - 2.0 * s2 + s)
    d1 = h * (s3 - s2)
    p = [c0 * a + d0 * da + c1 * b + d1 * db for a, da, b, db in zip(p0, k0, p1, k1)]
    total = 0.0
    low = p[0]
    for v in p:
        total += v
        if v < low:
            low = v
    if low < 0.0:
        p = [v if v > 0.0 else 0.0 for v in p]
        total = sum(p)
    return [v / total for v in p]


def sample_times_reference(arrivals, sample_dt, horizon):
    """The sample times of a path, stop by stop: 0, then for each arrival
    and the horizon, the multiples of sample_dt after the last stop and
    before this one, more than 1e-12 * max(1, |t|) from either stop t, and
    the stop itself."""
    times = [0.0]
    t_prev = 0.0
    for t in [float(tau) for tau in arrivals] + [horizon]:
        m = math.floor(t_prev / sample_dt) + 1
        while m * sample_dt <= t_prev + 1e-12 * max(1.0, abs(t_prev)):
            m += 1
        while m * sample_dt < t - 1e-12 * max(1.0, abs(t)):
            times.append(m * sample_dt)
            m += 1
        times.append(t)
        t_prev = t
    return times
