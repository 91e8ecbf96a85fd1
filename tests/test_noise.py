"""Noise families: tail functions, densities, condition certificate, sampling."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmsim.config import noise_from_dict
from gmsim.errors import ConfigError, GmsimError, NotDifferentiable
from gmsim.noise import (
    Gaussian,
    Laplace,
    Logistic,
    NoiseTraderMix,
    TwoPointDiscrete,
    _Symmetric,
    _elementwise,
    check_gm_condition,
)
from oracles import erfc_reference, ks_statistic, normal_survival_reference, scipy_noise

CONTINUOUS = [Logistic(2.0), Logistic(0.37), Gaussian(1.0), Gaussian(2.5), Laplace(0.8)]


def test_erfc_matches_series_oracle():
    """Gaussian survival agrees with the 60-digit series/continued fraction
    erfc at its own argument, over the same erfc arguments, |x| <= 26."""
    g = Gaussian(1.0)
    points = [0.0, 1e-10, 0.1, 0.3, 0.46875, 0.469, 0.7, 1.0, 1.5, 2.0, 3.0,
              3.5, 3.99, 4.0, 4.5, 5.0, 8.0, 12.0, 16.0, 20.0, 25.0, 26.0]
    for x in points:
        for signed in (x, -x):
            y = signed * math.sqrt(2.0)
            arg = y / (g.sigma * math.sqrt(2.0))
            ref = 0.5 * erfc_reference(arg)
            got = g.survival(y)
            assert got == pytest.approx(ref, rel=1e-13), f"survival({y})"


def test_erfc_extreme_tail_underflows_cleanly():
    assert Gaussian(1.0).survival(40.0) == 0.0
    assert Gaussian(1.0).survival(-40.0) == 1.0


def test_gaussian_survival_frozen_values():
    g = Gaussian(1.0)
    assert g.survival(0.0) == 0.5
    assert g.survival(1.0) == pytest.approx(0.15865525393145705, rel=1e-14)
    assert g.survival(2.0) == pytest.approx(0.022750131948179216, rel=1e-14)
    assert g.survival(-1.0) == pytest.approx(1.0 - 0.15865525393145705, rel=1e-14)


def test_gaussian_holds_its_denominator_outside_its_fields():
    """The held sigma * sqrt(2) gives the bits of dividing by it afresh,
    and sigma stays the family's only field: equality, hashing and the
    noise dict see nothing new."""
    g = Gaussian(1.7)
    assert [f.name for f in dataclasses.fields(g)] == ["sigma"]
    assert g == Gaussian(1.7) and hash(g) == hash(Gaussian(1.7))
    ys = np.linspace(-5.0, 5.0, 101)
    fresh = [0.5 * math.erfc(y / (1.7 * math.sqrt(2.0))) for y in ys.tolist()]
    assert g.survival_grid(ys).tolist() == fresh == [g.survival(y) for y in ys.tolist()]
    assert [g.cdf(-y) for y in ys.tolist()] == fresh


def test_gaussian_survival_matches_oracle_many_points():
    for sigma in (0.5, 1.0, 2.5):
        g = Gaussian(sigma)
        for y in np.linspace(-6 * sigma, 6 * sigma, 41):
            ref = normal_survival_reference(float(y), sigma)
            assert g.survival(float(y)) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("noise", CONTINUOUS, ids=lambda n: repr(n))
def test_survival_plus_cdf_is_one(noise):
    for y in np.linspace(-8.0, 8.0, 101):
        total = noise.survival(float(y)) + noise.cdf(float(y))
        assert abs(total - 1.0) <= 1e-12


@given(y=st.floats(-50, 50), scale=st.floats(0.05, 20))
def test_logistic_tail_identity_property(y, scale):
    noise = Logistic(scale)
    assert abs(noise.survival(y) + noise.cdf(y) - 1.0) <= 1e-12


@pytest.mark.parametrize("noise", CONTINUOUS, ids=lambda n: repr(n))
def test_survival_monotone_nonincreasing(noise):
    ys = np.linspace(-30.0, 30.0, 301)
    values = noise.survival_grid(ys)
    assert np.all(np.diff(values) <= 1e-15)
    assert values[0] > 0.999
    assert values[-1] < 1e-3


@pytest.mark.parametrize(
    "noise,f2_bound",
    [
        (Logistic(2.0), 1.0 / (4 * 2.0**3)),
        (Logistic(0.6), 1.0 / (4 * 0.6**3)),
        (Gaussian(1.3), 1.0 / (1.3**3 * math.sqrt(2 * math.pi))),
    ],
    ids=["logistic2", "logistic0.6", "gaussian1.3"],
)
def test_density_is_minus_survival_slope(noise, f2_bound):
    """Central difference of Phi equals minus scipy's density up to the h^2
    bound."""
    h = 1e-4
    pdf = scipy_noise(noise).pdf
    for y in np.linspace(-3.0, 3.0, 61):
        diff = (noise.survival(y + h) - noise.survival(y - h)) / (2 * h)
        assert abs(diff + pdf(y)) <= 10 * h * h * f2_bound


def test_laplace_density_slope_away_from_kink():
    noise = Laplace(0.9)
    h = 1e-4
    f2_bound = 1.0 / (2 * 0.9**3)
    pdf = scipy_noise(noise).pdf
    for y in np.linspace(-3.0, 3.0, 61):
        if abs(y) < 0.05:  # Phi'' jumps at 0; the h^2 bound needs smoothness
            continue
        diff = (noise.survival(y + h) - noise.survival(y - h)) / (2 * h)
        assert abs(diff + pdf(y)) <= 10 * h * h * f2_bound


@pytest.mark.parametrize(
    "noise,f2_bound",
    [(Logistic(2.0), 1.0 / (4 * 2.0**3)), (Logistic(0.6), 1.0 / (4 * 0.6**3)),
     (Laplace(0.9), 1.0 / (2 * 0.9**3))],
    ids=repr,
)
def test_slope_is_the_tail_slope_at_its_value(noise, f2_bound):
    """slope(f) is -Phi'(y) where Phi(y) = f, and Psi'(y) where Psi(y) = f:
    a central difference of each tail within the h^2 bound (away from the
    Laplace kink). slope_grid equals slope bit for bit."""
    h = 1e-4
    ys = np.linspace(-3.0, 3.0, 61)
    for y in ys.tolist():
        if abs(y) < 0.05:
            continue
        diff = (noise.survival(y - h) - noise.survival(y + h)) / (2 * h)
        assert abs(diff - noise.slope(noise.survival(y))) <= 10 * h * h * f2_bound
        diff = (noise.cdf(y + h) - noise.cdf(y - h)) / (2 * h)
        assert abs(diff - noise.slope(noise.cdf(y))) <= 10 * h * h * f2_bound
    tails = noise.side_tails_grid(np.stack([ys, ys]), np.array([[1.0], [-1.0]]))
    got = noise.slope_grid(tails)
    assert got.shape == tails.shape
    for f, g in zip(tails.ravel().tolist(), got.ravel().tolist()):
        assert g.hex() == noise.slope(f).hex()


@pytest.mark.parametrize("noise", [Logistic(1e-310), Laplace(1e-310)], ids=repr)
def test_slope_grid_overflows_silently_as_the_scalar_slope(noise):
    fs = np.array([0.0, 1e-300, 0.25, 0.5, 1.0])
    got = noise.slope_grid(fs).tolist()
    assert [v.hex() for v in got] == [noise.slope(f).hex() for f in fs.tolist()]
    assert math.inf in got


def test_only_logistic_and_laplace_declare_a_slope():
    """The Gaussian density is not a function of its tail value, and the
    static families have none: their quote solves take Picard steps."""
    for noise in (Gaussian(1.0), TwoPointDiscrete(1.0, 0.5), NoiseTraderMix(0.25)):
        assert noise.slope is None and noise.slope_grid is None
    for noise in (Logistic(1.0), Laplace(1.0)):
        assert noise.slope is not None and noise.slope_grid is not None


# --------------------------------------------------------------------------
# Admissibility condition


def test_logistic_condition_constant_exact():
    report = check_gm_condition(Logistic(2.0), 1.0)
    assert abs(report.K - 0.5) <= 1e-6
    assert report.passes
    report = check_gm_condition(Logistic(0.5), 1.0)
    assert abs(report.K - 2.0) <= 1e-6
    assert not report.passes


def test_logistic_condition_scales_with_width():
    for width, scale in [(1.0, 2.0), (3.0, 4.0), (0.5, 0.3)]:
        report = check_gm_condition(Logistic(scale), width)
        assert abs(report.K - width / scale) <= 1e-6


def test_laplace_condition_constant_exact():
    # Both tails are exponential, so the ratio is 1/scale everywhere.
    report = check_gm_condition(Laplace(2.0), 1.0)
    assert abs(report.K - 0.5) <= 1e-9
    assert report.passes


def test_condition_certificate_holds_on_grid():
    """-Phi' <= (K/C) * min(Phi, 1-Phi) at every scanned point, with the
    family's own tails and scipy's density."""
    for noise, width in [(Logistic(2.0), 1.0), (Gaussian(2.0), 1.0), (Laplace(1.5), 1.0)]:
        report = check_gm_condition(noise, width)
        ys = np.linspace(-width, width, 10_001)
        dens = scipy_noise(noise).pdf(ys)
        small = np.minimum(noise.survival_grid(ys), 1.0 - noise.survival_grid(ys))
        assert np.all(dens <= (report.K / width) * small * (1 + 1e-12))


def _scan_ratio(noise, reach, points=100_001):
    """-Phi'(y) / min(Phi(y), 1 - Phi(y)) by scipy.stats at `points` points
    of [-reach, reach], the smaller tail taken as the survival at |y| so
    that no 1 - Phi loses digits. Points whose smaller tail is below the
    smallest normal float are dropped: a ratio of subnormals or zeros has
    no digits left. Returns the kept ratios and whether every point was
    kept."""
    dist = scipy_noise(noise)
    ys = np.linspace(-reach, reach, points)
    with np.errstate(all="ignore"):  # y / scale overflows at a tiny scale
        small = dist.sf(np.abs(ys))
        keep = small >= np.finfo(float).tiny
        return dist.pdf(ys[keep]) / small[keep], bool(keep.all())


CERTIFICATE_SCALES = [1e-300, 0.37, 1.0, 2.5, 1e308]
CERTIFICATE_WIDTHS = [0.25, 1.0, 3.0, 8e307]


@pytest.mark.parametrize("family", [Logistic, Gaussian, Laplace], ids=lambda f: f.__name__)
def test_condition_constants_match_a_dense_scan(family):
    """The closed-form K bounds scipy's ratio at every point of a
    100,001-point scan of [-C, C], scales and widths near the float limits
    included, and is its supremum within 1e-9 wherever every point of the
    scan keeps its digits: for the Gaussian and Laplace the supremum on
    [-C, C], for the logistic the supremum over the whole line (the ratio
    tends to 1/scale, and is within 1e-17 of it at |y| = 40 scale). M is
    scipy's density at 0."""
    cases = [(s, w) for s in CERTIFICATE_SCALES for w in CERTIFICATE_WIDTHS]
    compared = 0
    for scale, width in cases + [(1e-300, 1e-300)]:
        noise = family(scale)
        k_value, m_value = noise.condition_constants(width)
        assert m_value == pytest.approx(scipy_noise(noise).pdf(0.0), rel=1e-12)
        ratio, every_point = _scan_ratio(noise, width)
        assert np.all(ratio <= (k_value / width) * (1 + 1e-12)), (scale, width)
        if family is Logistic:
            reach = max(width, 40.0 * scale)
            if not 2.0 * reach < math.inf:
                continue
            ratio, every_point = _scan_ratio(noise, reach)
        if every_point:
            compared += 1
            assert k_value == pytest.approx(width * ratio.max(), rel=1e-9), (scale, width)
    assert compared >= 6


def test_condition_m_is_peak_density():
    report = check_gm_condition(Gaussian(1.5), 2.0)
    assert report.M == pytest.approx(1.0 / (1.5 * math.sqrt(2 * math.pi)), rel=1e-12)
    report = check_gm_condition(Logistic(2.0), 1.0)
    assert report.M == pytest.approx(1.0 / 8.0, rel=1e-12)


def test_condition_reports_buy_probability_floor():
    report = check_gm_condition(Logistic(2.0), 1.0)
    assert report.phi_at_c_floor == pytest.approx((1 - report.K) * 0.5, rel=1e-12)
    assert report.phi_at_c >= report.phi_at_c_floor
    assert report.phi_at_c > 0.0


def test_gaussian_condition_pass_and_fail():
    # Wide noise passes, narrow noise fails: the tail hazard beats 1/C.
    assert check_gm_condition(Gaussian(3.0), 1.0).passes
    report = check_gm_condition(Gaussian(0.3), 1.0)
    assert not report.passes
    assert report.K > 1.0


@pytest.mark.parametrize("noise", [Logistic(2.0), Gaussian(1.0e308), Laplace(1.0e308)],
                         ids=["logistic", "gaussian", "laplace"])
def test_condition_refuses_a_width_whose_scan_interval_overflows(noise):
    """A finite width above about 8.99e307 makes [-width, width] overflow.
    The closed-form certificate would take it, but the quote solves and
    verify's statistics cannot (without the refusal, states [-1e308, 0]
    made simulate exit 3 for the logistic and Laplace families, and verify
    overflow in its profit statistics for the Gaussian): a ConfigError
    naming the width, before any numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for width in (9.0e307, 1.0e308, np.finfo(float).max):
            with pytest.raises(ConfigError, match=r"^width: \[-width, width\] overflows, which "):
                check_gm_condition(noise, width)


def test_condition_refuses_static_families():
    with pytest.raises(NotDifferentiable):
        check_gm_condition(TwoPointDiscrete(1.0, 0.5), 1.0)
    with pytest.raises(NotDifferentiable):
        check_gm_condition(NoiseTraderMix(0.5), 1.0)


class _OverclaimingLogistic(Logistic):
    """A logistic tail that claims a condition constant its tails break."""

    def condition_constants(self, width):
        return 0.01, 0.25 / self.scale


def test_condition_inconsistency_is_a_gmsim_error():
    """A family whose claimed K disagrees with its tails fails as gmsim's
    own error (the CLI's exit 3), not as a bare RuntimeError."""
    noise = _OverclaimingLogistic(2.0)
    with pytest.raises(GmsimError, match=r"Phi\(C\) fell below \(1-K\) \* Phi\(0\)"):
        check_gm_condition(noise, 1.0)


# --------------------------------------------------------------------------
# Step families


def test_two_point_survival_steps():
    noise = TwoPointDiscrete(1.0, 0.5)
    assert noise.survival(-1.5) == 1.0
    assert noise.survival(-1.0) == 1.0
    assert noise.survival(-0.999) == 0.5
    assert noise.survival(1.0) == 0.5
    assert noise.survival(1.001) == 0.0
    assert noise.cdf(-1.001) == 0.0
    assert noise.cdf(-1.0) == 0.5
    assert noise.cdf(0.999) == 0.5
    assert noise.cdf(1.0) == 1.0


def test_noise_trader_mix_is_flat():
    noise = NoiseTraderMix(0.75)
    for y in (-100.0, 0.0, 42.0):
        assert noise.survival(y) == 0.75
        assert noise.cdf(y) == 0.25


def test_family_parameter_validation():
    with pytest.raises(ConfigError):
        Logistic(0.0)
    with pytest.raises(ConfigError):
        Gaussian(-1.0)
    with pytest.raises(ConfigError):
        TwoPointDiscrete(1.0, 1.0)
    with pytest.raises(ConfigError):
        NoiseTraderMix(0.0)


# --------------------------------------------------------------------------
# Scalar and vectorized paths agree


@pytest.mark.parametrize(
    "noise",
    CONTINUOUS + [TwoPointDiscrete(1.0, 0.5), NoiseTraderMix(0.25)],
    ids=lambda n: repr(n),
)
def test_grid_helpers_match_scalar(noise):
    ys = np.linspace(-12.0, 12.0, 97)
    sv = noise.survival_grid(ys)
    cd = noise.side_tails_grid(ys, -1.0)
    for i, y in enumerate(ys):
        assert float(sv[i]).hex() == noise.survival(float(y)).hex()
        assert float(cd[i]).hex() == noise.cdf(float(y)).hex()


# the whole finite range and beyond: a price near 1.7e308 overflows the
# grids' division by a scale below 1, which must stay silent as the scalar
# division does
HARD_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
                     1.7e308, -1.7e308, math.inf, -math.inf]),
    # full 53-bit mantissas, where a rounding difference shows: at every
    # magnitude from the subnormals up to the largest float, and often
    # where the tails are not flat
    st.builds(
        lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
        st.sampled_from([1.0, -1.0]),
        st.integers(2**52, 2**53 - 1),
        st.integers(-1126, 971) | st.integers(-62, -46),
    ),
)


@pytest.mark.parametrize(
    "noise",
    [Logistic(0.37), Logistic(2.0), Gaussian(0.7777), Gaussian(2.5), Laplace(0.8),
     TwoPointDiscrete(1.0, 0.3), NoiseTraderMix(0.25)],
    ids=repr,
)
@given(ys=st.lists(HARD_FLOATS, min_size=1, max_size=20))
def test_grid_helpers_match_scalar_on_hard_floats(noise, ys):
    """The tail grids equal the scalar tails bit for bit at signed zeros,
    subnormals, magnitudes near the float limits and infinities, and so
    does slope_grid at those tails."""
    sv = noise.survival_grid(np.array(ys))
    cd = noise.side_tails_grid(np.array(ys), -1.0)
    for y, got_sv, got_cd in zip(ys, sv.tolist(), cd.tolist()):
        assert got_sv.hex() == noise.survival(y).hex(), y
        assert got_cd.hex() == noise.cdf(y).hex(), y
    if noise.slope is not None:
        for tails in (sv, cd):
            got = noise.slope_grid(tails).tolist()
            assert [v.hex() for v in got] == [noise.slope(f).hex() for f in tails.tolist()]


@pytest.mark.parametrize(
    "noise",
    [Logistic(0.37), Gaussian(2.5), Laplace(0.8), TwoPointDiscrete(1.0, 0.3),
     NoiseTraderMix(0.25)],
    ids=["logistic", "gaussian", "laplace", "two_point", "noise_trader_mix"],
)
def test_side_tails_match_scalar_survival_and_cdf(noise):
    """survival on the rows signed +1 and cdf on the rows signed -1, bit
    for bit, with the lattice's steps and signed zeros among the points."""
    ys = np.concatenate([np.linspace(-6.0, 6.0, 97), [0.0, -0.0, 1.0, -1.0]])
    ys = np.stack([ys, ys[::-1], -ys])
    sign = np.array([[1.0], [-1.0], [-1.0]])
    tails = noise.side_tails_grid(ys, sign)
    assert tails.shape == ys.shape
    for row, side in ((0, noise.survival), (1, noise.cdf), (2, noise.cdf)):
        for y, got in zip(ys[row].tolist(), tails[row].tolist()):
            assert got.hex() == side(y).hex(), (row, y)


@pytest.mark.parametrize(
    "noise", [TwoPointDiscrete(1.0, 0.3), NoiseTraderMix(0.25)],
    ids=["two_point", "noise_trader_mix"],
)
def test_static_side_tails_take_each_tail_only_where_its_sign_selects_it(noise, monkeypatch):
    """The static-only families' side_tails_grid equals the np.where form
    that took both tails at every entry, bit for bit, at +-value, signed
    zeros and +-inf, with a scalar sign and with a column of signs; and it
    takes the survival only on the +1 entries and the cdf only on the -1
    ones."""
    family = type(noise)
    calls = {"survival": 0, "cdf": 0}
    for name in calls:
        def counted(self, y, tail=getattr(family, name), name=name):
            calls[name] += 1
            return tail(self, y)
        monkeypatch.setattr(family, name, counted)
    ys = np.array([-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, 0.5, -2.0])
    ys = np.stack([ys, ys[::-1], -ys])
    for sign in (1.0, -1.0, np.array([[1.0], [-1.0], [-1.0]]), np.array([[-1.0], [1.0], [-1.0]])):
        both = np.where(sign > 0, _elementwise(noise.survival, ys), _elementwise(noise.cdf, ys))
        calls.update(survival=0, cdf=0)
        tails = noise.side_tails_grid(ys, sign)
        assert tails.tobytes() == both.tobytes(), sign
        up = np.count_nonzero(np.broadcast_to(np.asarray(sign) > 0, ys.shape))
        assert calls == {"survival": up, "cdf": ys.size - up}, sign


SYMMETRIC = [Logistic(0.37), Logistic(2.0), Gaussian(1.0), Gaussian(2.5), Laplace(0.8)]


def test_symmetric_families_are_covered():
    assert {type(n) for n in SYMMETRIC} == set(_Symmetric.__subclasses__())


@pytest.mark.parametrize("noise", SYMMETRIC, ids=repr)
def test_symmetric_cdf_is_survival_of_the_negated_price(noise):
    """side_tails_grid takes a symmetric family's cdf(y) as survival(-y),
    so the two must agree bit for bit, Gaussian's own erfc cdf included:
    at signed zeros, at the smallest and largest magnitudes, and on a
    grid."""
    ys = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]
    ys += np.linspace(-12.0, 12.0, 97).tolist()
    for y in ys:
        assert noise.cdf(y).hex() == noise.survival(-y).hex(), y


# --------------------------------------------------------------------------
# Sampling


@pytest.mark.parametrize("noise", [Logistic(2.0), Gaussian(1.0), Laplace(0.8)],
                         ids=["logistic", "gaussian", "laplace"])
def test_sampling_matches_cdf_ks(noise):
    n = 100_000
    rng = np.random.default_rng(20240811)
    draws = np.sort(noise.sample(rng, n))
    d = ks_statistic(draws, noise.side_tails_grid(draws, -1.0))
    assert d < 1.63 / math.sqrt(n), f"KS statistic {d:.5f}"


def test_sampling_two_point_frequencies():
    noise = TwoPointDiscrete(1.0, 0.75)
    n = 100_000
    rng = np.random.default_rng(7)
    draws = noise.sample(rng, n)
    assert set(np.unique(draws)) == {-1.0, 1.0}
    freq = np.mean(draws == 1.0)
    assert abs(freq - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / n)


def test_sampling_mix_is_infinite():
    noise = NoiseTraderMix(0.4)
    n = 100_000
    rng = np.random.default_rng(11)
    draws = noise.sample(rng, n)
    assert np.all(np.isinf(draws))
    freq = np.mean(draws > 0)
    assert abs(freq - 0.4) <= 3 * math.sqrt(0.4 * 0.6 / n)


def test_sampling_is_deterministic_per_seed():
    noise = Logistic(2.0)
    a = noise.sample(np.random.default_rng(123), 50)
    b = noise.sample(np.random.default_rng(123), 50)
    assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# Config mapping


def test_noise_from_dict_builds_each_family():
    for spec, noise in [
        ({"family": "logistic", "scale": 2.0}, Logistic(2.0)),
        ({"family": "gaussian", "sigma": 1.5}, Gaussian(1.5)),
        ({"family": "laplace", "scale": 0.8}, Laplace(0.8)),
        ({"family": "two_point", "value": 1.0, "prob": 0.5}, TwoPointDiscrete(1.0, 0.5)),
        ({"family": "noise_trader", "buy_prob": 0.25}, NoiseTraderMix(0.25)),
    ]:
        built = noise_from_dict(spec)
        assert type(built) is type(noise) and built == noise


def test_noise_from_dict_errors_name_the_field():
    with pytest.raises(ConfigError, match="family"):
        noise_from_dict({"family": "cauchy", "scale": 1.0})
    with pytest.raises(ConfigError, match="noise.scale"):
        noise_from_dict({"family": "logistic"})
    with pytest.raises(ConfigError, match="noise.sigma"):
        noise_from_dict({"family": "gaussian", "sigma": "wide"})
    with pytest.raises(ConfigError, match="noise.prob"):
        noise_from_dict({"family": "two_point", "value": 1.0, "prob": 0.5, "probE": 1})
