"""Bessel layer tests.

Reference values were computed independently with mpmath.besseli at 40
significant digits and frozen here; half-integer orders additionally have
elementary closed forms (I_1/2 ~ sinh, I_-1/2 ~ cosh) that serve as exact
oracles.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncx2shape import (
    DomainError,
    bessel_i,
    bessel_ratio,
    bessel_ratio_derivative,
    finite_difference,
    log_bessel_i,
    ratio_asymptotic,
    ratio_eval,
)
from ncx2shape.bessel import _i_scaled_asymptotic, _i_series, _ratio_cf, _series_crossover

# mpmath references
I_HALF_AT_1 = 0.9376748882454876
I_ONE_AT_2 = 1.5906368546373291
LOG_I0_AT_700 = 695.8056999984434


def hybrid_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def naive_series_i(mu, x, terms=300):
    """Direct summation of sum_k (x/2)^(2k+mu) / (k! Gamma(mu+k+1))."""
    total = 0.0
    for k in range(terms):
        total += math.exp((2 * k + mu) * math.log(0.5 * x) - math.lgamma(k + 1) - math.lgamma(mu + k + 1))
    return total


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.0, 0.0) == 0.0
        assert bessel_i(-0.5, 0.0) == math.inf

    def test_half_order_closed_form(self):
        # I_1/2(x) = sqrt(2/(pi x)) sinh(x)
        expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert hybrid_close(bessel_i(0.5, 1.0), expected, 1e-13)
        assert hybrid_close(bessel_i(0.5, 1.0), I_HALF_AT_1, 1e-12)

    def test_order_one_series_oracle(self):
        assert hybrid_close(bessel_i(1.0, 2.0), naive_series_i(1.0, 2.0), 1e-13)
        assert hybrid_close(bessel_i(1.0, 2.0), I_ONE_AT_2, 1e-12)

    @pytest.mark.parametrize("mu", [-0.75, -0.5, 0.0, 0.25, 0.5, 1.0, 2.5, 5.0])
    @pytest.mark.parametrize("x", [1e-4, 0.1, 1.0, 7.0, 25.0])
    def test_against_naive_series(self, mu, x):
        assert hybrid_close(bessel_i(mu, x), naive_series_i(mu, x), 1e-12)

    @pytest.mark.parametrize("mu", [-0.75, 0.0, 0.5, 1.0, 2.5, 5.0])
    def test_branch_overlap(self, mu):
        # series and scaled asymptotic agree in a band around the crossover
        xc = _series_crossover(mu)
        for x in (xc - 3.0, xc - 1.0, xc + 1.0, xc + 3.0):
            a = _i_series(mu, x)
            b = math.exp(x) * _i_scaled_asymptotic(mu, x)
            assert abs(a - b) / a < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_i(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_i(math.nan, 1.0)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            bessel_i(0.0, 800.0)


class TestLogBesselI:
    def test_near_zero_argument(self):
        assert abs(log_bessel_i(0.0, 1e-8)) < 1e-15

    def test_half_order(self):
        assert hybrid_close(log_bessel_i(0.5, 1.0), math.log(I_HALF_AT_1), 1e-12)

    def test_large_argument(self):
        got = log_bessel_i(0.0, 700.0)
        assert hybrid_close(got, LOG_I0_AT_700, 1e-12)
        # leading asymptotic e^x / sqrt(2 pi x); first correction is 1/(8x)
        leading = 700.0 - 0.5 * math.log(2.0 * math.pi * 700.0)
        assert abs(got - leading) < 1e-3

    @pytest.mark.parametrize("x", [1e4, 1e6, 1e8])
    def test_very_large_argument_halforder(self, x):
        # closed form: log I_1/2 = log(sinh x) + 0.5 log(2/(pi x))
        #            = x - log 2 + log1p(-exp(-2x)) + 0.5 log(2/(pi x))
        expected = x - math.log(2.0) + 0.5 * math.log(2.0 / (math.pi * x))
        assert hybrid_close(log_bessel_i(0.5, x), expected, 1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_bessel_i(0.0, 0.0)
        with pytest.raises(DomainError):
            log_bessel_i(0.0, -3.0)


class TestBesselRatio:
    def test_half_order_is_tanh(self):
        for x in np.geomspace(1e-4, 50.0, 301):
            assert abs(bessel_ratio(0.5, float(x)) - math.tanh(float(x))) <= 1e-12

    def test_small_argument_leading_order(self):
        # r_1(x) ~ x/2 for small x; oracle by naive series quotient
        got = bessel_ratio(1.0, 0.001)
        assert hybrid_close(got, naive_series_i(1.0, 0.001) / naive_series_i(0.0, 0.001), 1e-13)
        assert abs(got - 0.0005) < 1e-9
        assert hybrid_close(got, ratio_asymptotic(1.0, 0.001, "small"), 1e-10)

    def test_large_argument_leading_order(self):
        got = bessel_ratio(1.0, 100.0)
        assert abs(got - 0.995) < 1e-4
        assert hybrid_close(got, ratio_asymptotic(1.0, 100.0, "large"), 1e-4)

    @pytest.mark.parametrize("mu", [0.05, 0.25, 0.5, 1.0, 2.5, 5.0])
    def test_cf_asymptotic_overlap(self, mu):
        xc = 30.0 + 2.0 * (abs(mu) + 1.0)
        for x in (xc - 5.0, xc - 1.0, xc + 1.0, xc + 5.0):
            a = _ratio_cf(mu, x)
            b = _i_scaled_asymptotic(mu, x) / _i_scaled_asymptotic(mu - 1.0, x)
            assert abs(a - b) / a < 1e-13

    @pytest.mark.parametrize("mu", [1e-6, 0.25, 0.5, 1.0, 2.0, 5.0])
    def test_positivity(self, mu):
        for x in np.geomspace(1e-4, 1e4, 50):
            assert bessel_ratio(mu, float(x)) > 0.0

    @pytest.mark.parametrize("mu", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_x_times_ratio_increasing(self, mu):
        xs = np.geomspace(1e-3, 60.0, 400)
        vals = np.array([x * bessel_ratio(mu, float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("mu", [1.0, 2.0, 5.0])
    def test_ratio_over_x_decreasing(self, mu):
        xs = np.geomspace(1e-3, 60.0, 400)
        vals = np.array([bessel_ratio(mu, float(x)) / x for x in xs])
        assert np.all(np.diff(vals) < 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_ratio(0.0, 1.0)
        with pytest.raises(DomainError):
            bessel_ratio(-0.5, 1.0)
        with pytest.raises(DomainError):
            bessel_ratio(1.0, 0.0)

    def test_ratio_eval_consistency(self):
        # value against exp(log I_mu - log I_{mu-1}), both lineages
        for mu in (0.25, 0.5, 1.0, 3.0):
            for x in (0.01, 0.5, 2.0, 20.0, 45.0):
                ev = ratio_eval(mu, x)
                recomposed = math.exp(ev.log_i_num - ev.log_i_den)
                assert hybrid_close(ev.value, recomposed, 1e-12)


def _floats_log_and_flat(lo, hi):
    """Floats in [lo, hi], both uniform and log-uniform, so every decade shows up."""
    log_uniform = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0 ** e, lo), hi))
    return st.one_of(st.floats(min_value=lo, max_value=hi), log_uniform)


class TestSeriesRangeAgainstMpmath:
    """The power-series range x <= 1, against mpmath at 30 digits at the double inputs."""

    @settings(max_examples=150, deadline=None)
    @given(mu=_floats_log_and_flat(1e-16, 50.0).filter(lambda m: m > 1e-16),
           x=_floats_log_and_flat(1e-300, 1.0))
    # Each used to raise "series stalled": the first series term underflowed.
    @example(mu=3.0, x=1e-110)
    @example(mu=9.0, x=1e-40)
    @example(mu=3.0, x=9.409607399461108e-110)
    # Orders whose mu - 1 rounds: nu = 1e-16 (lgamma(0) was a bare
    # ValueError) and nu = 1e-13 near their tau.
    @example(mu=5e-17, x=0.0065196889)
    @example(mu=5e-14, x=0.020617066)
    def test_ratio_and_log_i(self, mu, x):
        with mpmath.workdps(30):
            m, mx = mpmath.mpf(mu), mpmath.mpf(x)
            ratio = mpmath.besseli(m, mx) / mpmath.besseli(m - 1, mx)
            log_i = mpmath.log(mpmath.besseli(m, mx))
        assert abs(bessel_ratio(mu, x) - ratio) <= 1e-13 * ratio
        assert hybrid_close(log_bessel_i(mu, x), float(log_i), 1e-13)
        # The density's order mu - 1, in (-1, 0) for small mu; below
        # mu ~ 1.1e-16 it rounds to -1, outside the domain.
        below = mu - 1.0
        if below > -1.0:
            with mpmath.workdps(30):
                log_i_below = mpmath.log(mpmath.besseli(mpmath.mpf(below), mx))
            assert hybrid_close(log_bessel_i(below, x), float(log_i_below), 1e-13)


class TestRatioAboveSeriesRange:
    """x >= 1, up to four times the crossover to the large-argument quotient."""

    @settings(max_examples=150, deadline=None)
    @given(mu=_floats_log_and_flat(1e-16, 50.0).filter(lambda m: m > 1e-16),
           u=st.floats(min_value=0.0, max_value=1.0))
    # The quotient used to take over at 32 + 2 mu, far below mu^2 / 2 = 1250:
    # the ratio came out 34% high here.
    @example(mu=50.0, u=0.6)
    def test_ratio(self, mu, u):
        x = (4.0 * max(32.0 + 2.0 * mu, 0.5 * mu * mu)) ** u
        with mpmath.workdps(30):
            m, mx = mpmath.mpf(mu), mpmath.mpf(x)
            ratio = mpmath.besseli(m, mx) / mpmath.besseli(m - 1, mx)
        assert abs(bessel_ratio(mu, x) - ratio) <= 4e-15 * ratio


class TestRatioDerivative:
    def test_half_order_sech_squared(self):
        expected = 1.0 / math.cosh(1.0) ** 2
        assert hybrid_close(bessel_ratio_derivative(0.5, 1.0), expected, 1e-12)
        assert hybrid_close(bessel_ratio_derivative(0.5, 1.0), 0.41997434161402614, 1e-12)

    def test_small_argument_limit(self):
        # r'_mu(0+) = 1/(2 mu)
        assert abs(bessel_ratio_derivative(1.0, 0.001) - 0.5) < 1e-5

    @pytest.mark.parametrize("mu", [0.25, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("x", [0.01, 0.3, 1.7, 9.0, 33.0])
    def test_matches_finite_difference(self, mu, x):
        h = 1e-6 * max(1.0, x)
        fd = finite_difference(lambda y: bessel_ratio(mu, y), x, 1, h)
        assert hybrid_close(bessel_ratio_derivative(mu, x), fd, 1e-6)


class TestRatioAsymptotic:
    def test_small_regime_plug(self):
        assert math.isclose(ratio_asymptotic(1.0, 0.01, "small"), 0.01 / 2.0 - 0.01 ** 3 / 16.0)

    def test_large_regime_plug(self):
        assert ratio_asymptotic(1.0, 100.0, "large") == 1.0 - 1.0 / 200.0
        # nu = 1 kills the first correction
        assert ratio_asymptotic(0.5, 50.0, "large") == 1.0

    def test_small_regime_error_order(self):
        # truncation error is o(x^3): successive halvings shrink it faster than 8x
        mu = 1.0
        errs = []
        for x in (0.2, 0.1, 0.05):
            errs.append(abs(bessel_ratio(mu, x) - ratio_asymptotic(mu, x, "small")))
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0

    def test_large_regime_error_order(self):
        # truncation error is O(1/x^2), so doubling x shrinks it about 4x;
        # at mu = 1.5 the second-order coefficient vanishes, so probe 1.25
        mu = 1.25
        errs = []
        for x in (50.0, 100.0, 200.0):
            errs.append(abs(bessel_ratio(mu, x) - ratio_asymptotic(mu, x, "large")))
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_regime_validation(self):
        with pytest.raises(DomainError):
            ratio_asymptotic(1.0, 1.0, "medium")
