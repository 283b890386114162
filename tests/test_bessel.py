"""Bessel layer tests.

Reference values were computed independently with mpmath.besseli at 40
significant digits and frozen here; half-integer orders additionally have
elementary closed forms (I_1/2 ~ sinh, I_-1/2 ~ cosh) that serve as exact
oracles.
"""

import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncx2shape.bessel as bessel_module

from ncx2shape import (
    ConvergenceError,
    DomainError,
    bessel_ratio,
    log_bessel_i,
)
from ncx2shape.bessel import (
    HALF_ORDER_LOG1P_MIN_X,
    SERIES_RATIO_MAX_X,
    _half_order,
    _log_i_debye,
    _log_series_lead,
    _point,
    _ratio_cf,
    _ratio_perron,
    _series_crossover,
    _series_pair,
    _series_sum,
)
import ncx2shape.density as density_module
from ncx2shape.density import (
    _CONTINUE_RADIUS,
    _CONTINUE_UNIT,
    _ratio_at,
    _ratio_slope,
)
from ncx2shape.oracle import finite_difference

# mpmath references
I_HALF_AT_1 = 0.9376748882454876
I_ONE_AT_2 = 1.5906368546373291
LOG_I0_AT_700 = 695.8056999984434


def hybrid_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _floats_log_and_flat(lo, hi):
    """Floats in [lo, hi], both uniform and log-uniform, so every decade shows up.

    10.0 ** e overflows above e = 308.25, so the log-uniform part stops at 1e308.
    """
    log_uniform = st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0 ** min(e, 308.0), lo), hi))
    return st.one_of(st.floats(min_value=lo, max_value=hi), log_uniform)


def _mp_log_i(mu, x, shift=0):
    """log I_{mu - shift}(x) at 40 digits, the order formed at that precision."""
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.besseli(mpmath.mpf(mu) - shift, mpmath.mpf(x))))


def _mp_ratio(mu, x):
    """r_mu(x) at 40 digits, the order mu - 1 formed at that precision."""
    with mpmath.workdps(40):
        m, mx = mpmath.mpf(mu), mpmath.mpf(x)
        return float(mpmath.besseli(m, mx) / mpmath.besseli(m - 1, mx))


def _band_ratio(mu, x):
    """r_mu(x) from the general bands, as bessel_ratio takes them at every order but 1/2."""
    if x < SERIES_RATIO_MAX_X:
        total, total_lower = _series_pair(mu, x)
        return x * total / (2.0 * mu * total_lower)
    return _ratio_cf(mu, x) if x < _series_crossover(mu) else _ratio_perron(mu, x)


def bessel_ratio_derivative(mu, x):
    """r'_mu(x) = 1 - (2 mu - 1) r_mu(x) / x - r_mu(x)^2, the identity the density uses."""
    return _ratio_slope(2.0 * mu, x, bessel_ratio(mu, x))


def ratio_asymptotic(mu, x, regime):
    """Two-term expansions of r_mu(x), oracles for its limiting behaviour.

    With nu = 2 mu, ``regime="small"`` gives x/nu - x^3 / (nu^2 (nu + 2))
    and ``regime="large"`` gives 1 - (nu - 1) / (2 x).
    """
    nu = 2.0 * mu
    if regime == "small":
        return x / nu - x ** 3 / (nu * nu * (nu + 2.0))
    if regime == "large":
        return 1.0 - (nu - 1.0) / (2.0 * x)
    raise DomainError(f"regime must be 'small' or 'large', got {regime!r}")


def naive_series_i(mu, x, terms=300):
    """Direct summation of sum_k (x/2)^(2k+mu) / (k! Gamma(mu+k+1))."""
    total = 0.0
    for k in range(terms):
        total += math.exp((2 * k + mu) * math.log(0.5 * x) - math.lgamma(k + 1) - math.lgamma(mu + k + 1))
    return total


class TestBesselI:
    """I_mu itself, as exp(log_bessel_i)."""

    def test_half_order_closed_form(self):
        # I_1/2(x) = sqrt(2/(pi x)) sinh(x), against the series that
        # log_bessel_i takes below its crossover at every order but +-1/2
        expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        got = math.exp(_log_series_lead(0.5, 1.0) + math.log(_series_sum(0.5, 1.0)))
        assert hybrid_close(got, expected, 1e-13)
        assert hybrid_close(got, I_HALF_AT_1, 1e-12)

    def test_order_one_series_oracle(self):
        got = math.exp(log_bessel_i(1.0, 2.0))
        assert hybrid_close(got, naive_series_i(1.0, 2.0), 1e-13)
        assert hybrid_close(got, I_ONE_AT_2, 1e-12)

    @pytest.mark.parametrize("mu", [-0.75, -0.5, 0.0, 0.25, 0.5, 1.0, 2.5, 5.0])
    @pytest.mark.parametrize("x", [1e-4, 0.1, 1.0, 7.0, 25.0])
    def test_against_naive_series(self, mu, x):
        assert hybrid_close(math.exp(log_bessel_i(mu, x)), naive_series_i(mu, x), 1e-12)

    @pytest.mark.parametrize("mu", [-0.75, 0.0, 0.5, 1.0, 2.5, 5.0])
    def test_branch_overlap(self, mu):
        # the series and the uniform expansion at the order |mu| agree in a
        # band around the crossover
        xc = _series_crossover(mu)
        for x in (xc - 3.0, xc - 1.0, xc + 1.0, xc + 3.0):
            a = math.exp(_log_series_lead(mu, x)) * _series_sum(mu, x)
            b = math.exp(_log_i_debye(abs(mu), x))
            assert abs(a - b) / a < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_bessel_i(0.0, -1.0)
        with pytest.raises(DomainError):
            log_bessel_i(-1.0, 1.0)
        with pytest.raises(DomainError):
            log_bessel_i(math.nan, 1.0)
        with pytest.raises(DomainError, match="finite"):
            log_bessel_i(0.0, math.inf)

    # 30 + 2 mu <= x < mu^2 / 2, where the large-argument (Hankel) expansion
    # is wrong: it made I_25(100) 21.7x and I_50(300) 63x too large.
    @pytest.mark.parametrize("mu,x", [(12.0, 60.0), (25.0, 100.0), (50.0, 300.0)])
    def test_large_order_band_against_mpmath(self, mu, x):
        with mpmath.workdps(40):
            ref = float(mpmath.besseli(mu, x))
        assert hybrid_close(math.exp(log_bessel_i(mu, x)), ref, 1e-12)


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
        #            = x - log 2 + log1p(-exp(-2x)) + 0.5 log(2/(pi x)),
        # against the uniform expansion, which log_bessel_i takes at every
        # order but +-1/2 here
        expected = x - math.log(2.0) + 0.5 * math.log(2.0 / (math.pi * x))
        assert hybrid_close(_log_i_debye(0.5, x), expected, 1e-13)

    def test_largest_double(self):
        # log I_1/2 = x - log 2 + log1p(-exp(-2x)) + (log(2/pi) - log x) / 2
        x = sys.float_info.max
        expected = x - math.log(2.0) + 0.5 * (math.log(2.0 / math.pi) - math.log(x))
        assert log_bessel_i(0.5, x) == expected
        for mu in (-0.5, 0.0, 1.0, 50.0):
            assert math.isfinite(log_bessel_i(mu, x))

    # Orders down to -1, which the density passes as mu - 1 for nu < 2, and
    # arguments up to the largest double.
    @settings(max_examples=200, deadline=None)
    @given(mu=st.one_of(_floats_log_and_flat(1e-300, 50.0), st.floats(-1.0, 0.0, exclude_min=True)),
           x=_floats_log_and_flat(1e-300, sys.float_info.max))
    # The seams from the series to the uniform expansion at 30 + 2|mu|.
    @example(mu=-0.5, x=math.nextafter(31.0, 0.0))
    @example(mu=-0.5, x=31.0)
    @example(mu=0.0, x=30.0)
    @example(mu=0.5, x=31.0)
    @example(mu=50.0, x=math.nextafter(130.0, 0.0))
    @example(mu=50.0, x=130.0)
    @example(mu=1.0, x=math.nextafter(32.0, 0.0))
    @example(mu=1.0, x=32.0)
    # The largest double.
    @example(mu=-0.5, x=sys.float_info.max)
    @example(mu=1.0, x=sys.float_info.max)
    @example(mu=50.0, x=sys.float_info.max)
    def test_whole_range_against_mpmath(self, mu, x):
        # Counted in ulp of the largest of x, the result and the two terms
        # of the series' log lead, mu log(x/2) and lgamma(mu + 1): that is
        # ulp(x) wherever x dominates.
        ref = _mp_log_i(mu, x)
        scale = max(x, abs(ref), abs(mu * math.log(0.5 * x)), math.lgamma(mu + 1.0), 1.0)
        assert abs(log_bessel_i(mu, x) - ref) <= 8.0 * math.ulp(scale)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_bessel_i(0.0, 0.0)
        with pytest.raises(DomainError):
            log_bessel_i(0.0, -3.0)
        with pytest.raises(DomainError, match="finite and > 0"):
            log_bessel_i(0.0, math.inf)


def _debye_polynomials(n):
    """U_0 .. U_n of DLMF 10.41.10 in exact rationals, each as {power of p: coefficient}.

    U_{k+1}(p) = p^2 (1 - p^2) U_k'(p) / 2 + int_0^p (1 - 5 t^2) U_k(t) dt / 8.
    """
    polys = [{0: Fraction(1)}]
    for _ in range(n):
        nxt = {}
        for e, c in polys[-1].items():
            for power, coef in ((e + 1, c * e / 2 + c / (8 * (e + 1))),
                                (e + 3, -c * e / 2 - 5 * c / (8 * (e + 3)))):
                nxt[power] = nxt.get(power, 0) + coef
        polys.append({e: c for e, c in nxt.items() if c})
    return polys


class TestDebyeBand:
    """log I_mu(x) for x >= 30 + 2|mu|, by the uniform expansion at the order |mu|."""

    def test_stored_rows_are_the_recurrence(self):
        polys = _debye_polynomials(15)
        # DLMF 10.41.10 prints U_1 .. U_3.
        assert polys[1] == {1: Fraction(3, 24), 3: Fraction(-5, 24)}
        assert polys[2] == {2: Fraction(81, 1152), 4: Fraction(-462, 1152), 6: Fraction(385, 1152)}
        assert polys[3] == {3: Fraction(30375, 414720), 5: Fraction(-369603, 414720),
                            7: Fraction(765765, 414720), 9: Fraction(-425425, 414720)}
        rows = []
        for k, poly in enumerate(polys[1:], start=1):
            assert set(poly) == set(range(k, 3 * k + 1, 2))
            rows.append(tuple(float(poly[e]) for e in range(3 * k, k - 1, -2)))
        assert bessel_module._DEBYE_U == tuple(rows)

    @settings(max_examples=100, deadline=None)
    @given(mu=st.floats(min_value=-1.0, max_value=50.0, exclude_min=True),
           u=st.floats(min_value=0.0, max_value=1.0))
    @example(mu=10.07, u=0.5)
    @example(mu=25.0, u=0.08)
    @example(mu=50.0, u=0.999)
    @example(mu=-0.5, u=0.0)
    def test_against_mpmath(self, mu, u):
        # x log-uniform over six decades from the crossover
        lo = _series_crossover(mu)
        x = lo * 1e6 ** u
        got, debye = log_bessel_i(mu, x), _log_i_debye(abs(mu), x)
        # At mu = +-1/2 log_bessel_i is the closed form instead.
        assert got == (_half_order(x)[1 if mu < 0.0 else 2] if abs(mu) == 0.5 else debye)
        for value in (got, debye):
            assert abs(value - _mp_log_i(mu, x)) <= 4.0 * math.ulp(x)

    @pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5, 1.0, 10.5, 12.0, 25.0, 50.0])
    def test_seams(self, mu):
        # At the crossover the expansion meets the series.
        lo = _series_crossover(mu)
        series = _log_series_lead(mu, lo) + math.log(_series_sum(mu, lo))
        assert abs(_log_i_debye(abs(mu), lo) - series) <= 4.0 * math.ulp(lo)
        below = math.nextafter(lo, 0.0)
        assert log_bessel_i(mu, below) == _log_series_lead(mu, below) + math.log(_series_sum(mu, below))
        assert log_bessel_i(mu, lo) == _log_i_debye(abs(mu), lo)

    def test_row_bounds(self):
        # On p^2 in [0, 1/5] each row's polynomial is at most its last
        # coefficient in magnitude, and that bound falls by more than a
        # factor 4 from row to row at s = 30: the kernel's stop test.
        q = np.linspace(0.0, 0.2, 20001)
        bounds = [abs(row[-1]) for row in bessel_module._DEBYE_U]
        for row, bound in zip(bessel_module._DEBYE_U, bounds):
            assert np.all(np.abs(np.polyval(row, q)) <= bound)
        for bound, following in zip(bounds, bounds[1:]):
            assert following / 30.0 < bound / 4.0

    def test_a_vanishing_term_does_not_end_the_sum(self):
        # Rows of _DEBYE_U have roots in p^2 < 1/5.  At the argument where a
        # row's term changes sign, that term alone falls below half an ulp,
        # while the next does not: stopping there made log I_40(118.1414...)
        # 14843 ulp off.  Each root is placed at the smallest order mu <= 50
        # that puts it in the band, where the next term is largest.
        checked = 0
        for k, row in enumerate(bessel_module._DEBYE_U[:-1], start=1):
            for q0 in np.roots(row):
                if abs(q0.imag) > 0.0 or not 0.0 < q0.real < 0.2:
                    continue
                ratio = math.sqrt(1.0 / q0.real - 1.0)  # x / mu at the root
                mu = 1.01 * 30.0 / (ratio - 2.0)
                if mu > 50.0:
                    continue

                def term(x):
                    s = math.hypot(mu, x)
                    return np.polyval(row, (mu / s) ** 2) / s ** k

                lo, hi = 0.99 * mu * ratio, 1.01 * mu * ratio
                assert term(lo) * term(hi) < 0.0
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if term(lo) * term(mid) > 0.0 else (lo, mid)
                assert abs(log_bessel_i(mu, lo) - _mp_log_i(mu, lo)) <= 4.0 * math.ulp(lo)
                checked += 1
        assert checked >= 10


class TestBesselRatio:
    def test_half_order_is_tanh(self):
        # The general bands (series quotient, Gauss's and Perron's fractions)
        # at mu = 1/2, where bessel_ratio is tanh itself.
        for x in np.geomspace(1e-4, 50.0, 301):
            assert abs(_band_ratio(0.5, float(x)) - math.tanh(float(x))) <= 1e-12

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

    @pytest.mark.parametrize("mu", [0.05, 0.25, 0.75, 1.0, 2.5, 5.0])
    def test_cf_asymptotic_overlap(self, mu):
        # Gauss's and Perron's fractions agree around their seam at
        # 30 + 2 mu, where bessel_ratio passes from the one to the other.
        xc = _series_crossover(mu)
        for x in (xc - 5.0, xc - 1.0, xc + 1.0, xc + 5.0):
            a = _ratio_cf(mu, x)
            b = _ratio_perron(mu, x)
            assert abs(a - b) / a < 4e-15
        below = math.nextafter(xc, 0.0)
        assert bessel_ratio(mu, below) == _ratio_cf(mu, below)
        assert bessel_ratio(mu, xc) == _ratio_perron(mu, xc)

    def test_cf_iteration_cap_raises(self, monkeypatch):
        # r_1(20) takes 28 levels of the fraction.
        monkeypatch.setattr(bessel_module, "CF_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="iteration cap"):
            _ratio_cf(1.0, 20.0)

    def test_perron_iteration_cap_raises(self, monkeypatch):
        # r_1(32) takes 16 levels of Perron's fraction.
        monkeypatch.setattr(bessel_module, "CF_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="iteration cap"):
            _ratio_perron(1.0, 32.0)

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

    @pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("x", [0.5, 2.0, 100.0])
    def test_non_finite_order_is_a_domain_error(self, mu, x):
        # An infinite order used to run all of Gauss's levels and raise
        # ConvergenceError at x = 2, and to return 0.0 at x = 0.5.
        with pytest.raises(DomainError, match="finite order"):
            bessel_ratio(mu, x)
        with pytest.raises(DomainError, match="finite order"):
            _point(mu, x)

    def test_ratio_eval_consistency(self):
        # bessel_ratio against exp(log I_mu - log I_{mu-1}), two lineages
        for mu in (0.25, 0.5, 1.0, 3.0):
            for x in (0.01, 0.5, 2.0, 20.0, 45.0):
                recomposed = math.exp(log_bessel_i(mu, x) - log_bessel_i(mu - 1.0, x))
                assert hybrid_close(bessel_ratio(mu, x), recomposed, 1e-12)


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
        # The density's kernel: the same r and log I_mu, and log I_{mu-1}
        # at the order mu - 1 formed at 40 digits, which it never rounds.
        r, log_i_lower, log_i_point = _point(mu, x)
        assert (r, log_i_point) == (bessel_ratio(mu, x), log_bessel_i(mu, x))
        assert hybrid_close(log_i_lower, _mp_log_i(mu, x, 1), 1e-13)
        # The order mu - 1, in (-1, 0) for small mu; below mu ~ 1.1e-16 it
        # rounds to -1, outside the domain.
        below = mu - 1.0
        if below > -1.0:
            with mpmath.workdps(30):
                log_i_below = mpmath.log(mpmath.besseli(mpmath.mpf(below), mx))
            assert hybrid_close(log_bessel_i(below, x), float(log_i_below), 1e-13)


class TestRatioAboveSeriesRange:
    """x >= 1: Gauss's fraction up to 30 + 2 mu, Perron's from there to the largest double."""

    @settings(max_examples=150, deadline=None)
    @given(mu=_floats_log_and_flat(1e-16, 50.0).filter(lambda m: m > 1e-16),
           x=_floats_log_and_flat(1.0, 1e8))
    # The large-argument quotient used to take over at 32 + 2 mu, far below
    # mu^2 / 2 = 1250: the ratio came out 34% high here.
    @example(mu=50.0, x=165.7)
    # Both sides of the seam between the two fractions.
    @example(mu=50.0, x=math.nextafter(130.0, 0.0))
    @example(mu=50.0, x=130.0)
    @example(mu=1.0, x=math.nextafter(32.0, 0.0))
    @example(mu=1.0, x=32.0)
    @example(mu=0.25, x=30.5)
    @example(mu=2e-16, x=30.0)
    def test_ratio(self, mu, x):
        ratio = _mp_ratio(mu, x)
        assert abs(bessel_ratio(mu, x) - ratio) <= 4e-15 * ratio

    @pytest.mark.parametrize("mu", [1e-16, 0.5, 1.0, 10.0, 30.0, 50.0])
    def test_largest_arguments(self, mu):
        # r = 1 - (2 mu - 1) / (2x) + O(1/x^2) rounds to 1 here.  The
        # large-argument quotient gave 1.0 at 1e300 and 1e307 as well, and
        # raised ZeroDivisionError at the largest double, where
        # sqrt(2 pi x) overflowed.
        for x in (1e300, 1e307, sys.float_info.max):
            assert bessel_ratio(mu, x) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(mu=_floats_log_and_flat(1e-300, 50.0), u=st.floats(min_value=0.0, max_value=1.0))
    @example(mu=50.0, u=0.0)
    @example(mu=1e-300, u=0.0)
    def test_perron_levels(self, mu, u):
        # From its crossover to 1e8 Perron's fraction takes at most 20
        # levels (19 at most in random draws, at the crossover).
        lo = _series_crossover(mu)
        x = min(lo * (1e8 / lo) ** u, 1e8)
        with mock.patch.object(bessel_module, "CF_MAX_ITER", 20):
            _ratio_perron(mu, x)


class TestSharedKernel:
    """The density's one-call kernel _point against bessel_ratio, log_bessel_i and mpmath."""

    @settings(max_examples=150, deadline=None)
    @given(mu=_floats_log_and_flat(1e-20, 50.0), u=st.floats(min_value=0.0, max_value=1.0))
    @example(mu=5e-17, u=0.0)
    @example(mu=0.25, u=0.0)
    @example(mu=50.0, u=1.0)
    @example(mu=1.5, u=0.0)  # log I_{1/2}, the closed form
    def test_asymptotic_band_is_bit_identical(self, mu, u):
        # x runs log-uniformly over four decades from where both orders are
        # above their series crossovers.  Both logs are the uniform
        # expansion, bit-identical to log_bessel_i of each order wherever
        # that order is a double above -1, and within a few ulp of mpmath
        # (2 at most in 800 random draws); r is Perron's, as in bessel_ratio.
        x = max(_series_crossover(mu - 1.0), _series_crossover(mu)) * 1e4 ** u
        r, log_i_lower, log_i = _point(mu, x)
        assert r == bessel_ratio(mu, x)
        assert log_i == log_bessel_i(mu, x)
        if mu - 1.0 > -1.0:
            assert log_i_lower == log_bessel_i(mu - 1.0, x)
        for got, shift in ((log_i_lower, 1), (log_i, 0)):
            assert abs(got - _mp_log_i(mu, x, shift)) <= 4.0 * math.ulp(x)

    def test_largest_and_infinite_arguments(self):
        x = sys.float_info.max
        for mu in (1e-16, 0.5, 1.0, 50.0):
            r, log_i_lower, log_i = _point(mu, x)
            assert r == 1.0 and math.isfinite(log_i_lower) and math.isfinite(log_i)
            with pytest.raises(DomainError, match="finite and > 0"):
                _point(mu, math.inf)
            # the ratio's limit, not a refusal
            assert bessel_ratio(mu, math.inf) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(mu=_floats_log_and_flat(1e-20, 50.0), u=st.floats(min_value=0.0, max_value=1.0))
    @example(mu=5e-17, u=0.5)
    @example(mu=0.25, u=0.995)
    @example(mu=1.5, u=0.5)  # log I_{1/2}, the closed form
    def test_series_band_matches_the_single_kernels(self, mu, u):
        # x runs log-uniformly over [1e-300, 30 + 2|mu - 1|), the series band.
        x = 1e-300 ** (1.0 - u) * _series_crossover(mu - 1.0) ** u
        if x >= _series_crossover(mu - 1.0):
            return
        r, log_i_lower, log_i = _point(mu, x)
        assert r == bessel_ratio(mu, x)
        if x < _series_crossover(mu):
            assert log_i == log_bessel_i(mu, x)
        else:
            # mu < 1/2 and 30 + 2 mu <= x: the series against the uniform expansion
            assert abs(log_i - log_bessel_i(mu, x)) <= 4.0 * math.ulp(abs(log_i))
        if mu >= 0.5:
            assert log_i_lower == log_bessel_i(mu - 1.0, x)
            return
        # log I_mu - log r.  Where mu - 1 is exact, within a few ulp of the
        # terms of log_bessel_i's sum (7 at most in 77696 random draws);
        # elsewhere log_bessel_i is handed the rounded order (or -1, outside
        # its domain), so only mpmath is a fair reference.
        assert hybrid_close(log_i_lower, _mp_log_i(mu, x, 1), 4e-14)
        if (mu - 1.0) + 1.0 == mu:
            terms = max(abs(log_i_lower), abs((mu - 1.0) * math.log(0.5 * x)), abs(math.lgamma(mu)), 1.0)
            assert abs(log_i_lower - log_bessel_i(mu - 1.0, x)) <= 16.0 * math.ulp(terms)

    @settings(max_examples=150, deadline=None)
    @given(mu=_floats_log_and_flat(0.5, 50.0).filter(lambda m: m > 0.5),
           u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(mu=math.nextafter(0.5, 1.0), u=0.0)
    @example(mu=0.75, u=0.5)
    @example(mu=1.0, u=0.0)
    @example(mu=1.5, u=0.5)  # log I_{1/2}, the closed form
    @example(mu=50.0, u=0.999)
    def test_band_between_the_crossovers_is_bit_identical(self, mu, u):
        # For mu > 1/2 and 30 + 2|mu - 1| <= x < 30 + 2 mu, Gauss's
        # fraction, the uniform expansion at the order mu - 1 and the series
        # of I_mu, each as the single kernel gives it.
        lo, hi = _series_crossover(mu - 1.0), _series_crossover(mu)
        x = min(lo + u * (hi - lo), math.nextafter(hi, 0.0))
        if not lo <= x < hi:
            return
        assert _point(mu, x) == (bessel_ratio(mu, x), log_bessel_i(mu - 1.0, x), log_bessel_i(mu, x))

    def test_series_band_no_farther_from_mpmath(self):
        # A fixed draw of both logs over the series band, where the single
        # kernels can answer: the shared values are no farther from 40-digit
        # mpmath, in total and at worst.
        rng = np.random.default_rng(23)
        shared_err, single_err = [], []
        for _ in range(150):
            mu = float(rng.choice([rng.uniform(0.0, 50.0), 10.0 ** rng.uniform(-15.0, 1.7)]))
            hi = _series_crossover(mu - 1.0)
            x = float(rng.choice([rng.uniform(0.0, hi), 10.0 ** rng.uniform(-300.0, math.log10(hi))]))
            if not (0.0 < mu <= 50.0 and 0.0 < x < hi):
                continue
            _, log_i_lower, log_i = _point(mu, x)
            for got, shift in ((log_i_lower, 1), (log_i, 0)):
                ref = _mp_log_i(mu, x, shift)
                scale = max(1.0, abs(ref))
                shared_err.append(abs(got - ref) / scale)
                single_err.append(abs(log_bessel_i(mu - shift, x) - ref) / scale)
        assert len(shared_err) > 200
        assert sum(shared_err) <= sum(single_err)
        assert max(shared_err) <= max(single_err)
        assert max(shared_err) < 2e-14


def _half_order_errors(x, values):
    """Errors of (r, log I_{-1/2}, log I_{1/2}) at x against 40-digit mpmath, in eps.

    Relative for r; for the logs, relative to the larger of 1 and the log's magnitude.
    """
    with mpmath.workdps(40):
        mx = mpmath.mpf(x)
        refs = (mpmath.tanh(mx), mpmath.log(mpmath.besseli(-0.5, mx)),
                mpmath.log(mpmath.besseli(0.5, mx)))
        scales = (refs[0], max(abs(refs[1]), 1), max(abs(refs[2]), 1))
        return [float(abs(mpmath.mpf(v) - ref) / scale) / sys.float_info.epsilon
                for v, ref, scale in zip(values, refs, scales)]


class TestHalfOrder:
    """mu = 1/2: tanh x, log I_{-1/2} = log cosh x + ... and log I_{1/2} in closed form."""

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e))
    # Both sides of the switch to the log1p form of log sinh.
    @example(x=HALF_ORDER_LOG1P_MIN_X)
    @example(x=math.nextafter(HALF_ORDER_LOG1P_MIN_X, 0.0))
    # Where the general bands meet at mu = 1/2.
    @example(x=SERIES_RATIO_MAX_X)
    @example(x=_series_crossover(0.5))
    def test_entry_points_agree_within_two_eps(self, x):
        values = _point(0.5, x)
        assert values == (bessel_ratio(0.5, x), log_bessel_i(-0.5, x), log_bessel_i(0.5, x))
        assert max(_half_order_errors(x, values)) <= 2.0

    @pytest.mark.parametrize("x", [math.nan, 0.0, -0.0, -1.0, -math.inf])
    def test_domain_errors(self, x):
        for call in (_point, bessel_ratio, log_bessel_i, lambda _, y: log_bessel_i(-0.5, y)):
            with pytest.raises(DomainError):
                call(0.5, x)

    def test_infinite_argument(self):
        # The ratio's limit, as at every order; the logs refuse it.
        assert bessel_ratio(0.5, math.inf) == 1.0
        for mu in (-0.5, 0.5):
            with pytest.raises(DomainError, match="finite"):
                log_bessel_i(mu, math.inf)

    def test_log1p_threshold(self, monkeypatch):
        # log sinh x takes log1p(-e), e = e^{-2x}, from where e <= 1/2 (as
        # rounded), and sinh below.  Both forms are needed: the log1p form
        # alone loses digits to 1 - e for small x, and sinh alone overflows
        # above x ~ 710.  Each form is within 2 eps on its side.
        t0 = HALF_ORDER_LOG1P_MIN_X
        assert math.exp(-2.0 * t0) == 0.5 < math.exp(-2.0 * math.nextafter(t0, 0.0))
        below = [float(x) for x in np.geomspace(1e-3, t0, 60, endpoint=False)]
        above = [float(x) for x in np.geomspace(t0, 20.0, 60)]
        for x in below + above:
            assert max(_half_order_errors(x, _half_order(x))) <= 2.0
        monkeypatch.setattr(bessel_module, "HALF_ORDER_LOG1P_MIN_X", 0.0)
        assert max(_half_order_errors(x, _half_order(x))[2] for x in below) > 2.0
        monkeypatch.setattr(bessel_module, "HALF_ORDER_LOG1P_MIN_X", math.inf)
        with pytest.raises(OverflowError):
            _half_order(711.0)


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


def _mp_ratio_hyp(mu, x):
    """r_mu(x) = (x / (2 mu)) 0F1(; mu + 1; x^2/4) / 0F1(; mu; x^2/4) at 40 digits.

    The hypergeometric form stays finite at x = 1e-300 with mu = 5e-17, where
    the quotient of besseli values does not converge, and at x = 1e300.
    """
    with mpmath.workdps(40):
        m, mx = mpmath.mpf(mu), mpmath.mpf(x)
        z = mx * mx / 4
        return float(mx / (2 * m) * mpmath.hyp0f1(m + 1, z) / mpmath.hyp0f1(m, z))


class TestRatioContinuation:
    """The solvers' Riccati continuation of r from the last kernel point."""

    @settings(max_examples=150, deadline=None)
    @given(mu=_floats_log_and_flat(5e-17, 50.0), t0=_floats_log_and_flat(1e-300, 1e300),
           side=st.sampled_from((-1.0, 1.0)))
    # lam = 1e-300 and 1.6e-276 at nu = 3 (t0 = sqrt(lam (nu - 2))): a
    # Taylor step divided by t0^3 underflowed to a zero division there.
    @example(mu=1.5, t0=1e-150, side=1.0)
    @example(mu=1.5, t0=1.2649110640673517e-138, side=-1.0)
    # (2, 2 + 4.4e-16): the mode, 8.9e-16, and the clamped lower end, 1e-12.
    @example(mu=1.0, t0=4.2e-8, side=1.0)
    @example(mu=1.0, t0=1.4142135623730951e-6, side=-1.0)
    # The seams of the step's unit and of the kernel's bands.
    @example(mu=5e-17, t0=4096.0, side=-1.0)
    @example(mu=50.0, t0=4096.0, side=1.0)
    @example(mu=50.0, t0=130.0, side=1.0)
    def test_edge_of_the_radius_within_two_ulp(self, mu, t0, side):
        # At the farthest accepted point the continued r adds at most 2 ulp
        # to the kernel's own error at the anchor (1.0 ulp seen over 3000
        # random draws), against 40-digit mpmath and against bessel_ratio.
        # The reach is the step as rounded, which is the radius within half
        # an ulp of t, so the point is continued, not recomputed.
        nu = 2.0 * mu
        t = t0 + side * _CONTINUE_RADIUS * min(t0, _CONTINUE_UNIT)
        r0 = bessel_ratio(mu, t0)
        anchor = [t0, r0, abs(t - t0)]
        got, slope = _ratio_at(nu, t, anchor)
        assert anchor == [t0, r0, abs(t - t0)]
        assert slope == _ratio_slope(nu, t, got)
        anchor_err = abs(r0 - _mp_ratio_hyp(mu, t0))
        exact = _mp_ratio_hyp(mu, t)
        assert abs(got - exact) <= anchor_err + 2.0 * math.ulp(exact)
        kernel = bessel_ratio(mu, t)
        assert abs(got - kernel) <= anchor_err + abs(kernel - exact) + 2.0 * math.ulp(exact)

    @pytest.mark.parametrize("t0", [1e-150, 0.3, 2.0, 1e4, 1e8])
    def test_kernel_only_beyond_the_radius(self, monkeypatch, t0):
        # The anchor is always a kernel point: a continued point leaves it as
        # it is, so a walk of steps each inside the radius calls the kernel
        # again once it is farther than the radius from the anchor, and that
        # point replaces the anchor.  A solver closure continues the same way:
        # its value is built on the continued ratio.
        import ncx2shape.modes as modes_module

        calls = []

        def kernel(mu, t):
            calls.append(t)
            return bessel_ratio(mu, t)

        monkeypatch.setattr(density_module, "bessel_ratio", kernel)
        nu, lam = 3.0, 5.0
        reach = _CONTINUE_RADIUS * min(t0, _CONTINUE_UNIT)
        step = 0.6 * reach
        anchor = [math.nan, math.nan, 0.0]
        r0, slope = _ratio_at(nu, t0, anchor)
        assert calls == [t0] and anchor == [t0, r0, reach]
        assert slope == _ratio_slope(nu, t0, r0)
        t = t0 + step
        r, slope = _ratio_at(nu, t, anchor)
        assert calls == [t0] and anchor == [t0, r0, reach]
        assert slope == _ratio_slope(nu, t, r)
        far = t0 + 2.0 * step
        r_far = _ratio_at(nu, far, anchor)[0]
        assert calls == [t0, far]
        assert anchor == [far, r_far, _CONTINUE_RADIUS * min(far, _CONTINUE_UNIT)]

        calls.clear()
        h = modes_module._slope_in_t(nu, lam, 1.0)
        h(t0)
        assert h(t)[0] == t * r + (nu - 2.0) - t * (t / lam)
        assert calls == [t0]
        h(far)
        assert calls == [t0, far]


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
