"""Critical noncentrality and shape classification tests.

Twelve-digit reference roots were computed independently (mpmath bisection
on the indicator at 50 digits, cross-checked with scipy.brentq on
scipy.special.ive ratios) and are frozen below, together with twenty-digit
mpmath roots taken at 50 digits at the double nu.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ncx2shape.modes as modes_module
import ncx2shape.shape as shape_module
from ncx2shape import (
    DomainError,
    Params,
    antimode,
    bessel_ratio,
    classify,
    critical_lambda,
    criticality_indicator,
    inflection_point,
    interior_mode,
    log_density_d2,
    log_density_d3,
    mode_report,
)
from ncx2shape.modes import _slope_in_t, _t_inf
from ncx2shape.shape import _bisect, _critical_lambda_cached, _tau_start

# nu -> independently computed critical noncentrality
REFERENCE_ROOTS = {
    0.25: 4.7688408496,
    0.5: 4.66138466842,
    0.75: 4.46663404684,
    1.0: 4.2165617749,
    1.25: 3.91443028552,
    1.5: 3.54782582371,
    1.75: 3.07287093683,
}
# nu -> mpmath root of the indicator at 50 digits, at the double nu
MPMATH_ROOTS = {
    0.25: 4.7688408495999250174,
    0.5: 4.6613846684201665875,
    0.75: 4.4666340468416344609,
    1.0: 4.2165617748982943825,
    1.25: 3.9144302855186483228,
    1.5: 3.5478258237071693399,
    1.75: 3.0728709368261620671,
}
ROOT_NEAR_ZERO_DOF = 4.02276269755   # nu = 1e-6
ROOT_NEAR_TWO_DOF = 2.00200033326    # nu = 2 - 1e-6

# three-decimal published values reproduced by the solver
TABLE_ROOTS = {
    0.25: 4.769, 0.5: 4.661, 0.75: 4.467, 1.0: 4.217,
    1.25: 3.914, 1.5: 3.548, 1.75: 3.073,
}


def g_nu(nu, t):
    """x^2 l''(x) as a function of t = sqrt(lam x)."""
    r = bessel_ratio(0.5 * nu, t)
    return (2.0 - nu) / 2.0 + t * t * (1.0 - r * r) / 4.0 - nu * t * r / 4.0


@functools.lru_cache(maxsize=None)
def _mp_lambda_nu(nu):
    """F at the 50-digit zero of g_nu, at the double nu."""
    with mpmath.workdps(50):
        nu_mp = mpmath.mpf(nu)

        def ratio(t):
            return mpmath.besseli(nu_mp / 2, t) / mpmath.besseli(nu_mp / 2 - 1, t)

        def g(t):
            r = ratio(t)
            return (2 - nu_mp) / 2 + t * t * (1 - r * r) / 4 - nu_mp * t * r / 4

        tau = mpmath.findroot(g, mpmath.mpf(critical_lambda(nu).tau))
        return float(tau * tau / (tau * ratio(tau) + nu_mp - 2))


def _mp_ratio(nu, t):
    return mpmath.besseli(nu / 2, t) / mpmath.besseli(nu / 2 - 1, t)


def _mp_tau(nu):
    """The 50-digit zero of g_nu, at the double nu, bracketed by tau's endpoint laws within 20%."""
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)

        def g(t):
            r = _mp_ratio(nu, t)
            return (2 - nu) / 2 + t * t * (1 - r * r) / 4 - nu * t * r / 4

        guess = 2 * min((12 * nu) ** (mpmath.mpf(1) / 6), (2 - nu) ** mpmath.mpf(0.25))
        return mpmath.findroot(g, (0.8 * guess, 1.2 * guess), solver="anderson")


def _mp_t_inf(nu):
    """The 50-digit root of t r_{nu/2}(t) = 2 - nu, at the double nu."""
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        guess = nu ** mpmath.mpf(0.25) * mpmath.sqrt(4 - 2 * nu)
        return mpmath.findroot(lambda t: t * _mp_ratio(nu, t) - (2 - nu), (0.5 * guess, 2 * guess),
                               solver="anderson")


def _mp_root_x(nu, lam, bracket):
    """The zero of l' in the x bracket, at the working precision."""
    nu, lam = mpmath.mpf(nu), mpmath.mpf(lam)

    def slope(y):
        t = mpmath.sqrt(lam * y)
        return -0.5 + (nu - 2) / (2 * y) + mpmath.sqrt(lam / y) / 2 * _mp_ratio(nu, t)

    return mpmath.findroot(slope, tuple(map(mpmath.mpf, bracket)), solver="anderson")


def big_f(nu, t):
    """Noncentrality at which t^2 / lam is a stationary point of the density."""
    return t * t / (t * bessel_ratio(0.5 * nu, t) + (nu - 2.0))


class TestCriticalityIndicator:
    def test_sign_flip_around_root(self):
        assert criticality_indicator(1.0, 4.0) < 0.0
        assert criticality_indicator(1.0, 5.0) > 0.0
        assert abs(criticality_indicator(1.0, 4.217)) < 5e-3

    def test_tail_scaling(self):
        # lam * indicator approaches 1/2
        lam = 1000.0
        assert abs(lam * criticality_indicator(1.0, lam) - 0.5) < 0.05

    def test_domain(self):
        with pytest.raises(DomainError):
            criticality_indicator(1.0, 3.0)  # at the radicand edge
        with pytest.raises(DomainError):
            criticality_indicator(2.0, 5.0)
        with pytest.raises(DomainError):
            criticality_indicator(-0.5, 5.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                criticality_indicator(1.0, lam)

    @pytest.mark.parametrize("lam", [1e155, 1e200, 1e308])
    def test_huge_noncentrality(self, lam):
        # The value is about 1 / (2 lam), a difference of two numbers within
        # rounding of 1.  lam (lam + nu - 4) overflows above lam ~ 1.34e154,
        # which made t infinite and the indicator 1.0.
        assert abs(criticality_indicator(1.0, lam)) <= 4.0 * math.ulp(1.0)


class TestCriticalLambda:
    @pytest.mark.parametrize("nu,ref", sorted(REFERENCE_ROOTS.items()))
    def test_reference_roots(self, nu, ref):
        res = critical_lambda(nu, tol=1e-10)
        assert abs(res.lambda_nu - ref) < 5e-9
        assert abs(res.lambda_nu - TABLE_ROOTS[nu]) < 5e-4

    @pytest.mark.parametrize("nu", sorted(REFERENCE_ROOTS))
    def test_root_sign_straddle(self, nu):
        res = critical_lambda(nu, tol=1e-8)
        eps = 10.0 * res.tol
        assert criticality_indicator(nu, res.lambda_nu - eps) < 0.0
        assert criticality_indicator(nu, res.lambda_nu + eps) > 0.0

    @pytest.mark.parametrize("nu", [0.1, 0.75, 1.5, 1.9])
    def test_single_sign_change_on_grid(self, nu):
        lams = (4.0 - nu) + np.linspace(0.01, 100.0, 2000)
        signs = [criticality_indicator(nu, float(l)) > 0.0 for l in lams]
        assert signs[0] is False and signs[-1] is True
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    @pytest.mark.parametrize("nu", [0.25, 1.0, 1.75])
    def test_slope_at_root(self, nu):
        root = critical_lambda(nu, tol=1e-12).lambda_nu
        analytic = math.sqrt(root + nu - 4.0) / root ** 1.5
        h = 1e-5 * root
        fd = (criticality_indicator(nu, root + h) - criticality_indicator(nu, root - h)) / (2.0 * h)
        assert abs(fd - analytic) <= 1e-4 * max(1.0, abs(fd), abs(analytic))

    def test_near_zero_dof(self):
        res = critical_lambda(1e-6)
        assert abs(res.lambda_nu - ROOT_NEAR_ZERO_DOF) < 1e-6

    def test_near_two_dof(self):
        res = critical_lambda(2.0 - 1e-6)
        assert abs(res.lambda_nu - ROOT_NEAR_TWO_DOF) < 1e-6

    def test_bounds_invariant(self):
        for nu in (1e-6, 0.3, 0.9, 1.4, 1.97, 2.0 - 1e-6):
            root = critical_lambda(nu).lambda_nu
            assert root > 2.0
            assert root > 4.0 - nu

    def test_tau_bracket_upper_end(self):
        # The tau solve brackets on [0, 2 sqrt 3].  tau_nu peaks at 2.339 near
        # nu = 0.635, and g_nu(2 sqrt 3) < 0 across (0, 2), ends included.
        nus = np.concatenate([np.geomspace(1e-16, 1e-2, 200), np.linspace(1e-2, 1.99, 400),
                              2.0 - np.geomspace(1e-2, 1e-12, 200)])
        assert max(g_nu(float(nu), shape_module._TAU_MAX) for nu in nus) < 0.0
        taus = [critical_lambda(float(nu)).tau for nu in np.linspace(0.6, 0.67, 15)]
        assert 2.33 < max(taus) < 2.34

    def test_tau_bracket_upper_end_bound(self):
        # The proof in _critical_lambda_cached that g_nu(2 sqrt 3) < 0: Amos'
        # lower bound on I_{v+1}/I_v for v = mu + 1 holds, and the bound on
        # g_nu it gives stays below -0.159 on [0, 2].
        t = shape_module._TAU_MAX
        with mpmath.workdps(30):
            for v in np.linspace(1.0, 2.0, 21):
                v = mpmath.mpf(float(v))
                assert t / (v + 0.5 + mpmath.sqrt(t * t + (v + 1.5) ** 2)) < \
                    mpmath.besseli(v + 1, t) / mpmath.besseli(v, t)

        def bound(nu):
            mu = 0.5 * nu
            low = t / (mu + 1.5 + np.sqrt(t * t + (mu + 2.5) ** 2))
            r_low = 1.0 / (2.0 * mu / t + 1.0 / (2.0 * (mu + 1.0) / t + low))
            return 4.0 - 0.5 * nu - 3.0 * r_low**2 - 0.5 * math.sqrt(3.0) * nu * r_low

        values = bound(np.linspace(0.0, 2.0, 200001))
        assert values.max() < -0.159
        assert np.all(np.diff(values) < 0.0)

    def test_tau_solve_evaluates_no_bracket_end(self, monkeypatch):
        # Both ends of [0, 2 sqrt 3] are theorems; the solve never evaluates
        # g_nu there, at a kernel point or a continued one.
        seen = []
        ratio_at = shape_module._ratio_at

        def recorded(nu, t, anchor):
            seen.append(t)
            return ratio_at(nu, t, anchor)

        monkeypatch.setattr(shape_module, "_ratio_at", recorded)
        _critical_lambda_cached.cache_clear()
        try:
            for nu in (1e-12, 1e-4, 0.25, 0.635, 1.0, 1.75, 2.0 - 1e-9):
                for tol in (1e-8, 1e-12):
                    critical_lambda(nu, tol)
        finally:
            _critical_lambda_cached.cache_clear()
        assert seen
        assert all(0.0 < t < shape_module._TAU_MAX for t in seen)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-14])
    def test_lambda_nu_matches_mpmath_at_every_tolerance(self, tol):
        # lambda_nu is F at the evaluated point nearest tau, within the stop
        # width of it; F is stationary there, so the README's 1e-12 holds
        # at every tol.  The reference is F at the 50-digit zero of g_nu.
        nus = np.concatenate([np.geomspace(1e-8, 0.1, 14), np.linspace(0.1, 1.9, 12)[1:-1],
                              2.0 - np.geomspace(0.1, 1e-8, 14)])
        for nu in map(float, nus):
            assert abs(critical_lambda(nu, tol).lambda_nu - _mp_lambda_nu(nu)) <= 1e-12, nu

    def test_metadata(self):
        res = critical_lambda(1.0, tol=1e-8)
        assert g_nu(1.0, res.tau * (1.0 - 1e-7)) > 0.0 > g_nu(1.0, res.tau * (1.0 + 1e-7))
        assert inflection_point(Params(1, 5)) == critical_lambda(1.0, 1e-10).tau ** 2 / 5
        assert res.iterations > 0
        assert res.tol == 1e-8

    @pytest.mark.parametrize("nu,ref", sorted(MPMATH_ROOTS.items()))
    def test_error_far_below_tolerance(self, nu, ref):
        # lambda_nu = F(tau) is stationary in tau: the error is second order.
        assert abs(critical_lambda(nu, tol=1e-8).lambda_nu - ref) <= 1e-12

    @pytest.mark.parametrize("nu", [0.25, 1.0, 1.75])
    def test_lambda_nu_is_minimum_of_f(self, nu):
        res = critical_lambda(nu, tol=1e-10)
        assert big_f(nu, res.tau * (1.0 - 1e-3)) > res.lambda_nu
        assert big_f(nu, res.tau * (1.0 + 1e-3)) > res.lambda_nu

    def test_cache_returns_identical_result(self):
        a = critical_lambda(0.77, tol=1e-9)
        b = critical_lambda(0.77, tol=1e-9)
        assert a is b

    def test_cache_is_bounded(self):
        assert _critical_lambda_cached.cache_info().maxsize is not None

    def test_thread_safety(self):
        def solve(nu):
            return critical_lambda(nu, tol=1e-9).lambda_nu

        nus = [0.33, 0.66, 0.99, 1.32, 1.65] * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(solve, nus))
        for nu, value in zip(nus, results):
            assert value == critical_lambda(nu, tol=1e-9).lambda_nu

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_lambda(2.0)
        with pytest.raises(DomainError):
            critical_lambda(0.0)
        with pytest.raises(DomainError):
            critical_lambda(1.0, tol=0.0)


class TestNuFloor:
    """Below ``NU_FLOOR`` every sub-two solver refuses; from it up, lambda_nu meets its tol."""

    FLOOR = shape_module.NU_FLOOR
    # Without the floor, 1e-300 returned lambda_nu = -4.2e-269 and classified
    # (1e-300, 3) as bimodal; 1e-50 and 1e-310 raised a bare ZeroDivisionError.
    BELOW = (math.nextafter(shape_module.NU_FLOOR, 0.0), 1e-17, 1e-20, 1e-50, 1e-300, 1e-310)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_lambda_nu_within_tol_from_the_floor(self, tol):
        # Relative: tol is relative throughout.  Between 1e-17 and 1e-16 the
        # error reaches 1.45 tol at tol 1e-10, so the floor is not lower.
        for nu in map(float, np.geomspace(self.FLOOR, 1e-8, 17)):
            ref = _mp_lambda_nu(nu)
            assert abs(critical_lambda(nu, tol).lambda_nu - ref) <= tol * ref, nu

    @pytest.mark.parametrize("nu", BELOW)
    def test_solvers_refuse_below_the_floor(self, nu):
        for solve in (lambda: critical_lambda(nu), lambda: critical_lambda(nu, 1e-10),
                      lambda: classify(Params(nu, 3.0)), lambda: classify(Params(nu, 0.0)),
                      lambda: mode_report(Params(nu, 3.0)), lambda: mode_report(Params(nu, 30.0)),
                      lambda: inflection_point(Params(nu, 3.0))):
            with pytest.raises(DomainError, match="below 1e-16"):
                solve()

    def test_at_the_floor_the_solvers_answer(self):
        nu = self.FLOOR
        assert 4.0 < critical_lambda(nu).lambda_nu < 4.0 + 2.0 * (12.0 * nu) ** (1.0 / 3.0)
        assert classify(Params(nu, 3.0)).decreasing
        rep = mode_report(Params(nu, 30.0))
        assert rep.antimode < rep.interior_mode


# nu over both pieces of each stored start: log-spaced towards 0 and towards
# 2 from 1e-12, evenly between, and both sides of the seam at nu = 1.
START_NUS = sorted(set(map(float, np.concatenate([
    np.geomspace(1e-12, 0.5, 18), np.linspace(0.05, 1.95, 20), 2.0 - np.geomspace(1e-12, 0.5, 18),
    [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]]))))


class TestStoredStarts:
    """The stored fits that start the tau and antimode solves.

    Each table is a polynomial in w, highest power first: the Chebyshev
    interpolant on w in [0, 1], one node per coefficient, of the 50-digit
    mpmath root over its normalising factor (mpmath.chebyfit), each
    coefficient rounded to double.  tau / (2 (12 nu)^(1/6) (2 - nu)^(1/4))
    takes degree 16 in w = nu^(1/3) below nu = 1 and in w = (2 - nu)^(1/2)
    from there; t_inf / (nu^(1/4) (2 - nu)^(1/2)) takes degree 12 in
    w = nu^(1/2) and degree 16 in w = (2 - nu)^(1/2).
    """

    PIECES = {
        "tau_low": (shape_module, "_TAU_LOW", _mp_tau, lambda w: w ** 3,
                    lambda nu: 2 * (12 * nu) ** (mpmath.mpf(1) / 6) * (2 - nu) ** mpmath.mpf(0.25)),
        "tau_high": (shape_module, "_TAU_HIGH", _mp_tau, lambda w: 2 - w ** 2,
                     lambda nu: 2 * (12 * nu) ** (mpmath.mpf(1) / 6) * (2 - nu) ** mpmath.mpf(0.25)),
        "t_inf_low": (modes_module, "_T_INF_LOW", _mp_t_inf, lambda w: w ** 2,
                      lambda nu: nu ** mpmath.mpf(0.25) * mpmath.sqrt(2 - nu)),
        "t_inf_high": (modes_module, "_T_INF_HIGH", _mp_t_inf, lambda w: 2 - w ** 2,
                       lambda nu: nu ** mpmath.mpf(0.25) * mpmath.sqrt(2 - nu)),
    }

    @pytest.mark.parametrize("piece", sorted(PIECES))
    def test_tables_are_the_chebyshev_interpolants(self, piece):
        module, name, root, nu_of, factor = self.PIECES[piece]
        table = getattr(module, name)
        with mpmath.workdps(50):
            poly = mpmath.chebyfit(lambda w: root(nu_of(w)) / factor(nu_of(w)), [0, 1], len(table))
        assert tuple(float(c) for c in poly) == table

    def test_tau_start_against_mpmath(self):
        # Within 5e-10 relative below nu = 1 and 4e-12 from there: a quarter
        # of the stop width at tol 1e-8, and from nu = 1 at 1e-10 too.
        assert len(START_NUS) >= 40
        for nu in START_NUS:
            ref = _mp_tau(nu)
            assert abs((_tau_start(nu) - ref) / ref) <= (5e-10 if nu < 1.0 else 4e-12), nu

    def test_t_inf_against_mpmath(self):
        for nu in START_NUS:
            ref = _mp_t_inf(nu)
            assert abs((_t_inf(nu) - ref) / ref) <= 1e-11, nu

    @pytest.mark.parametrize("nu", [0.05, 0.5, 1.0, 1.5, 1.95])
    def test_antimode_start_order(self, nu):
        # The quadratic in d drops terms of order d^3, and d ~ t_inf / lam: from
        # lam = 100 the start's relative error falls like lam^-3, to the
        # fit's 1e-11 by lam = 1e4.
        errors = []
        for lam in (100.0, 1000.0, 1e4):
            start = modes_module._antimode_start(nu, lam)
            with mpmath.workdps(40):
                x = start * start / lam
                root = mpmath.sqrt(lam * _mp_root_x(nu, lam, (x * (1 - 1e-4), x * (1 + 1e-4))))
            errors.append(float(abs(start - root) / root))
        assert errors[0] < 1e-6
        assert errors[1] < 2e-3 * errors[0]
        assert errors[2] < 2e-11


class TestClassify:
    def test_log_concave_only(self):
        rep = classify(Params(nu=3, lam=0))
        assert rep.log_concave and not rep.decreasing and not rep.bimodal
        assert not rep.convex_then_concave
        assert rep.critical_lambda is None

    def test_decreasing(self):
        rep = classify(Params(nu=1, lam=1))
        assert rep.decreasing and not rep.bimodal and not rep.log_concave
        assert rep.convex_then_concave
        assert abs(rep.critical_lambda - 4.217) < 5e-4

    def test_bimodal(self):
        rep = classify(Params(nu=1, lam=5))
        assert rep.bimodal and not rep.decreasing and not rep.log_concave

    def test_overlap_at_two_dof(self):
        rep = classify(Params(nu=2, lam=2))
        assert rep.decreasing and rep.log_concave and not rep.bimodal
        assert rep.critical_lambda == 2.0
        assert not rep.convex_then_concave

    def test_exactly_critical_is_decreasing(self):
        crit = critical_lambda(1.0).lambda_nu
        rep = classify(Params(nu=1, lam=crit))
        assert rep.decreasing and not rep.bimodal

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.9])
    def test_bimodal_monotone_in_lambda(self, nu):
        flags = [classify(Params(nu=nu, lam=lam)).bimodal for lam in np.linspace(0.0, 12.0, 40)]
        assert sorted(flags) == flags  # False..False True..True

    def test_rejects_bad_tolerance_in_every_regime(self):
        with pytest.raises(DomainError):
            classify(Params(4, 5), tol=-1.0)
        with pytest.raises(DomainError):
            classify(Params(2, 1), tol=float("nan"))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("nu,root", sorted(MPMATH_ROOTS.items()))
    def test_band_near_critical(self, nu, root, sign):
        p = Params(nu, root * (1.0 + sign * 1e-10))
        bimodal = sign > 0.0
        assert classify(p).bimodal == bimodal
        assert (mode_report(p).interior_mode is not None) == bimodal

    def test_exclusive_flags_below_two_dof(self):
        for nu in (0.3, 1.0, 1.8):
            for lam in (0.0, 2.0, 4.5, 9.0):
                rep = classify(Params(nu=nu, lam=lam))
                assert rep.decreasing != rep.bimodal


class TestInflectionPoint:
    def test_reference_value(self):
        # independent mpmath root of the second derivative
        assert abs(inflection_point(Params(nu=1, lam=5)) - 1.02594157537) < 1e-8

    def test_sign_straddle(self):
        p = Params(nu=1, lam=5)
        x = inflection_point(p)
        assert log_density_d2(p, x * (1.0 - 1e-7)) > 0.0
        assert log_density_d2(p, x * (1.0 + 1e-7)) < 0.0

    def test_between_antimode_and_mode(self):
        p = Params(nu=1, lam=5)
        assert antimode(p) < inflection_point(p) < interior_mode(p)

    @pytest.mark.parametrize("nu", [0.25, 1.0, 1.75])
    def test_scales_as_one_over_lambda(self, nu):
        scaled = [inflection_point(Params(nu, lam)) * lam for lam in (0.3, 5.0, 300.0)]
        for value in scaled[1:]:
            assert abs(value - scaled[0]) <= 1e-9 * scaled[0]

    @pytest.mark.parametrize("nu,lam,x", [(0.25, 5.0, 0.7), (1.0, 5.0, 1.02594157537),
                                          (1.0, 0.3, 40.0), (1.75, 300.0, 0.002)])
    def test_x2_d2_is_g_of_t(self, nu, lam, x):
        got = x * x * log_density_d2(Params(nu, lam), x)
        want = g_nu(nu, math.sqrt(lam * x))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_near_two_dof(self):
        p = Params(nu=1.999, lam=1)
        x = inflection_point(p)
        assert x > 0.0
        assert log_density_d3(p, x) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            inflection_point(Params(nu=3, lam=5))
        with pytest.raises(DomainError):
            inflection_point(Params(nu=1, lam=0))
        with pytest.raises(DomainError):
            inflection_point(Params(nu=1, lam=1e-310))  # tau^2 / lam overflows


def _plain_bisection(f, lo, hi, rtol):
    """Halving count of plain bisection on the same bracket and stop rule."""
    halvings = 0
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if f(mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid
        halvings += 1
    return 0.5 * (lo + hi), halvings


def _assert_certified_and_bounded(f, lo, hi, rtol, root, evals, seen):
    """The checks on one ``_bisect(f, lo, hi, rtol, ...)`` that evaluated ``seen`` (x, f(x))."""
    assert evals == len(seen)
    # The final bracket: the highest point with a positive value and the
    # lowest with a non-positive one; the answer lies inside it, within
    # half the stop width of either end.
    final_lo = max([lo] + [x for x, v in seen if v > 0.0])
    final_hi = min([hi] + [x for x, v in seen if not v > 0.0])
    assert final_lo < final_hi
    assert final_lo <= root <= final_hi
    width = rtol * final_hi
    assert final_hi - final_lo <= width
    assert max(root - final_lo, final_hi - root) <= 0.5 * width
    halvings = _plain_bisection(f, lo, hi, rtol)[1]
    assert evals <= 2 * halvings + 3


# Starts to solve from, given the bracket and the production start x.
STARTS = {
    "production": lambda lo, hi, x: x,
    "midpoint": lambda lo, hi, x: None,
    "nan": lambda lo, hi, x: math.nan,
    "lower_end": lambda lo, hi, x: lo,
    "upper_end": lambda lo, hi, x: hi,
    "outside": lambda lo, hi, x: hi + (hi - lo),
}


def _solves_from(start, p, tol):
    """mode_report(p, tol) from cold caches, every root solved from ``STARTS[start]``.

    Returns the report and, per solve (tau first), the production slope and
    bracket with what the solve returned and evaluated.
    """
    solves = []

    def bisect(f, lo, hi, rtol, x=None):
        seen = []

        def recorded(y):
            values = f(y)
            seen.append((y, values[0]))
            return values

        root, evals = _bisect(recorded, lo, hi, rtol, STARTS[start](lo, hi, x))
        solves.append((f, lo, hi, rtol, root, evals, seen))
        return root, evals

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shape_module, "_bisect", bisect)
        patch.setattr(modes_module, "_bisect", bisect)
        _critical_lambda_cached.cache_clear()
        try:
            return mode_report(p, tol), solves
        finally:
            _critical_lambda_cached.cache_clear()


def _g_and_slope(nu):
    """g_nu, its derivative in t and a second derivative of 0, so plain Newton steps, from one ratio."""
    def f(t):
        r = bessel_ratio(0.5 * nu, t)
        dr = 1.0 - (nu - 1.0) * r / t - r * r
        return (g_nu(nu, t), 0.5 * t * (1.0 - r * r) - 0.5 * t * t * r * dr - 0.25 * nu * (r + t * dr),
                0.0)
    return f


def _t(lam, x):
    return math.sqrt(lam * x)


# (function, lo, hi, rtol, start): the tau solve at three nu, the
# interior mode of (1, 5), and the mode of (60, 500) on a wide bracket.
# Each function returns (f, f', f'').  The tau problems pass f'' = 0, so
# their steps are Newton's.  The modes are solved in t = sqrt(lam x), on the
# solvers' one-ratio h(t) and Halley steps, over the x brackets
# [1.02, 3.000003] and [550, 2000] from 3 and 557.5.
ROOT_PROBLEMS = {
    "tau_0.1": (_g_and_slope(0.1), 0.0, 3.0, 1e-8, 2.0),
    "tau_1": (_g_and_slope(1.0), 0.0, 3.0, 1e-8, 2.0),
    "tau_1.9": (_g_and_slope(1.9), 0.0, 3.0, 1e-12, 1.1),
    "mode_1_5": (_slope_in_t(1.0, 5.0, 1.0), _t(5.0, 1.02), _t(5.0, 3.000003), 5e-11, _t(5.0, 3.0)),
    "mode_60_500": (_slope_in_t(60.0, 500.0, 1.0), _t(500.0, 550.0), _t(500.0, 2000.0), 5e-11,
                    _t(500.0, 557.5)),
}
DISTORTIONS = {
    "exact": lambda d: d,
    "sign_flipped": lambda d: -d,
    "zero": lambda d: 0.0,
    "nan": lambda d: math.nan,
    "times_1e3": lambda d: 1e3 * d,
    "over_1e3": lambda d: 1e-3 * d,
}


class TestRootFinder:
    @pytest.mark.parametrize("distortion", sorted(DISTORTIONS))
    @pytest.mark.parametrize("problem", sorted(ROOT_PROBLEMS))
    def test_bad_derivative_still_certified_and_bounded(self, problem, distortion):
        f, lo, hi, rtol, start = ROOT_PROBLEMS[problem]
        distort = DISTORTIONS[distortion]
        seen = []

        def recorded(x):
            value, slope, curve = f(x)
            seen.append((x, value))
            return value, distort(slope), curve

        root, evals = _bisect(recorded, lo, hi, rtol, start)
        _assert_certified_and_bounded(f, lo, hi, rtol, root, evals, seen)

    @pytest.mark.parametrize("problem", sorted(ROOT_PROBLEMS))
    def test_nan_derivative_is_plain_bisection(self, problem):
        f, lo, hi, rtol, _ = ROOT_PROBLEMS[problem]
        got = _bisect(lambda x: (f(x)[0], math.nan, 0.0), lo, hi, rtol)
        assert got == _plain_bisection(f, lo, hi, rtol)

    @pytest.mark.parametrize("problem", ["tau_0.1", "tau_1", "tau_1.9", "mode_1_5"])
    def test_exact_derivative_takes_few_steps(self, problem):
        f, lo, hi, rtol, start = ROOT_PROBLEMS[problem]
        assert _bisect(f, lo, hi, rtol, start)[1] <= 8

    def test_bracket_already_within_tolerance(self):
        # No evaluation, and the midpoint is the answer; a tol of 1 or more
        # used to raise UnboundLocalError here.
        assert _bisect(lambda x: 1 / 0, 1.0, 2.0, 1.0) == (1.5, 0)
        res = critical_lambda(1.0, 1.0)
        assert res.iterations == 0 and res.tau == 0.5 * shape_module._TAU_MAX
        assert res.lambda_nu > critical_lambda(1.0).lambda_nu

    @pytest.mark.parametrize("nu", [1e-4, 0.01, 0.25, 0.5, 1.0, 1.5, 1.9, 1.99, 2.0 - 1e-4])
    def test_tau_solve_step_counts(self, nu):
        # Plain bisection takes 27-29 halvings at 1e-8 and 34-36 at 1e-10.
        # From the stored start, within a quarter of the stop width at 1e-8,
        # the solve is the start and one point of the closing pair; at 1e-10
        # one Halley step comes first below nu = 1.
        assert critical_lambda(nu, 1e-8).iterations <= 2
        assert critical_lambda(nu, 1e-10).iterations <= 3

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(min_value=0.01, max_value=100.0), u=st.floats(min_value=-4.0, max_value=4.0))
    @example(nu=1.0, u=0.0)
    @example(nu=0.02, u=-4.0)
    @example(nu=1.98, u=4.0)
    @example(nu=50.0, u=-2.0)
    def test_start_is_only_a_start(self, nu, u):
        # Every root of mode_report (tau, the mode, the antimode), solved on
        # the production slope and bracket from the production start, the
        # midpoint, NaN, either end or a point outside the bracket, is
        # certified and bounded, and all agree within the stop width.  Below
        # nu = 2, lam = lambda_nu (1 + 10^u) is bimodal; above it lam = 10^u.
        assume(abs(nu - 2.0) > 1e-3)
        lam = critical_lambda(nu).lambda_nu * (1.0 + 10.0 ** u) if nu < 2.0 else 10.0 ** u
        tol = 1e-10
        runs = {start: _solves_from(start, Params(nu, lam), tol) for start in STARTS}
        reference = runs["production"][1]
        assert len(reference) == (3 if nu < 2.0 else 1)
        for report, solves in runs.values():
            assert len(solves) == len(reference)
            for (f, lo, hi, rtol, root, evals, seen), ref in zip(solves, reference):
                _assert_certified_and_bounded(f, lo, hi, rtol, root, evals, seen)
                assert abs(root - ref[4]) <= rtol * max(root, ref[4])
            for x, ref_x in ((report.interior_mode, runs["production"][0].interior_mode),
                             (report.antimode, runs["production"][0].antimode)):
                assert (x is None) == (ref_x is None)
                if x is not None:
                    assert abs(x - ref_x) <= tol * ref_x
