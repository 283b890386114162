"""Mode location, antimode, bounds and diagnostic indicator tests.

Frozen references: interior mode and antimode roots solved independently
with mpmath.findroot on the closed-form slope at 40 digits.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncx2shape
import ncx2shape.density
import ncx2shape.modes
import ncx2shape.shape as shape_module
from ncx2shape import (
    DomainError,
    InternalConsistencyError,
    Params,
    antimode,
    classify,
    critical_lambda,
    inflection_point,
    interior_mode,
    log_density_d1,
    log_density_d2,
    mode_report,
)
from ncx2shape.oracle import GridSpec, grid_local_maxima

MODE_4_5 = 6.11352664605
MODE_1_5 = 2.60076895154
ANTIMODE_1_5 = 0.560671467083
EQ_LIMIT_AT_1 = math.tanh(math.sqrt(3.0)) - 2.0 / math.sqrt(3.0)  # -0.215402719038...


class TestInteriorMode:
    def test_central_mode(self):
        # lam = 0: l'(x) = -1/2 + (nu - 2)/(2x) vanishes at nu - 2 exactly.
        assert interior_mode(Params(nu=4, lam=0)) == 2.0

    def test_log_concave_case(self):
        m = interior_mode(Params(nu=4, lam=5))
        assert 6.0 < m <= 7.0
        assert abs(m - MODE_4_5) < 1e-8

    def test_bimodal_case(self):
        m = interior_mode(Params(nu=1, lam=5))
        assert 2.0 < m < 3.0
        assert abs(m - MODE_1_5) < 1e-8

    def test_absent_below_critical(self):
        # critical noncentrality at nu = 1 is 4.2166, so lam = 4 has no mode
        assert interior_mode(Params(nu=1, lam=4)) is None

    def test_absent_at_two_dof_boundary(self):
        assert interior_mode(Params(nu=2, lam=2)) is None
        assert interior_mode(Params(nu=2, lam=2.2)) is not None

    @pytest.mark.parametrize("nu,lam", [(4.0, 0.0), (4.0, 5.0), (2.0, 3.0),
                                        (2.5, 10.0), (1.0, 5.0), (0.5, 6.0), (8.0, 20.0)])
    def test_stationarity(self, nu, lam):
        p = Params(nu=nu, lam=lam)
        m = interior_mode(p)
        assert abs(log_density_d1(p, m)) <= 1e-8
        assert log_density_d2(p, m) < 0.0


class TestAntimode:
    def test_bimodal_case(self):
        p = Params(nu=1, lam=5)
        m = antimode(p)
        assert 0.0 < m <= 2.0  # upper bound lam + nu - 4
        assert abs(m - ANTIMODE_1_5) < 1e-8
        assert abs(log_density_d1(p, m)) <= 1e-8
        assert log_density_d2(p, m) > 0.0

    def test_absent_cases(self):
        assert antimode(Params(nu=1, lam=4)) is None
        assert antimode(Params(nu=3, lam=1)) is None
        assert antimode(Params(nu=1, lam=0)) is None

    @pytest.mark.parametrize("nu,lam", [(0.5, 6.0), (1.0, 5.0), (1.5, 4.0), (1.9, 3.2)])
    def test_ordering(self, nu, lam):
        p = Params(nu=nu, lam=lam)
        m_low = antimode(p)
        x_tilde = inflection_point(p)
        m_high = interior_mode(p)
        assert 0.0 < m_low < x_tilde < m_high
        assert m_low <= lam + nu - 4.0


def _bounds(p):
    rep = mode_report(p)
    return rep.bounds_lower, rep.bounds_upper


class TestModeBounds:
    def test_log_concave_bounds(self):
        assert _bounds(Params(nu=4, lam=5)) == (6.0, 7.0)

    def test_two_dof_bounds(self):
        lower, upper = _bounds(Params(nu=2, lam=3))
        assert lower == 1.0  # loose bound lam + nu - 4 beats (nu-2)(1+lam/nu) = 0
        assert upper == 3.0

    def test_bimodal_bounds(self):
        lower, upper = _bounds(Params(nu=1, lam=5))
        assert lower == 2.0
        assert upper == 3.0

    @pytest.mark.parametrize(
        "nu,lam,source",
        [
            (2.5, 10.0, "loose"),     # lam+nu-4 beats (nu-2)(1+lam/nu) for small nu-2
            (4.0, 0.0, "nu_ge_2"),    # (nu-2)(1+lam/nu) = nu-2 beats lam+nu-3 at lam = 0
            (4.0, 5.0, "nu_gt_3"),
            (1.0, 5.0, "bimodal"),
        ],
    )
    def test_bound_source(self, nu, lam, source):
        assert mode_report(Params(nu=nu, lam=lam)).bound_source == source


class TestModeReport:
    def test_bimodal_report(self):
        rep = mode_report(Params(nu=1, lam=5))
        assert rep.zero_is_mode
        assert 2.0 < rep.interior_mode < 3.0
        assert rep.antimode < rep.interior_mode
        assert rep.bounds_lower < rep.interior_mode < rep.bounds_upper

    def test_decreasing_report(self):
        rep = mode_report(Params(nu=1, lam=4))
        assert rep.zero_is_mode
        assert rep.interior_mode is None
        assert rep.antimode is None
        assert rep.bounds_lower is None and rep.bounds_upper is None
        assert rep.bound_source is None

    def test_log_concave_report(self):
        rep = mode_report(Params(nu=4, lam=5))
        assert not rep.zero_is_mode
        assert rep.antimode is None
        assert rep.interior_mode is not None

    def test_zero_mode_flag_at_two_dof(self):
        assert mode_report(Params(nu=2, lam=2)).zero_is_mode
        assert not mode_report(Params(nu=2, lam=2.5)).zero_is_mode

    def test_bimodal_report_solves_each_root_once(self, monkeypatch):
        # One solve in t serves the existence test and the inflection
        # point.  modes binds _bisect at import, so its mode and antimode
        # solves are not counted here.
        calls = []
        original = shape_module._bisect

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(shape_module, "_bisect", counted)
        shape_module._critical_lambda_cached.cache_clear()
        rep = mode_report(Params(nu=1, lam=5))
        assert rep.interior_mode is not None and rep.antimode is not None
        assert len(calls) == 1
        shape_module._critical_lambda_cached.cache_clear()
        classify(Params(nu=1, lam=5))
        calls.clear()
        mode_report(Params(nu=1, lam=5))
        assert calls == []

    @pytest.mark.parametrize("nu, lam, lookups", [(1, 5, 1), (1, 4, 1), (0.5, 30, 1), (1.999, 3, 1),
                                                  (2, 2, 0), (2, 5, 0), (4, 5, 0), (3, 0, 0)])
    def test_critical_lambda_lookups(self, nu, lam, lookups):
        # Below nu = 2 one lookup gives both the existence test and tau; at
        # and above it none is needed.
        info = shape_module._critical_lambda_cached.cache_info
        before = info()
        mode_report(Params(nu, lam))
        after = info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == lookups

    @pytest.mark.parametrize("nu, below, above", [
        # lam * (lam - 2), the squared t at the bracket end lam + nu - 3,
        # overflows from one ulp above sqrt(DBL_MAX).
        (1.0, math.sqrt(sys.float_info.max), math.nextafter(math.sqrt(sys.float_info.max), math.inf)),
        (1.0, 1e154, 1.4e154),
        (4.0, 1e154, 1e160),
    ])
    def test_lambda_overflow_limit(self, nu, below, above):
        # Beyond the limit t = sqrt(lam x) overflows at the bracket end: the
        # mode used to come out as inf and fail its bounds check.
        assert mode_report(Params(nu, below)).interior_mode > 0.99 * below
        with pytest.raises(DomainError, match=r"too large.*1\.341e\+154"):
            mode_report(Params(nu, above))

    def test_mode_outside_its_bounds_raises(self, monkeypatch):
        # A ratio 20% too large moves the mode of (4, 5) from 6.11 to 7.76,
        # above its upper bound 7.
        def inflated(mu, t):
            return 1.2 * ratio(mu, t)

        ratio = ncx2shape.density.bessel_ratio
        monkeypatch.setattr(ncx2shape.density, "bessel_ratio", inflated)
        with pytest.raises(InternalConsistencyError, match="outside its bounds"):
            mode_report(Params(nu=4, lam=5))

    def test_large_order_mode_matches_mpmath(self):
        # 40-digit mpmath root 1097.046299666416.  The ratio used to switch to
        # the large-argument expansion at t = 132, far below mu^2 / 2 = 1250,
        # and the slope built on it vanished at 1187.9.
        tol = 1e-10
        x = mode_report(Params(nu=100, lam=1000), tol).interior_mode
        assert abs(x - 1097.046299666416) <= 0.5 * tol * x
        assert _mp_slope(100, 1000, x - tol * x) > 0 > _mp_slope(100, 1000, x + tol * x)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tolerance_in_every_regime(self, tol):
        # The regime without an interior mode comes first: the check must
        # run before any solver work.
        for p in (Params(nu=1, lam=1), Params(nu=1, lam=5), Params(nu=4, lam=5)):
            with pytest.raises(DomainError):
                mode_report(p, tol=tol)

    def test_unreachable_tolerance_raises_quickly(self):
        # Run in a child process so that a solver which never stops fails
        # the test on its timeout instead of hanging the suite.
        code = (
            "import time\n"
            "from ncx2shape import ConvergenceError, Params, mode_report\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    mode_report(Params(nu=4, lam=5), tol=1e-20)\n"
            "except ConvergenceError:\n"
            "    print(time.perf_counter() - start)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ncx2shape.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 1.0


class TestMonotonicity:
    def test_log_concave_ladder(self):
        modes = [interior_mode(Params(nu=4.0, lam=lam)) for lam in (0.0, 1.0, 2.0, 4.0, 8.0)]
        assert abs(modes[0] - 2.0) < 1e-9
        assert all(a < b for a, b in zip(modes, modes[1:]))

    def test_bimodal_ladder(self):
        modes = [interior_mode(Params(nu=1.0, lam=lam)) for lam in (4.5, 5.0, 6.0, 10.0)]
        assert all(a < b for a, b in zip(modes, modes[1:]))

    def test_large_lambda_asymptote(self):
        # interior mode approaches lam + nu - 3 from the side set by nu
        gap_below = (1e4 + 4.0 - 3.0) - interior_mode(Params(nu=4, lam=1e4))
        assert -0.01 < gap_below < 0.0
        gap_above = (1e4 + 1.0 - 3.0) - interior_mode(Params(nu=1, lam=1e4))
        assert 0.0 < gap_above < 0.01


def _indicator(nu, lam):
    """The paper's mode bound indicator r_{nu/2}(t) - (lam - 1) / t, t = sqrt(lam z).

    It is (2z / t) l'(z) at z = lam + nu - 3, so it has the slope's sign there.
    """
    z = lam + nu - 3.0
    return 2.0 * z * log_density_d1(Params(nu, lam), z) / math.sqrt(lam * z)


class TestModeBoundIndicator:
    def test_above_three_dof(self):
        assert _indicator(4.0, 2.0) > 0.0

    def test_bimodal_regime(self):
        assert _indicator(1.0, 5.0) < 0.0

    def test_edge_limit_consistency(self):
        # just above the domain edge the indicator is close to its limit value
        nu = 0.5
        lam = (4.0 - nu) + 1e-6
        limit = _indicator(nu, 4.0 - nu)
        assert limit < 0.0
        assert abs(_indicator(nu, lam) - limit) < 1e-4

    def test_limit_scan(self):
        values = [_indicator(nu, 4.0 - nu) for nu in np.linspace(1e-6, 2.0 - 1e-6, 500)]
        assert max(values) < 0.0
        assert abs(_indicator(1.0, 3.0) - EQ_LIMIT_AT_1) < 1e-12


class TestExistenceConsistency:
    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(min_value=1e-6, max_value=8.0), lam=st.floats(min_value=0.0, max_value=50.0))
    @example(nu=2.0, lam=2.0)
    @example(nu=2.0, lam=math.nextafter(2.0, 0.0))
    # A known defect of the nu >= 2 lower-end clamp, not of the existence
    # rule: the mode exists, but 2x l'(x) rounds to 0 at the bracket's lower end.
    @example(nu=2.0, lam=math.nextafter(2.0, 3.0)).xfail(
        raises=InternalConsistencyError, reason="lower-end clamp at nu = 2")
    @example(nu=2.0, lam=0.0)
    def test_interior_mode_exactly_when_not_decreasing(self, nu, lam):
        p = Params(nu, lam)
        assert (mode_report(p).interior_mode is not None) == (not classify(p).decreasing)

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(min_value=1e-6, max_value=2.0, exclude_max=True), ulps=st.sampled_from([-1, 0, 1]))
    @example(nu=1.0, ulps=1)
    def test_interior_mode_one_ulp_from_critical(self, nu, ulps):
        lam = critical_lambda(nu).lambda_nu
        if ulps:
            lam = math.nextafter(lam, ulps * math.inf)
        p = Params(nu, lam)
        assert classify(p).decreasing == (ulps <= 0)
        assert (mode_report(p).interior_mode is not None) == (ulps > 0)

    """Interior-mode existence tracks the computed critical noncentrality.

    For some noncentralities the interior mode disappears and reappears as
    the degrees of freedom sweep upward; the assertions stay tied to the
    computed threshold rather than a hardcoded pattern.
    """

    @pytest.mark.parametrize("lam", [3.6, 4.4])
    def test_existence_matches_threshold(self, lam):
        for nu in (0.001, 0.25, 0.5, 1.75, 1.9, 3.0):
            expected = nu > 2.0 or (nu < 2.0 and lam > critical_lambda(nu).lambda_nu)
            assert (mode_report(Params(nu=nu, lam=lam)).interior_mode is not None) == expected

    def test_disappear_reappear_demonstration(self):
        # lam = 4.4 sits above the threshold at nu = 0.001, below it at
        # nu = 0.25 and above it again at nu = 1.9
        lam = 4.4
        pattern = [mode_report(Params(nu=nu, lam=lam)).interior_mode is not None
                   for nu in (0.001, 0.25, 1.9)]
        thresholds = [critical_lambda(nu).lambda_nu for nu in (0.001, 0.25, 1.9)]
        assert pattern == [lam > t for t in thresholds]
        # confirmed by the grid oracle on the series density
        for nu, expect in zip((0.001, 0.25, 1.9), pattern):
            found = grid_local_maxima(Params(nu=nu, lam=lam), GridSpec(1e-4, 30.0, 20000))
            assert (len(found.maxima) == 1) == expect


def _mp_slope(nu, lam, x):
    """l'(x) at 30 digits, at the double inputs, from mpmath's Bessel functions."""
    with mpmath.workdps(30):
        nu, lam, x = mpmath.mpf(nu), mpmath.mpf(lam), mpmath.mpf(x)
        central = -0.5 + (nu - 2) / (2 * x)
        if lam == 0:
            return central
        t = mpmath.sqrt(lam * x)
        return central + mpmath.sqrt(lam / x) / 2 * mpmath.besseli(nu / 2, t) / mpmath.besseli(nu / 2 - 1, t)


class TestRootsAgainstMpmath:
    @settings(max_examples=60, deadline=None)
    # nu starts at 1e-14: at ~1.6e-15 an antimode of lam ~ 9400 is already
    # wrong, because l' there is the difference of two terms of size 1/x.
    @given(nu=st.floats(min_value=1e-14, max_value=20.0), lam=st.floats(min_value=0.0, max_value=1e4))
    # lam x ~ 1e-219: the I_mu series used to underflow its first term and stall.
    @example(nu=6.0, lam=2.21351999881983e-219)
    # A mode of 4.4e-16: an absolute tolerance of 1e-10 used to miss it.
    @example(nu=2.0000000000000004, lam=1e-300)
    # 30-digit antimode 0.05697000912507920; the x-space solve was 2.2e-10 off.
    @example(nu=0.5, lam=30.0)
    def test_mode_and_antimode_within_tol(self, nu, lam):
        # The mpmath slope changes sign within tol * x of each root.  Below
        # nu ~ 1e-9, s + nu - 2 cancels in double precision (s = t r ~ 2), and
        # the antimode is only good to tol * max(1, x).
        tol = 1e-10
        rep = mode_report(Params(nu, lam), tol)
        for x, sign in ((rep.interior_mode, 1), (rep.antimode, -1)):
            if x is None:
                continue
            h = tol * x if nu >= 1e-8 else tol * max(1.0, x)
            left = max(x - h, 0.5 * x)
            assert sign * _mp_slope(nu, lam, left) > 0 > sign * _mp_slope(nu, lam, x + h)

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(min_value=1e-6, max_value=2.0 - 1e-6), u=st.floats(min_value=-6.0, max_value=4.0))
    def test_antimode_between_its_bounds(self, nu, u):
        # nu (2 - nu) / lam < antimode < tau^2 / lam, and the mpmath slope is
        # negative at the lower bound and positive at the upper one.
        lam = critical_lambda(nu).lambda_nu * (1.0 + 10.0**u)
        lower = nu * (2.0 - nu) / lam
        upper = critical_lambda(nu).tau ** 2 / lam
        assert lower < antimode(Params(nu, lam)) < upper
        assert _mp_slope(nu, lam, lower) < 0 < _mp_slope(nu, lam, upper)

    def test_antimode_at_tiny_nu(self):
        # The ratio's series never forms the order mu - 1, which would drop
        # the low bits of mu; the parent's 5.6547e-7 failed here.
        nu, lam = 1e-13, 5.0
        x = antimode(Params(nu, lam))
        assert _mp_slope(nu, lam, 0.5 * x) < 0 < _mp_slope(nu, lam, x + 1e-10)

    @pytest.mark.parametrize("nu, lam", [(1, 5), (0.5, 30), (1.5, 20), (4, 5), (10, 100), (50, 200),
                                         (100, 1000)])
    def test_printed_digits_match_mpmath(self, nu, lam):
        # The 12 digits the CLI prints are the rounded 40-digit root.
        rep = mode_report(Params(nu, lam), 1e-10)
        roots = [x for x in (rep.interior_mode, rep.antimode) if x is not None]
        assert len(roots) == (2 if nu < 2 else 1)
        for x in roots:
            with mpmath.workdps(40):
                root = _mp_root(nu, lam, x)
                assert abs(mpmath.mpf(x) - root) <= 1e-12 * root
                assert f"{x:.12g}" == f"{float(mpmath.nstr(root, 12)):.12g}"

    def test_cold_bimodal_report_ratio_calls(self, monkeypatch):
        # tau, the mode and the antimode of (1, 5) from a cold cache; plain
        # bisection made 101 ratio calls here.
        rep, calls = _cold_ratio_calls(monkeypatch, Params(nu=1, lam=5))
        assert rep.interior_mode is not None and rep.antimode is not None
        assert calls <= 6

    def test_cold_log_concave_report_ratio_calls(self, monkeypatch):
        # The mode of (4, 5); its padded bracket ends are not evaluated.  The
        # start and two Halley steps call the kernel (the last step moves
        # 2.1e-5 relative, beyond the continuation radius); the closing pair
        # continues the last one's ratio.
        rep, calls = _cold_ratio_calls(monkeypatch, Params(nu=4, lam=5))
        assert rep.interior_mode is not None
        assert calls <= 3

    def test_classify_and_report_ratio_call_count(self, monkeypatch):
        # Pinned Bessel ratio count of classify + mode_report over a fixed
        # list, from cold caches: one tau solve per distinct nu < 2 (the
        # second (1, 5) reuses it) and the mode and antimode solves, whose
        # points near the last kernel point continue its ratio.  No lower end
        # is checked: at nu = 2 and 2 + 1e-7 the bracket starts at the padded
        # lam + nu - 4.
        calls = _count_ratio_calls(monkeypatch)
        for nu, lam in CALL_COUNT_CASES:
            p = Params(nu, lam)
            classify(p)
            mode_report(p)
        assert len(calls) == 32

    def test_evaluations_per_root(self, monkeypatch):
        # Mean evaluations of f per root over a fixed list, caches cold: tau
        # at tol 1e-8 from its stored fit, then the modes and the antimode at
        # 1e-10.  Starting tau within 15% and the antimode at its bracket's
        # midpoint took 4.0 and 4.6528 here.
        draws = _evaluation_draws()
        evals = {"tau": [], "mode_sub_two": [], "antimode": [], "mode_above_two": []}
        solve = shape_module._bisect
        order = []

        def counted(*args):
            root, n = solve(*args)
            order.append(n)
            return root, n

        monkeypatch.setattr(shape_module, "_bisect", counted)
        monkeypatch.setattr(ncx2shape.modes, "_bisect", counted)
        shape_module._critical_lambda_cached.cache_clear()
        for nu, lam in draws:
            order.clear()
            mode_report(Params(nu, lam))
            if nu < 2.0:
                tau, mode, anti = order
                evals["tau"].append(tau)
                evals["mode_sub_two"].append(mode)
                evals["antimode"].append(anti)
            else:
                evals["mode_above_two"].append(*order)
        shape_module._critical_lambda_cached.cache_clear()
        means = {k: round(sum(v) / len(v), 4) for k, v in evals.items()}
        assert len(draws) == 120
        assert means == {"tau": 2.0, "mode_sub_two": 4.0, "antimode": 3.6667, "mode_above_two": 3.4583}

    @pytest.mark.parametrize("nu, lam", [(4, 5), (2.5, 0.1), (3, 1e-3), (10, 100), (60, 500),
                                         (100, 1000), (2.001, 7)])
    def test_log_concave_solve_evaluates_no_padded_end(self, monkeypatch, nu, lam):
        # The padded bounds are theorems: h is never evaluated at either end,
        # at a kernel point or a continued one.
        seen = []
        ratio_at = ncx2shape.modes._ratio_at

        def recorded(nu, t, anchor):
            seen.append(t)
            return ratio_at(nu, t, anchor)

        monkeypatch.setattr(ncx2shape.modes, "_ratio_at", recorded)
        rep = mode_report(Params(nu, lam))
        concave = (nu - 2.0) * (1.0 + lam / nu)
        upper = rep.bounds_upper
        ends = (math.sqrt(lam * (concave - 1e-6 * max(1.0, concave))),
                math.sqrt(lam * (upper + 1e-6 * max(1.0, upper))))
        assert seen
        assert all(ends[0] < t < ends[1] for t in seen)

    @pytest.mark.parametrize("nu, lam", [(3.0, 1.6e-276), (3.0, 1e-300), (2.5, 1e-250)])
    def test_continued_ratio_at_tiny_lam(self, nu, lam):
        # t ~ 1e-138 and below: a continuation divided by t^3 raised
        # ZeroDivisionError here.
        tol = 1e-10
        x = mode_report(Params(nu, lam), tol).interior_mode
        assert _mp_slope(nu, lam, x - tol * x) > 0 > _mp_slope(nu, lam, x + tol * x)

    def test_nu_two_start_against_mpmath(self):
        # The reversed series start at nu = 2 is within 4.1e-5 of the mode on
        # lam in (2, 4]; the midpoint of the bounds, lam - 1, is 4.7x the mode
        # at lam = 2.1.
        for lam in (2.0 + 1e-9, 2.001, 2.1, 2.5, 3.0, 3.5, 4.0):
            e = lam - 2.0
            start = 4.0 * e * ncx2shape.modes._horner(ncx2shape.modes._NU_TWO_Y, e) / lam
            with mpmath.workdps(40):
                root = _mp_root(2.0, lam, start)
            assert abs(start - root) <= 4.1e-5 * root

    def test_nu_two_mode_evaluations(self, monkeypatch):
        # Each nu = 2 mode on lam in (2, 4] takes at most 3 evaluations of h
        # (5.19 on average on the modes-sweep draws from the midpoint start),
        # no end is evaluated above lam = 2 + 1e-6, and each root is within
        # tol of mpmath's.
        solve = shape_module._bisect
        evals = []

        def counted(*args):
            root, n = solve(*args)
            evals.append(n)
            return root, n

        monkeypatch.setattr(ncx2shape.modes, "_bisect", counted)
        calls = _count_ratio_calls(monkeypatch)
        tol = 1e-10
        lams = [2.0 + 2.0 * (k + 0.5) / 40 for k in range(40)]
        for lam in lams:
            x = mode_report(Params(2.0, lam), tol).interior_mode
            assert _mp_slope(2.0, lam, x - tol * x) > 0 > _mp_slope(2.0, lam, x + tol * x)
        assert max(evals) == 3
        assert sum(evals) / len(evals) == 2.85
        assert len(calls) <= sum(evals)

    def test_corner_just_above_two_still_raises(self):
        # At (2, 2 + 4.4e-16) the mode, 8.9e-16, is the size of the rounding
        # of h; the lower-end check raises rather than return a wrong root.
        with pytest.raises(InternalConsistencyError, match="outside its bounds"):
            mode_report(Params(2.0, 2.0000000000000004))


def _evaluation_draws():
    """A fixed list of (nu, lam), mixed like the modes-sweep benchmark.

    Per block of ten: six bimodal sub-two draws (nu on [0.02, 1.98], four with
    lam on [0.5, 8] and two log-uniform on [8, 1e4]; a draw below lambda_nu
    is moved above it) and four with nu on (2, 100], lam log-uniform on [1e-2, 1e4].
    """
    rng = random.Random(31)
    out = []
    for _ in range(12):
        for k in range(6):
            nu = 0.02 + 1.96 * rng.random()
            lam = 0.5 + 7.5 * rng.random() if k < 4 else 8.0 * 1250.0 ** rng.random()
            out.append((nu, max(lam, critical_lambda(nu).lambda_nu + 0.5)))
        for _ in range(4):
            out.append((2.0 + 98.0 * rng.random(), 1e-2 * 1e6 ** rng.random()))
    return out


CALL_COUNT_CASES = [(1, 5), (4, 5), (0.5, 30), (1.5, 2), (2, 2), (2, 5), (2.0000001, 5), (3, 0),
                    (10, 100), (50, 200), (1, 5), (0.3, 7)]


def _mp_root(nu, lam, x):
    """The zero of l' next to x, at the working precision."""
    nu, lam = mpmath.mpf(nu), mpmath.mpf(lam)

    def slope(y):
        t = mpmath.sqrt(lam * y)
        ratio = mpmath.besseli(nu / 2, t) / mpmath.besseli(nu / 2 - 1, t)
        return -0.5 + (nu - 2) / (2 * y) + mpmath.sqrt(lam / y) / 2 * ratio

    return mpmath.findroot(slope, mpmath.mpf(x))


def _count_ratio_calls(monkeypatch):
    """Clear the caches and record every Bessel ratio argument in the returned list."""
    calls = []
    ncx2shape.density._bessel_memo.cache_clear()
    for module in (ncx2shape.density, shape_module):
        original = module.bessel_ratio

        def counted(mu, x, original=original):
            calls.append(x)
            return original(mu, x)

        monkeypatch.setattr(module, "bessel_ratio", counted)
    shape_module._critical_lambda_cached.cache_clear()
    return calls


def _cold_ratio_calls(monkeypatch, p):
    """One mode_report from cold caches, and its Bessel ratio call count."""
    calls = _count_ratio_calls(monkeypatch)
    rep = mode_report(p)
    return rep, len(calls)
