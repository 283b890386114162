"""Density and log-derivative tests.

High-precision references (mpmath, 40 digits) are frozen as constants, but
for the log-gamma checks, which compute theirs with mpmath at 40 digits.  The
series and Bessel routes are implemented independently, so their agreement
below is a genuine cross-check, not a tautology.
"""

import dataclasses
import inspect
import math
import pickle
import sys
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncx2shape import bessel as bessel_module
from ncx2shape import density as density_module
from ncx2shape import shape as shape_module
from ncx2shape import (
    DomainError,
    InternalConsistencyError,
    Params,
    classify,
    critical_lambda,
    density_bessel,
    inflection_point,
    log_density,
    log_density_d1,
    log_density_d2,
    log_density_d3,
    mode_report,
)
from ncx2shape.oracle import _mixture, density_series, finite_difference

# mpmath references
DENSITY_1_5_3 = 0.10147162035407797
DENSITY_3_1000_900 = 0.0016906109563535152

# (nu, lam, x, l', l'', l''') with t = sqrt(lam x) <= 30: mpmath.diff of the
# log density at 60 digits, with log I from mpmath.besseli, rounded to double.
DERIVATIVE_PINS = (
    (0.3, 0.7, 0.05, -16.389466355500023, 338.9351140909336, -13597.808140343655),
    (0.3, 5.0, 20.0, -0.2830901538015513, -0.004614042151191197, 0.0003066692843890955),
    (1.0, 5.0, 2.0, 0.03774145628250007, -0.06747196601669898, 0.012321967146587896),
    (1.0, 30.0, 25.0, 0.027722557505166112, -0.010154451150103322, 0.0005932670690061994),
    (1.7, 2.0, 0.3, -0.46171001585559285, 1.518422271227327, -11.003194082794725),
    (1.7, 12.0, 8.0, 0.07093252605289453, -0.033035499925242684, 0.005854879785244612),
    (3.0, 0.5, 4.0, -0.3010135430599391, -0.03321891716306633, 0.015778420684088097),
    (3.0, 40.0, 18.0, 0.2453559924999299, -0.020704333124998052, 0.0017253610937498377),
    (7.5, 10.0, 6.0, 0.3766859551350359, -0.09621152701664469, 0.028571770716255968),
    (7.5, 60.0, 2.0, 2.8915954395723937, -1.0352736161024139, 0.8827711312626015),
    (15.0, 1.0, 0.2, 32.033307226176014, -162.500130352916, 1625.0000018257404),
    (15.0, 25.0, 30.0, 0.06950761846452311, -0.011595864103970246, 0.0006571887012140616),
)

E_INV_HALF = math.exp(-1.0) / 2.0

NU_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 8.0)
LAM_GRID = (0.1, 1.0, 5.0, 20.0)
X_GRID = np.geomspace(1e-3, 200.0, 9)


def hybrid_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestParams:
    def test_valid(self):
        p = Params(nu=1, lam=0)
        assert p.nu == 1.0 and p.lam == 0.0

    @pytest.mark.parametrize("nu,lam", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1),
                                        (math.nan, 1.0), (1.0, math.inf)])
    def test_invalid(self, nu, lam):
        with pytest.raises(DomainError):
            Params(nu=nu, lam=lam)


class TestRecordContract:
    """The four answer records are frozen dataclasses with written-out __init__s.

    Each is built by the public call that returns it; the repr literals are
    the ones printed before the __init__s were written out.
    """

    RECORDS = {
        "Params": (
            lambda: Params(1, 5),
            "Params(nu=1.0, lam=5.0)",
        ),
        "ShapeReport": (
            lambda: classify(Params(1, 5)),
            "ShapeReport(params=Params(nu=1.0, lam=5.0), log_concave=False, decreasing=False, "
            "bimodal=True, convex_then_concave=True, critical_lambda=4.216561774898294)",
        ),
        "ModeReport-interior": (
            lambda: mode_report(Params(1, 5)),
            "ModeReport(params=Params(nu=1.0, lam=5.0), zero_is_mode=True, "
            "interior_mode=2.6007689515381256, antimode=0.5606714670833106, bounds_lower=2.0, "
            "bounds_upper=3.0, bound_source='bimodal')",
        ),
        "ModeReport-none": (
            lambda: mode_report(Params(1, 1)),
            "ModeReport(params=Params(nu=1.0, lam=1.0), zero_is_mode=True, interior_mode=None, "
            "antimode=None, bounds_lower=None, bounds_upper=None, bound_source=None)",
        ),
        "CriticalLambda": (
            lambda: critical_lambda(0.5),
            "CriticalLambda(nu=0.5, lambda_nu=4.661384668420166, tau=2.326727463093175, tol=1e-08)",
        ),
    }

    @pytest.mark.parametrize("name", list(RECORDS))
    def test_contract(self, name):
        build, pinned = self.RECORDS[name]
        obj = build()
        cls = type(obj)
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(inspect.signature(cls.__init__).parameters)[1:] == names
        for field in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, field)
        copy = dataclasses.replace(obj)
        assert copy == obj and hash(copy) == hash(obj)
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert repr(obj) == pinned
        assert obj == build()

    @pytest.mark.parametrize("nu,lam", [(1, 5), (np.float64(1.5), np.float64(2.0)), (2, 0)])
    def test_params_stores_floats(self, nu, lam):
        p = Params(nu, lam)
        assert type(p.nu) is float and type(p.lam) is float
        assert (p.nu, p.lam) == (float(nu), float(lam))

    BAD_PARAMS = (
        [(nu, 5, f"degrees of freedom must be finite and > 0, got {nu}") for nu in (0, -1, math.nan, math.inf)]
        + [(1, lam, f"noncentrality must be finite and >= 0, got {lam}") for lam in (-1, math.nan, math.inf)]
    )

    @pytest.mark.parametrize("nu,lam,message", BAD_PARAMS)
    def test_params_messages(self, nu, lam, message):
        with pytest.raises(DomainError) as built:
            Params(nu, lam)
        with pytest.raises(DomainError) as replaced:
            dataclasses.replace(Params(1, 5), nu=nu, lam=lam)
        assert str(built.value) == str(replaced.value) == message

    def test_params_accepts_negative_zero(self):
        assert Params(1, -0.0).lam == 0.0
        assert dataclasses.replace(Params(1, 5), lam=-0.0).lam == 0.0


class TestCentralDensity:
    """The Bessel route at lam = 0, which is the central density."""

    def test_two_dof(self):
        assert hybrid_close(density_bessel(Params(2.0, 0.0), 2.0), E_INV_HALF, 1e-14)

    def test_four_dof(self):
        # (x/2)^(nu/2-1) = 1 and Gamma(2) = 1, so the value matches the
        # two-dof case at this point; cross-checked against scipy.stats.chi2
        assert hybrid_close(density_bessel(Params(4.0, 0.0), 2.0), E_INV_HALF, 1e-14)

    def test_singular_small_x(self):
        # log-space route against the direct formula
        x = 0.01
        direct = math.exp(-x / 2.0) * (x / 2.0) ** (-0.5) / (2.0 * math.gamma(0.5))
        got = density_bessel(Params(1.0, 0.0), x)
        assert got > 1.0
        assert hybrid_close(got, direct, 1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            density_bessel(Params(1.0, 0.0), 0.0)
        with pytest.raises(DomainError):
            Params(0.0, 0.0)


class TestSeriesRoute:
    def test_zero_noncentrality_single_term(self):
        values, terms = _mixture(Params(nu=2, lam=0), [2.0], 1e-12)
        assert terms == 0
        assert hybrid_close(values[0], E_INV_HALF, 1e-14)

    def test_cross_form_agreement(self):
        p = Params(nu=1, lam=5)
        assert hybrid_close(density_series(p, 3.0), density_bessel(p, 3.0), 1e-12)
        assert hybrid_close(density_series(p, 3.0), DENSITY_1_5_3, 1e-12)

    def test_truncation_bound_tightens(self):
        p = Params(nu=1.5, lam=8)
        (loose,), k_loose = _mixture(p, [4.0], 1e-6)
        (tight,), k_tight = _mixture(p, [4.0], 1e-14)
        assert k_tight >= k_loose
        assert abs(loose - tight) < 1e-6

    def test_grid_matches_scalar(self):
        p = Params(nu=0.5, lam=3)
        xs = np.geomspace(1e-3, 60.0, 40)
        grid = _mixture(p, xs, 1e-13)[0]
        pointwise = np.array([density_series(p, float(x), tol=1e-13) for x in xs])
        assert np.allclose(grid, pointwise, rtol=1e-12, atol=0.0)

    def test_domain(self):
        p = Params(nu=1, lam=1)
        with pytest.raises(DomainError):
            density_series(p, 0.0)
        with pytest.raises(DomainError):
            density_series(p, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            _mixture(p, [1.0, -2.0], 1e-12)
        # An infinite x used to run the loop to its 200000-term cap (lam > 0)
        # or return 0 (nu < 2) or NaN (nu >= 2) at lam = 0.
        for p in (Params(nu=1, lam=1), Params(nu=1, lam=0), Params(nu=4, lam=0)):
            with pytest.raises(DomainError):
                density_series(p, math.inf)


def _mp_density(nu, lam, x):
    """The density at 40 digits: central closed form at lam = 0, the Bessel form above."""
    with mpmath.workdps(40):
        nu, lam, x = mpmath.mpf(nu), mpmath.mpf(lam), mpmath.mpf(x)
        if lam == 0:
            return x ** (nu / 2 - 1) * mpmath.exp(-x / 2) / (2 ** (nu / 2) * mpmath.gamma(nu / 2))
        return (mpmath.exp(-(x + lam) / 2) * (x / lam) ** (nu / 4 - mpmath.mpf(1) / 2)
                * mpmath.besseli(nu / 2 - 1, mpmath.sqrt(lam * x)) / 2)


class TestOneLogGamma:
    """Both routes take log Gamma(nu/2 + k) from math.lgamma, the package's only log-gamma."""

    # lgamma(nu/2) is 0 at nu = 2 and nu = 4.
    NUS = (1e-3, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 40.0)
    XS = tuple(map(float, np.geomspace(1e-3, 100.0, 21)))

    @pytest.mark.parametrize("nu", NUS)
    def test_central_routes_agree(self, nu):
        p = Params(nu, 0.0)
        for x in self.XS:
            series, closed = density_series(p, x), math.exp(log_density(p, x))
            assert abs(series - closed) <= 1e-15 * closed, x

    @pytest.mark.parametrize("nu", NUS)
    def test_central_routes_match_mpmath(self, nu):
        p = Params(nu, 0.0)
        for x in self.XS:
            ref = _mp_density(nu, 0.0, x)
            for got in (density_series(p, x), math.exp(log_density(p, x))):
                assert abs(got - ref) <= 1e-13 * ref, x

    @pytest.mark.parametrize("nu,lam,x", [(0.5, 3.0, 0.01), (1.0, 5.0, 3.0), (2.0, 1e-3, 1e-3),
                                          (3.0, 0.5, 2.0), (4.0, 20.0, 25.0), (7.0, 40.0, 60.0),
                                          (40.0, 10.0, 45.0)])
    def test_mixture_matches_mpmath(self, nu, lam, x):
        ref = _mp_density(nu, lam, x)
        assert abs(density_series(Params(nu, lam), x, 1e-14) - ref) <= 1e-13 * ref


class TestBesselRoute:
    def test_small_x_limit_two_dof(self):
        # exponent (nu-2)/4 vanishes at nu = 2 and I_0(0) = 1
        p = Params(nu=2, lam=2)
        assert hybrid_close(density_bessel(p, 1e-12), E_INV_HALF, 1e-6)

    def test_extreme_parameters_no_overflow(self):
        p = Params(nu=3, lam=1000)
        got = density_bessel(p, 900.0)
        assert math.isfinite(got)
        assert hybrid_close(got, DENSITY_3_1000_900, 1e-11)
        assert hybrid_close(got, density_series(p, 900.0, tol=1e-15), 1e-10)

    def test_zero_noncentrality_routes_central(self):
        p = Params(nu=4, lam=0)
        assert hybrid_close(density_bessel(p, 2.0), density_series(p, 2.0), 1e-14)

    def test_form_equivalence_grid(self):
        worst = 0.0
        for nu in NU_GRID:
            for lam in LAM_GRID:
                p = Params(nu=nu, lam=lam)
                for x in X_GRID:
                    a = density_series(p, float(x), tol=1e-13)
                    b = density_bessel(p, float(x))
                    worst = max(worst, abs(a - b) / max(1.0, a, b))
        assert worst <= 1e-10

    # The documented envelope, nu up to 100, with x anywhere in the bulk,
    # mean +- 8 sd (cut at 0).
    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e),
           lam=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
           u=st.floats(1e-9, 1.0))
    def test_form_equivalence_envelope(self, nu, lam, u):
        p = Params(nu=nu, lam=lam)
        mean, sd = p.nu + p.lam, math.sqrt(2.0 * (p.nu + 2.0 * p.lam))
        lo, hi = max(mean - 8.0 * sd, 0.0), mean + 8.0 * sd
        x = lo + u * (hi - lo)
        assert hybrid_close(density_series(p, x), density_bessel(p, x), 1e-12)


class TestLogDensityDerivatives:
    def test_central_mode_stationarity(self):
        # central density with nu dof peaks at nu - 2
        assert abs(log_density_d1(Params(nu=4, lam=0), 2.0)) < 1e-15

    def test_d1_tail_limit(self):
        p = Params(nu=1, lam=5)
        # the slope approaches -1/2 like sqrt(lam)/(2 sqrt(x)); at x = 1e6 the
        # remaining gap is 1.118e-3, just over a strict 1e-3 band
        assert abs(log_density_d1(p, 1e6) + 0.5) < 1.5e-3
        assert abs(log_density_d1(p, 1e10) + 0.5) < 1.5e-5

    def test_d2_small_x_scaling(self):
        p = Params(nu=1, lam=5)
        x = 1e-4
        assert abs(x * x * log_density_d2(p, x) - 0.5) < 1e-3

    def test_d2_tail_scaling(self):
        p = Params(nu=1, lam=5)
        x = 1e4
        assert abs(x ** 1.5 * log_density_d2(p, x) + math.sqrt(5.0) / 4.0) < 1e-2

    def test_d2_negative_in_log_concave_regime(self):
        assert log_density_d2(Params(nu=3, lam=2), 4.0) < 0.0

    def test_d2_central_reduction(self):
        p = Params(nu=4, lam=0)
        for x in (0.5, 2.0, 10.0):
            assert hybrid_close(log_density_d2(p, x), (2.0 - 4.0) / (2.0 * x * x), 1e-14)

    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_underflowing_power_of_x_raises_overflow(self, lam):
        # x^2 underflows to 0 at x = 1e-170, and x^3 at 1e-110: l'' and l'''
        # lie beyond double range there, which used to surface as a bare
        # ZeroDivisionError.
        p = Params(nu=1, lam=lam)
        with pytest.raises(OverflowError, match="l'' overflows"):
            log_density_d2(p, 1e-170)
        with pytest.raises(OverflowError, match="l'' overflows"):
            log_density_d3(p, 1e-170)
        with pytest.raises(OverflowError, match="l''' overflows"):
            log_density_d3(p, 1e-110)
        # At nu = 2, lam = 0 both vanish identically.
        assert log_density_d2(Params(nu=2, lam=0), 1e-170) == 0.0

    @pytest.mark.parametrize("f", [log_density, log_density_d1, log_density_d2, log_density_d3])
    def test_bessel_argument_limits(self, f):
        # t = sqrt(lam x) must be positive and finite.  lam * x overflows just
        # above the largest double, where a bare ZeroDivisionError used to
        # surface, and underflows to 0 below the smallest subnormal.
        big, tiny = Params(nu=2, lam=1e300), Params(nu=3, lam=1e-300)
        x_max = sys.float_info.max / big.lam
        assert big.lam * x_max < math.inf
        assert math.isfinite(f(big, x_max))
        with pytest.raises(DomainError, match=r"lam \* x must be finite"):
            f(big, 2.0 * x_max)
        with pytest.raises(DomainError, match=r"lam \* x must be finite"):
            f(big, 1e300)
        assert math.isfinite(f(tiny, 1e-23))  # lam * x = 1e-323, subnormal
        with pytest.raises(DomainError, match=r"lam \* x underflows"):
            f(tiny, 1e-30)

    @pytest.mark.parametrize("f", [log_density, density_bessel, log_density_d1, log_density_d2,
                                   log_density_d3])
    def test_infinite_x_at_zero_noncentrality(self, f):
        # The central formulas gave NaN (nu >= 2), or -inf and finite limits
        # (nu < 2), at x = inf, where every lam > 0 raises.
        for nu in (1.0, 2.0, 4.0):
            with pytest.raises(DomainError, match="finite"):
                f(Params(nu, 0.0), math.inf)

    def test_d3_central_closed_form(self):
        # third derivative of (nu/2 - 1) log x - x/2 is (nu - 2)/x^3
        p = Params(nu=4, lam=0)
        for x in (0.5, 2.0, 10.0):
            assert hybrid_close(log_density_d3(p, x), 2.0 / x ** 3, 1e-13)
            assert log_density_d3(p, x) > 0.0

    def test_d3_negative_at_inflection(self):
        p = Params(nu=1, lam=5)
        x_tilde = inflection_point(p)
        assert log_density_d3(p, x_tilde) < 0.0

    @pytest.mark.parametrize("nu,lam", [(0.5, 0.1), (1.0, 5.0), (2.0, 1.0), (8.0, 20.0)])
    def test_derivative_chain_finite_differences(self, nu, lam):
        p = Params(nu=nu, lam=lam)
        for x in np.geomspace(1e-3, 200.0, 7):
            x = float(x)
            h = 1e-6 * max(1.0, x)
            fd1 = finite_difference(lambda y: log_density(p, y), x, 1, h)
            assert hybrid_close(log_density_d1(p, x), fd1, 1e-6)
            fd2 = finite_difference(lambda y: log_density_d1(p, y), x, 1, h)
            assert hybrid_close(log_density_d2(p, x), fd2, 1e-5)
            fd3 = finite_difference(lambda y: log_density_d2(p, y), x, 1, h)
            assert hybrid_close(log_density_d3(p, x), fd3, 1e-4)

    @pytest.mark.parametrize("nu,lam,x,d1,d2,d3", DERIVATIVE_PINS)
    def test_derivatives_match_mpmath(self, nu, lam, x, d1, d2, d3):
        p = Params(nu=nu, lam=lam)
        assert hybrid_close(log_density_d1(p, x), d1, 1e-12)
        assert hybrid_close(log_density_d2(p, x), d2, 1e-12)
        assert hybrid_close(log_density_d3(p, x), d3, 1e-12)

    # nu = 1e-16, lam = 5: the order nu/2 - 1 rounds to -1, outside the
    # domain of log_bessel_i, so log I_{nu/2-1} must come from the shared
    # kernel, which never forms that order (series at x = 3, the uniform
    # expansion at the order |nu/2 - 1| at x = 300).  (x, l, l', l''):
    # mpmath at 60 digits, mpmath.diff for the derivatives.
    @pytest.mark.parametrize("x,l,d1,d2", [
        (3.0, -2.2747467624915267, -0.0814040912268723, -0.03761980735701911),
        (300.0, -119.26754001026606, -0.43793370868247833, -9.933312669494385e-05),
    ])
    def test_tiny_nu_matches_mpmath(self, x, l, d1, d2):
        p = Params(nu=1e-16, lam=5.0)
        assert abs(log_density(p, x) - l) <= 1e-14 * abs(l)
        assert abs(log_density_d1(p, x) - d1) <= 1e-13 * abs(d1)
        assert abs(log_density_d2(p, x) - d2) <= 1e-12 * abs(d2)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.99])
    @pytest.mark.parametrize("lam", [0.1, 5.0, 20.0])
    def test_d2_single_sign_change(self, nu, lam):
        p = Params(nu=nu, lam=lam)
        signs = [log_density_d2(p, float(x)) > 0.0 for x in np.geomspace(1e-3, 200.0, 400)]
        assert signs[0] is True and signs[-1] is False
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1

    @pytest.mark.parametrize("nu", [2.0, 3.0, 8.0])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 5.0, 20.0])
    def test_log_concave_regime(self, nu, lam):
        p = Params(nu=nu, lam=lam)
        for x in np.geomspace(1e-3, 200.0, 60):
            assert log_density_d2(p, float(x)) <= 1e-12

    def test_exp_log_density_matches_density(self):
        p = Params(nu=1.5, lam=3)
        for x in (0.01, 1.0, 40.0):
            assert hybrid_close(math.exp(log_density(p, x)), density_bessel(p, x), 1e-14)


def _four_calls(p, x):
    """l, l', l'', l''' at one point, in that order."""
    return [fn(p, x) for fn in (log_density, log_density_d1, log_density_d2, log_density_d3)]


def _clear_memo():
    density_module._bessel_memo.cache_clear()


@pytest.fixture
def cold_memo():
    """Start and leave the per-point kernel memo empty, around kernel patches."""
    _clear_memo()
    yield
    _clear_memo()


@pytest.fixture
def kernel_calls(cold_memo, monkeypatch):
    """Count the density module's kernel calls, memo misses only."""
    calls = {"_point": [], "bessel_ratio": [], "log_bessel_i": []}
    for name, seen in calls.items():
        original = getattr(density_module, name)

        def counted(mu, t, original=original, seen=seen):
            seen.append((mu, t))
            return original(mu, t)

        monkeypatch.setattr(density_module, name, counted)
    return calls


@pytest.fixture
def bessel_sums(monkeypatch):
    """Count the sums and fractions the kernel calls, by name."""
    calls = {name: [] for name in ("_series_pair", "_series_sum", "_log_i_debye",
                                   "_ratio_cf", "_ratio_perron")}
    for name, seen in calls.items():
        original = getattr(bessel_module, name)

        def counted(mu, x, original=original, seen=seen):
            seen.append((mu, x))
            return original(mu, x)

        monkeypatch.setattr(bessel_module, name, counted)
    return calls


@pytest.fixture
def bad_ratio(cold_memo, monkeypatch):
    """Make the kernel's ratio 1e-6 too large, leaving its two log I values alone."""
    original = density_module._point
    monkeypatch.setattr(density_module, "_point",
                        lambda mu, t: (original(mu, t)[0] * (1.0 + 1e-6),) + original(mu, t)[1:])


class TestKernelMemo:
    # A point in each band of the kernel: Gauss's fraction with the series
    # logs, the series quotient and logs (t < 1), the uniform expansion's
    # logs with Perron's fraction (twice), Gauss's fraction with the
    # uniform expansion's log I_{mu-1} and the series log I_mu
    # (30 + 2|mu - 1| <= t < 30 + 2 mu, 30.5 <= t < 31.5 at mu = 0.75;
    # t = 31 here), and the closed form at nu = 1.
    POINTS = ((Params(2, 5), 2.0), (Params(0.3, 0.7), 0.05), (Params(7.5, 40), 60.0),
              (Params(60, 500), 700.0), (Params(1.5, 30.03125), 32.0), (Params(1, 5), 2.0))

    @pytest.mark.parametrize("p,x", POINTS)
    def test_row_takes_each_kernel_value_once(self, cold_memo, p, x):
        # A row is one memo miss.
        log_density(p, x)
        log_density_d1(p, x)
        log_density_d2(p, x)
        info = density_module._bessel_memo.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    @pytest.mark.parametrize("p,x", POINTS)
    def test_bundle_takes_no_more(self, kernel_calls, p, x):
        # The row l, l', l'' is one kernel call in every band, and l''' adds
        # none; nothing calls the single kernels.
        one_call = [(0.5 * p.nu, math.sqrt(p.lam * x))]
        log_density(p, x)
        log_density_d1(p, x)
        log_density_d2(p, x)
        assert kernel_calls["_point"] == one_call
        log_density_d3(p, x)
        assert kernel_calls == {"_point": one_call, "bessel_ratio": [], "log_bessel_i": []}

    def test_continued_fraction_row_takes_one_ratio_call(self, kernel_calls, bessel_sums):
        # At t = sqrt(10) the row's one kernel call takes the ratio from
        # Gauss's fraction once, and both logs from one series loop.
        p, t = Params(2, 5), math.sqrt(10.0)
        log_density(p, 2.0)
        log_density_d1(p, 2.0)
        log_density_d2(p, 2.0)
        assert kernel_calls["_point"] == [(1.0, t)]
        assert bessel_sums == {"_series_pair": [(1.0, t)], "_series_sum": [], "_log_i_debye": [],
                               "_ratio_cf": [(1.0, t)], "_ratio_perron": []}

    def test_closed_form_takes_no_sum(self, kernel_calls, bessel_sums):
        # At nu = 1 the row's one kernel call is tanh, log cosh and log sinh,
        # and the solvers' ratios are tanh: no series, fraction or expansion.
        p, t = Params(1, 5), math.sqrt(10.0)
        _four_calls(p, 2.0)
        assert kernel_calls["_point"] == [(0.5, t)]
        shape_module._critical_lambda_cached.cache_clear()
        mode_report(p)
        assert {mu for mu, _ in kernel_calls["bessel_ratio"]} == {0.5}
        assert bessel_sums == {name: [] for name in bessel_sums}

    def test_unshared_row_takes_the_single_kernels(self, kernel_calls, bessel_sums):
        # Between the crossovers the three values share no sum: Gauss's
        # fraction, the uniform expansion at the order |mu - 1| and the
        # series of I_mu, once each, in the row's one kernel call.
        p, x = self.POINTS[4]
        _four_calls(p, x)
        assert kernel_calls["_point"] == [(0.75, 31.0)]
        assert bessel_sums == {"_series_pair": [], "_series_sum": [(0.75, 31.0)],
                               "_log_i_debye": [(0.25, 31.0)], "_ratio_cf": [(0.75, 31.0)],
                               "_ratio_perron": []}

    @pytest.mark.parametrize("p,x", POINTS)
    def test_values_equal_cold_calls(self, p, x):
        fns = (log_density, log_density_d1, log_density_d2, log_density_d3, density_bessel)
        warm = [fn(p, x) for fn in fns]
        cold = []
        for fn in fns:
            _clear_memo()
            cold.append(fn(p, x))
        assert warm == cold

    @pytest.mark.parametrize("fn", [log_density_d2, log_density_d3, _four_calls,
                                    lambda p, x: inflection_point(p)],
                             ids=["log_density_d2", "log_density_d3", "four_calls",
                                  "inflection_point"])
    def test_self_check_still_sees_a_bad_ratio(self, bad_ratio, fn):
        # A wrong ratio cached by l' must still fail the l'' check, whose
        # second lineage rebuilds the ratio from log I values; l''', the
        # row of four calls and the inflection point each run that check.
        p = Params(1, 5)
        log_density_d1(p, 2.0)
        with pytest.raises(InternalConsistencyError):
            fn(p, 2.0)

    @pytest.mark.parametrize("fn", [log_density_d2, log_density_d3, _four_calls])
    @pytest.mark.parametrize("p,x", [(Params(7.5, 40), 60.0), (Params(60, 500), 700.0)])
    def test_self_check_sees_a_bad_ratio_above_the_crossover(self, bad_ratio, fn, p, x):
        # From t = 30 + nu the ratio is Perron's fraction and both logs the
        # uniform expansion: two lineages, so a wrong ratio fails there too.
        log_density_d1(p, x)
        with pytest.raises(InternalConsistencyError):
            fn(p, x)

    @pytest.mark.parametrize("p,x", POINTS)
    def test_self_check_sees_a_bad_ratio_in_every_band(self, bad_ratio, p, x):
        # Below t = 1 the ratio and the logs share their series sums, so
        # there the check sees only a defect in what follows them, as here.
        with pytest.raises(InternalConsistencyError):
            log_density_d2(p, x)

    @pytest.mark.parametrize("lam,x", [(8.1, 0.1), (1000.0, 10.0)], ids=["t=0.9", "t=100"])
    def test_self_check_sees_a_bad_tanh_at_nu_one(self, cold_memo, monkeypatch, lam, x):
        # At nu = 1 the ratio is tanh and the logs log cosh and log sinh,
        # separate libm routes at every t, so the check compares two
        # lineages below t = 1 as well as above t = 30: with the kernel's
        # tanh 1e-8 off (and nothing else), it fails at both.
        p = Params(1, lam)
        log_density_d2(p, x)
        _clear_memo()
        bad_math = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math)
                                            if not name.startswith("_")})
        bad_math.tanh = lambda t: math.tanh(t) * (1.0 + 1e-8)
        monkeypatch.setattr(bessel_module, "math", bad_math)
        with pytest.raises(InternalConsistencyError):
            log_density_d2(p, x)

    def test_memo_is_bounded(self, cold_memo):
        p = Params(3, 10)
        for x in np.linspace(0.5, 20.0, 50):
            log_density_d2(p, float(x))
        info = density_module._bessel_memo.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 4


class TestLargeOrderBand:
    def test_band_grid_answers(self):
        # The density-grid op (68.27, 220) on its mean +- 6 sd grid: every
        # t = sqrt(lam x) lies in 30 + nu <= t < nu^2 / 8, where log I was
        # wrong and every l'' raised InternalConsistencyError.
        p = Params(68.27, 220.0)
        mean, sd = p.nu + p.lam, math.sqrt(2.0 * (p.nu + 2.0 * p.lam))
        for i, x in enumerate(np.linspace(mean - 6.0 * sd, mean + 6.0 * sd, 500)):
            x = float(x)
            l = log_density(p, x)
            log_density_d1(p, x)
            log_density_d2(p, x)
            if i % 50 == 0:
                assert hybrid_close(l, math.log(density_series(p, x)), 1e-12)


def _full_check_d2(p, x):
    """l'' with its whole tolerance formed before the one test, floor included.

    A copy of the check as it stood before the early accept on the relative
    part.  Returns l'' and whether the gap exceeded the relative part (so
    the floor decided), or raises as that check did.
    """
    nu, lam = p.nu, p.lam
    t = math.sqrt(lam * x)
    r, log_i_lower, log_i = density_module._bessel_memo(0.5 * nu, t)
    form_ratio = density_module._scaled(density_module._curvature(nu, t, r), x * x, "l''", x)
    r_log = math.exp(log_i - log_i_lower)
    d1 = -0.5 + (nu - 2.0) / (2.0 * x) + math.sqrt(lam) / (2.0 * math.sqrt(x)) * r_log
    form_slope = (lam + nu - 4.0) / (4.0 * x) - 0.25 - d1 * (d1 + 1.0 - (nu - 4.0) / (2.0 * x))
    gap = abs(form_ratio - form_slope)
    conditioning = (
        abs(lam + nu - 4.0) / (4.0 * x)
        + 0.25
        + d1 * d1
        + abs(d1) * (1.0 + abs(nu - 4.0) / (2.0 * x))
    )
    relative = density_module.D2_CONSISTENCY_TOL * max(1.0, abs(form_ratio), abs(form_slope))
    tolerance = relative + 2.2e-16 * conditioning * (64.0 + 4.0 * t)
    if gap > tolerance:
        raise InternalConsistencyError(f"{form_ratio!r} vs {form_slope!r}")
    return form_ratio, gap > relative


def _outcome(fn, p, x):
    try:
        return fn(p, x)
    except (InternalConsistencyError, OverflowError) as exc:
        return type(exc)


class TestD2EarlyAccept:
    # lam = 5e5 and 1e6 put lam / x >> 1 at x of 10 to 1000, where the
    # conditioning floor, not the relative part, accepts the gap.
    SWEEP = [(nu, lam, float(x)) for nu in (1e-6, 0.3, 1.0, 3.0, 22.0, 50.0, 100.0)
             for lam in (0.5, 50.0, 5e3, 5e5, 1e6) for x in np.geomspace(1e-3, 1e3, 25)]

    @pytest.mark.parametrize("scale", [1.0, 1.2])
    def test_same_verdicts_as_the_full_check(self, cold_memo, monkeypatch, scale):
        if scale != 1.0:
            memo = density_module._bessel_memo
            monkeypatch.setattr(density_module, "_bessel_memo",
                                lambda mu, t: (memo(mu, t)[0] * scale,) + memo(mu, t)[1:])
        floor_decided = raised = 0
        for nu, lam, x in self.SWEEP:
            p = Params(nu, lam)
            full = _outcome(_full_check_d2, p, x)
            got = _outcome(log_density_d2, p, x)
            if isinstance(full, tuple):
                assert got == full[0]
                floor_decided += full[1]
            else:
                assert got is full
                raised += 1
        if scale == 1.0:
            assert raised == 0 and floor_decided >= 20
        else:
            assert raised == len(self.SWEEP)
