"""Noncentral chi-squared density and its first three log-density derivatives.

This module is the production route: the closed form built on log-scaled
modified Bessel functions.  A noncentrality below ``LAMBDA_ZERO`` routes it
to the central density.  The paper's other form, the Poisson mixture of
central chi-squared densities, is the reference route and lives in
:mod:`ncx2shape.oracle` with the grid search and quadrature that consume it.
The two modules share no special-function code beyond ``math``, so
comparing them is a genuine cross-check.

Derivatives of the log density use the Bessel-ratio closed forms; finite
differences live in :mod:`ncx2shape.oracle` and never run in production.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .bessel import _point, bessel_ratio

# Not called here, but bench/spans.py traces this binding and CI's smoke step
# fails on a missing one; ROADMAP item 1 (one stable kernel name) lets it go.
from .bessel import log_bessel_i  # noqa: F401
from .errors import DomainError, InternalConsistencyError

_LOG2 = math.log(2.0)

# Noncentrality below this is treated as exactly zero: the Bessel closed
# form is singular in shape at lambda = 0, so everything routes to the
# central formulas there.
LAMBDA_ZERO = 1e-300

# Agreement demanded of the two closed forms of the second derivative.
D2_CONSISTENCY_TOL = 1e-9


# A row l, l', l'' at one point needs r_mu(t), log I_{mu-1}(t) and log I_mu(t),
# mu = nu/2, but the public functions are called one at a time.  This memo
# keeps the last few points' triples, keyed by (mu, t); a miss is one call of
# bessel._point, which picks the band once and answers all three (the band
# table is in the bessel module docstring).
@functools.lru_cache(maxsize=2)
def _bessel_memo(mu: float, t: float) -> tuple[float, float, float]:
    # x > 0 and lam >= LAMBDA_ZERO are checked, so t = sqrt(lam x) is 0 only by
    # underflow, and infinite only where lam * x is.
    if t == 0.0:
        raise DomainError("lam * x underflows to 0, so the Bessel argument sqrt(lam x) is 0")
    if t == math.inf:
        raise DomainError(
            f"lam * x must be finite (at most {sys.float_info.max:.4g}), so that the Bessel "
            "argument sqrt(lam x) is finite"
        )
    return _point(mu, t)


def _ratio_slope(nu: float, t: float, r: float) -> float:
    """r' = dr/dt = 1 - (nu - 1) r / t - r^2, given r = r_{nu/2}(t)."""
    return 1.0 - (nu - 1.0) * r / t - r * r


# A root solve's closing pair and last short step land within ~1e-8 relative
# of a point it has just evaluated.  There _ratio_at continues r from the
# solve's last kernel point, (t0, r0), by the Riccati equation
# r' = 1 - (nu - 1) r / t - r^2 (DLMF 10.29.2), when
# |t - t0| <= _CONTINUE_RADIUS * min(t0, _CONTINUE_UNIT):
# * Truncation.  r_mu(z) = (z / (2 mu)) Sa(z^2) / Sb(z^2) is meromorphic,
#   with poles at the zeros of I_{mu-1}, which lie on the imaginary axis for
#   mu > 0 (DLMF 10.21(i) and 10.27.6).  So r is analytic on the disc
#   |z - t0| <= t0 / 2, and Cauchy's estimate bounds the remainder of the
#   cubic by M (2 |t - t0| / t0)^4 / (1 - 2 |t - t0| / t0), M the largest |r|
#   on its circle.  M <= 2 r0: 40-digit mpmath gives at most 1.99999995 r0
#   over mu in [1e-16, 50] and t0 in [1e-6, 1e4]; M tends to 1.5 r0 where
#   r ~ t (t0 -> 0), to 2 r0 where r ~ 1/t (tiny mu, t0 >> sqrt(mu)), and
#   to r0 as t0 -> inf.  With the radius 2^-16 the remainder is below
#   2^-59 r0, 1/64 of an ulp.
# * Rounding.  The step is measured in units of s = min(t0, _CONTINUE_UNIT),
#   so no power of t0 is formed (t0^3 underflows to 0 below t0 ~ 1e-108).
#   The first-order coefficient, s r' = s (1 - r0^2) - (nu - 1) r0 s / t0,
#   is the one whose rounding shows: ~eps (2 s + |nu - 1| r0) over a step of
#   at most the radius.  Below the unit that is ~2^-16 eps (2 t0 / r0 + nu)
#   relative, with t0 / r0 ~ nu at small t0, well under an ulp for the
#   documented nu up to ~100.  Above it, s r' cancels to O(s / t0^2) from
#   terms of size s, and the unit, 1 / (16 * radius), keeps 2 eps s times
#   the step to eps / 8.
# The anchor is always a kernel value, so errors do not build up.  Within
# 2 ulp of 40-digit mpmath beyond the anchor's own error (tested over mu in
# [5e-17, 50] and t0 in [1e-300, 1e300]).
_CONTINUE_RADIUS = 2.0 ** -16
_CONTINUE_UNIT = 1.0 / (16.0 * _CONTINUE_RADIUS)


def _ratio_at(nu: float, t: float, anchor: list) -> tuple[float, float]:
    """r = r_{nu/2}(t) and r', given a root solve's ``anchor`` = [t0, r0, reach].

    Within ``reach`` of the last kernel point t0, r continues r0 by the cubic
    Taylor polynomial of the Riccati equation: with v = (t - t0) / scale,
    scale = min(t0, _CONTINUE_UNIT) and big = t0 / scale, r solves
    dr/dv = scale (1 - r^2) - (nu - 1) r / (big + v), and b1, b2 and b3 are
    its Taylor coefficients at v = 0.  Farther away, r is one uncached Bessel
    ratio, and (t, r, its reach) replace the anchor in place.  A solve starts
    from [nan, nan, 0.0], which no point is within reach of.
    """
    t0, r0, reach = anchor
    if -reach <= t - t0 <= reach:
        a = nu - 1.0
        scale = t0 if t0 < _CONTINUE_UNIT else _CONTINUE_UNIT
        big = t0 / scale
        v = (t - t0) / scale
        b1 = scale * (1.0 - r0 * r0) - a * r0 / big
        c = 2.0 * scale * r0 + a / big
        b2 = 0.5 * (a * r0 / (big * big) - c * b1)
        b3 = (a * (b1 - r0 / big) / (big * big) - scale * b1 * b1 - c * b2) / 3.0
        r = r0 + v * (b1 + v * (b2 + v * b3))
    else:
        r = bessel_ratio(0.5 * nu, t)
        anchor[0] = t
        anchor[1] = r
        anchor[2] = _CONTINUE_RADIUS * (t if t < _CONTINUE_UNIT else _CONTINUE_UNIT)
    return r, _ratio_slope(nu, t, r)


def _curvature(nu: float, t: float, r: float) -> float:
    """g_nu(t) = x^2 l''(x) = (2 - nu)/2 + t^2 (1 - r^2)/4 - nu t r/4, given r = r_{nu/2}(t).

    Kept apart from :func:`_curvature_slope`, so that l'' does not pay for it.
    """
    return 0.5 * (2.0 - nu) + 0.25 * t * t * (1.0 - r * r) - 0.25 * nu * t * r


def _curvature_slope(nu: float, t: float, r: float, dr: float) -> float:
    """g_nu'(t), given r = r_{nu/2}(t) and dr = r'(t)."""
    return 0.5 * t * (1.0 - r * r) - 0.5 * t * t * r * dr - 0.25 * nu * (r + t * dr)


def _scaled(value: float, xn: float, what: str, x: float) -> float:
    """value / xn, xn a power of x that may underflow; OverflowError beyond double range."""
    out = value / xn if xn else (math.inf if value else 0.0)
    if math.isinf(out):
        raise OverflowError(f"{what} overflows double precision at x={x!r}")
    return out


@dataclass(frozen=True)
class Params:
    """Degrees of freedom and noncentrality of a noncentral chi-squared law.

    Requires nu > 0 and lam >= 0, both finite.
    """

    nu: float
    lam: float

    # Written out, here and in shape.CriticalLambda, shape.ShapeReport and
    # modes.ModeReport: the __init__ that @dataclass(frozen=True) generates
    # stores each field through object.__setattr__, which costs about twice a
    # direct __dict__ store (Python 3.11, timeit on a shared 2-vCPU host:
    # Params(nu=..., lam=...) 1.03 -> 0.49 us, a 7-field ModeReport 1.33 ->
    # 0.64 us).  On a modes-sweep op of ~21 us, building the records was
    # ~2 us, about one Bessel-ratio kernel call.  The price: a field load
    # on the materialized __dict__ takes ~28 ns instead of ~10 ns.  The
    # decorator generates no __init__ for a class that defines one, and
    # assigning a field still raises FrozenInstanceError.  The parameters
    # are the fields, in order (tests/test_density.py::TestRecordContract).
    def __init__(self, nu: float, lam: float) -> None:
        nu_f, lam_f = float(nu), float(lam)
        if not 0.0 < nu_f < math.inf:
            raise DomainError(f"degrees of freedom must be finite and > 0, got {nu}")
        if not 0.0 <= lam_f < math.inf:
            raise DomainError(f"noncentrality must be finite and >= 0, got {lam}")
        d = self.__dict__
        d["nu"] = nu_f
        d["lam"] = lam_f


def _bad_x(x: float) -> DomainError:
    """The error for an evaluation point that fails ``0 < x < inf`` (NaN included)."""
    return DomainError(f"evaluation point must be finite and > 0, got {x}")


def _log_central(nu: float, x: float) -> float:
    return (0.5 * nu - 1.0) * math.log(0.5 * x) - 0.5 * x - _LOG2 - math.lgamma(0.5 * nu)


def log_density(p: Params, x: float) -> float:
    """log of the noncentral chi-squared density, composed in log space."""
    if not x > 0.0:
        raise _bad_x(x)
    nu, lam = p.nu, p.lam
    if lam < LAMBDA_ZERO:
        if x == math.inf:
            raise _bad_x(x)
        return _log_central(nu, x)
    t = math.sqrt(lam * x)
    return (
        -0.5 * (x + lam)
        + 0.25 * (nu - 2.0) * (math.log(x) - math.log(lam))
        + _bessel_memo(0.5 * nu, t)[1]
        - _LOG2
    )


def density_bessel(p: Params, x: float) -> float:
    """Density by the closed Bessel form, stable for large x and lambda.

    A noncentrality below ``LAMBDA_ZERO`` routes to the central density,
    where the closed form degenerates.
    """
    return math.exp(log_density(p, x))


def log_density_d1(p: Params, x: float) -> float:
    """First derivative of the log density.

    l'(x) = -1/2 + (nu - 2)/(2x) + sqrt(lam)/(2 sqrt(x)) r_{nu/2}(sqrt(lam x)),
    reducing to the central expression when lambda is zero.
    """
    if not x > 0.0:
        raise _bad_x(x)
    nu, lam = p.nu, p.lam
    if lam < LAMBDA_ZERO:
        if x == math.inf:
            raise _bad_x(x)
        return -0.5 + (nu - 2.0) / (2.0 * x)
    t = math.sqrt(lam * x)
    return -0.5 + (nu - 2.0) / (2.0 * x) + math.sqrt(lam) / (2.0 * math.sqrt(x)) * _bessel_memo(0.5 * nu, t)[0]


def log_density_d2(p: Params, x: float) -> float:
    """Second derivative of the log density, with a built-in self-test.

    The returned value is g_nu(t) / x^2 (see :func:`_curvature`), with
    r = r_{nu/2}(t) from the point's one kernel call, bit-identical to
    :func:`ncx2shape.bessel.bessel_ratio`.  The same quantity is then
    rebuilt through the slope form

        (lam+nu-4)/(4x) - 1/4 - l'(x) (l'(x) + 1 - (nu-4)/(2x))

    where l' is assembled from r rebuilt as exp(log I_{nu/2} - log I_{nu/2-1}).
    The two forms coincide algebraically, so any disagreement beyond
    rounding signals a defect in the Bessel layer and raises
    :class:`InternalConsistencyError`.  By the band table in
    :mod:`ncx2shape.bessel`, they are independent lineages at every t >= 1,
    where r is a continued fraction (Gauss's, then Perron's from
    t = 30 + nu) and the logs come from the series or the uniform expansion.
    Below t = 1, r and both logs come from the same series sums, and the
    check sees only the arithmetic that follows them.  At nu = 1 it
    compares two lineages at every t: r is tanh t and the logs are
    log cosh t and log sinh t in closed form, separate libm routes.

    In the strongly noncentral regime lam/x >> 1 the slope form cancels its
    leading O(lam/(4x)) terms down to an O(1) result, so the comparison
    carries a conditioning-aware absolute floor on top of the 1e-9 relative
    tolerance; a real ratio defect overshoots that floor by orders of
    magnitude.  The floor is never negative, so a gap within the relative
    part is accepted before the floor is formed.
    """
    if not x > 0.0:
        raise _bad_x(x)
    nu, lam = p.nu, p.lam
    if lam < LAMBDA_ZERO:
        if x == math.inf:
            raise _bad_x(x)
        return _scaled(2.0 - nu, 2.0 * x * x, "l''", x)
    t = math.sqrt(lam * x)
    mu = 0.5 * nu
    r, log_i_lower, log_i = _bessel_memo(mu, t)
    form_ratio = _scaled(_curvature(nu, t, r), x * x, "l''", x)
    # second route: rebuild the ratio from the log I values
    r_log = math.exp(log_i - log_i_lower)
    d1 = -0.5 + (nu - 2.0) / (2.0 * x) + math.sqrt(lam) / (2.0 * math.sqrt(x)) * r_log
    form_slope = (lam + nu - 4.0) / (4.0 * x) - 0.25 - d1 * (d1 + 1.0 - (nu - 4.0) / (2.0 * x))
    gap = abs(form_ratio - form_slope)
    tolerance = D2_CONSISTENCY_TOL * max(1.0, abs(form_ratio), abs(form_slope))
    if gap <= tolerance:
        return form_ratio
    conditioning = (
        abs(lam + nu - 4.0) / (4.0 * x)
        + 0.25
        + d1 * d1
        + abs(d1) * (1.0 + abs(nu - 4.0) / (2.0 * x))
    )
    tolerance += 2.2e-16 * conditioning * (64.0 + 4.0 * t)
    if gap > tolerance:
        raise InternalConsistencyError(
            f"second-derivative forms disagree at nu={nu}, lam={lam}, x={x}: "
            f"{form_ratio!r} vs {form_slope!r}"
        )
    return form_ratio


def log_density_d3(p: Params, x: float) -> float:
    """Third derivative of the log density, (t g_nu'(t) / 2 - 2 g_nu(t)) / x^3.

    This is d/dx of g_nu(t) / x^2 with dt/dx = t / (2x); it reduces to the
    central (nu - 2) / x^3 at lambda = 0.  The l'' self-check runs first.
    """
    d2 = log_density_d2(p, x)
    if p.lam < LAMBDA_ZERO:
        return _scaled(-2.0 * d2, x, "l'''", x)
    t = math.sqrt(p.lam * x)
    r = _bessel_memo(0.5 * p.nu, t)[0]
    dr = _ratio_slope(p.nu, t, r)
    x3_d3 = 0.5 * t * _curvature_slope(p.nu, t, r, dr) - 2.0 * _curvature(p.nu, t, r)
    return _scaled(x3_d3, x * x * x, "l'''", x)
