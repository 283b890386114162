"""Mode and antimode location for the noncentral chi-squared density.

An interior mode exists exactly when the density is not decreasing
(:func:`ncx2shape.shape._decreasing`): when nu > 2, or nu = 2 with lam > 2,
or nu < 2 with lam above the critical noncentrality.  When it exists it is
the unique zero of the log-density slope inside a provable bracket:

* lower  lam + nu - 4        (always, strict)
* lower  (nu-2)(1 + lam/nu)  (nu >= 2)
* lower  lam + nu - 3        (nu > 3, strict)
* upper  lam + nu - 2        (nu >= 2)
* upper  lam + nu - 3        (nu < 2, strict)

In the bimodal regime the density also has a local minimum (antimode)
between zero and the inflection point of the log density.

Both roots are solved in t = sqrt(lam x), the variable of
:mod:`ncx2shape.shape`.  With s(t) = t r_{nu/2}(t),

    2x l'(x) = h(t) = s(t) + nu - 2 - t^2 / lam,

so the slope has the sign of h.  The same Bessel ratio r and its
derivative r' give h' = s' - 2t / lam and h'' = s'' - 2 / lam, with
s' = t + (2 - nu) r - t r^2 and s'' = 1 + (2 - nu) r' - r^2 - 2 t r r', and
the root-finder :func:`_bisect` takes Halley steps on them.  r and r' come
from :func:`ncx2shape.density._ratio_at` and the solve's anchor, its last
kernel point, with r' from the Riccati equation r' = 1 - (nu - 1) r / t - r^2.
A point that moves farther than 2^-16 min(t, 4096) from the anchor calls
the kernel and becomes the new anchor; a nearer one, as the closing pair and
the last short step are, continues the anchor's r by the cubic Taylor
polynomial of that equation, within 2 ulp of the kernel's own accuracy.  So
a root costs its evaluations of h, but a kernel call only for each move
beyond that radius.

:func:`_bisect` narrows a bracket by Halley steps, kept inside it, falling
back to halving, until ``hi - lo <= rtol * hi``; a start within a quarter
of the stop width ends it in two evaluations, one kernel call.  No solve
searches for its bracket.  Each narrows t to relative width ``tol / 2``
and returns x = t^2 / lam, so
``tol`` is relative: each root lies within about ``tol * x / 2`` of a sign
change of the slope.  It returns the closing step's point, usually far
closer than that: at the default ``tol``, on the inputs the test suite
pins (away from the fold at lam = lambda_nu), the 12 digits the CLI prints
are those of the rounded root.

For nu < 2 the brackets in t are theorems, and no end is evaluated
(tau and lambda_nu from :func:`ncx2shape.shape.critical_lambda`):

* mode      (tau, sqrt(lam (lam + nu - 3))): h(tau) = tau^2 (1/lambda_nu -
  1/lam) > 0 exactly when the density is bimodal, and lam + nu - 3 is the
  strict upper bound;
* antimode  (sqrt(nu (2 - nu)), tau): r_mu(t) < t / (2 mu), from
  I_{mu-1} - I_{mu+1} = (2 mu / t) I_mu, so s < t^2 / nu and h < 0
  wherever t^2 <= nu (2 - nu).

Each solve starts near its root.  The antimode starts from t_inf(nu), the
root of s(t) = 2 - nu, which it approaches as lam -> inf (a stored fit),
moved by a quadratic correction for finite lam that needs no Bessel call
(:func:`_antimode_start`); its error falls like lam^-3.  The mode starts
at lam + nu - 3 + (nu - 3) / (2 lam) below nu = 2; at nu = 2 with lam <= 4
at the reversed series of lam = t I_0(t) / I_1(t) in lam - 2 (within 4.1e-5
of the mode, where the midpoint lam - 1 is 4.7 times the mode at
lam = 2.1); and at the midpoint of the bounds otherwise.  A start that is
NaN or outside the bracket gives way to the midpoint, and the closing pair
still proves the bracket.

For nu >= 2 the bracket is the proven bounds, padded (at nu = 5,
lam = 5.96e-8 the mode is 6e-16 above its lower bound, where h rounds to
0), and no end is evaluated either.  The lower end is the padded binding
lower bound, never below the padded (nu - 2)(1 + lam/nu), since the padded
value grows with the bound.  Only where it is not above 1e-12 (the binding
bound within ~1e-6 of 0, so nu within ~1e-6 of 2) is the lower end clamped
to 1e-12 and checked on h; below the mode it moves to half a positive lower
bound, and a wrong sign there raises :class:`InternalConsistencyError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .density import LAMBDA_ZERO, Params, _ratio_at, _ratio_slope
from .errors import ConvergenceError, DomainError, InternalConsistencyError
from .shape import _check_tol, _decreasing, _horner, critical_lambda

# Position tolerance (relative) for the mode and antimode solvers.
DEFAULT_TOL = 1e-10

# Provenance of the binding lower bound in a ModeReport.
BOUND_LOOSE = "loose"
BOUND_NU_GE_2 = "nu_ge_2"
BOUND_NU_GT_3 = "nu_gt_3"
BOUND_BIMODAL = "bimodal"

_BRACKET_PAD = 1e-6

# At nu = 2 the mode x = t^2 / lam solves lam = G(t) = t I_0(t) / I_1(t),
# and G = 2 + y - y^2/6 + y^3/24 - y^4/90 + 13 y^5/4320 - ... in y = t^2 / 4
# (the quotient of the two power series).  Reversed, that is y = e P(e),
# e = lam - 2, with P the polynomial below (highest power first), and
# x = 4 y / lam.  Within 4.1e-5 relative of the 40-digit mpmath mode on
# lam in (2, 4] (2.4e-7 at lam = 3; tested); the series fits lam - 2 small,
# where the midpoint of the bounds does not (mode 0.19 against lam - 1 = 1.1
# at lam = 2.1).
_NU_TWO_Y = (239 / 43545600, 1 / 120960, -1 / 5184, -1 / 2160, 1 / 72, 1 / 6, 1.0)

# t_inf(nu) / (nu^(1/4) (2 - nu)^(1/2)), t_inf being the root of
# s(t) = 2 - nu, as polynomials in w, highest power first: w = nu^(1/2) below
# nu = 1 (degree 12) and w = (2 - nu)^(1/2) from nu = 1 (degree 16).  Each is
# the Chebyshev interpolant on w in [0, 1] of the 50-digit mpmath t_inf
# (mpmath.chebyfit, one node per coefficient), rounded to double.  With the
# factor, :func:`_t_inf` is within 1e-11 relative of t_inf on all of (0, 2)
# (tested against mpmath).
_T_INF_LOW = (
    0.00015365528115479266, -0.0010138517539714299, 0.003122187641121543, -0.006857275616131534,
    0.014506160485383708, -0.029747229349930345, 0.04988527232056975, -0.06783054984351437,
    0.10084986007846042, -0.20394611459359724, 0.39774748257777426, -0.4714045193352933,
    1.4142135623687915,
)
_T_INF_HIGH = (
    0.043719612561704986, -0.3064850050248211, 0.9836171521384312, -1.9034610923455344,
    2.4712240606944187, -2.2670835633370476, 1.5100440553891894, -0.7380332746872117,
    0.26600326962326826, -0.06921736593089467, 0.015474478467654746, -0.0016572443704735746,
    0.006333345107341116, -7.0896506574054875e-06, 1.8858162266587896e-07, -1.9759512801970252e-09,
    1.1892071150061436,
)


@dataclass(frozen=True)
class ModeReport:
    """Modes, antimode and location bounds for one parameter pair.

    ``interior_mode`` and ``antimode`` are None when absent.  Bounds are
    populated exactly when an interior mode exists; ``bound_source`` names
    the rule that produced the binding lower bound (or ``bimodal`` for the
    sub-two regime, where the bounds are lam+nu-4 and lam+nu-3).
    """

    params: Params
    zero_is_mode: bool
    interior_mode: float | None
    antimode: float | None
    bounds_lower: float | None
    bounds_upper: float | None
    bound_source: str | None

    # Direct __dict__ stores; see the comment on density.Params.__init__.
    def __init__(self, params: Params, zero_is_mode: bool, interior_mode: float | None,
                 antimode: float | None, bounds_lower: float | None, bounds_upper: float | None,
                 bound_source: str | None) -> None:
        d = self.__dict__
        d["params"] = params
        d["zero_is_mode"] = zero_is_mode
        d["interior_mode"] = interior_mode
        d["antimode"] = antimode
        d["bounds_lower"] = bounds_lower
        d["bounds_upper"] = bounds_upper
        d["bound_source"] = bound_source


def _bounds_with_source(nu: float, lam: float) -> tuple[float, float, str]:
    loose = lam + nu - 4.0
    if nu < 2.0:
        return loose, lam + nu - 3.0, BOUND_BIMODAL
    lower, source = loose, BOUND_LOOSE
    concave_lower = (nu - 2.0) * (1.0 + lam / nu)
    if concave_lower >= lower:
        lower, source = concave_lower, BOUND_NU_GE_2
    if nu > 3.0:
        shifted = lam + nu - 3.0
        if shifted >= lower:
            lower, source = shifted, BOUND_NU_GT_3
    return lower, lam + nu - 2.0, source


def interior_mode(p: Params, tol: float = DEFAULT_TOL) -> float | None:
    """Location of the interior mode, or None when there is none; see :func:`mode_report`."""
    return mode_report(p, tol).interior_mode


def antimode(p: Params, tol: float = DEFAULT_TOL) -> float | None:
    """Location of the interior local minimum, or None outside the bimodal regime.

    Solved together with the interior mode by :func:`mode_report`.
    """
    return mode_report(p, tol).antimode


def _bisect(f, lo: float, hi: float, rtol: float, x: float | None = None) -> tuple[float, int]:
    """A point of the final bracket around the sign change of ``f``, and the evaluation count.

    ``f(x)`` returns ``(f, f', f'')``.  The value f is positive at ``lo``
    and not positive at ``hi``; neither end is evaluated.  Every evaluated
    point becomes the new ``lo`` or ``hi``, starting from ``x`` (default:
    the midpoint).  The next point is Halley's step, the Newton step
    ``x - f / slope`` on ``slope = f' - f f'' / (2 f')`` (``f'`` itself where
    ``f'`` is 0), from the last one when it stays in the bracket and is at
    most half the previous step (rtsafe, *Numerical Recipes* 9.4), and the
    midpoint otherwise.  A step shorter than half the stop width
    ``w = rtol * x`` closes the bracket instead: ``f`` is evaluated ``w/4``
    beyond the step's point, then ``w/4`` short of it, and when the first of
    these lands on the side of the last point the next step is the
    midpoint.  Evaluations other than halvings are capped at the number of
    halvings the bracket needs, so derivatives that are wrong, zero or NaN
    at most double the cost of plain bisection.  Returns once
    ``hi - lo <= rtol * hi``: the step's point of the closing pair when the
    loop ends on one and that point lies in the final bracket (it is then
    within ``w/4`` of both ends), else the bracket's midpoint, so the answer
    always lies within half that width of a sign change; raises
    :class:`ConvergenceError` once a midpoint no longer splits the bracket.
    """
    evals = 0
    half = 0.5 * (hi - lo)  # half the last step, and of the bracket at first
    width = rtol * hi
    # Evaluations other than halvings may number as many as halving alone needs.
    spare = math.log2((hi - lo) / width)
    if x is None:
        x = 0.5 * (lo + hi)
    else:
        spare -= 1
    closing = math.nan
    while hi - lo > width:
        closing = math.nan
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise ConvergenceError(f"bisection cannot split [{lo!r}, {hi!r}] to the tolerance")
        value, d1, d2 = f(x)
        slope = d1 - value * d2 / (2.0 * d1) if d1 else d1
        evals += 1
        positive = value > 0.0
        if positive:
            lo = x
        else:
            hi = x
        new = x - value / slope if slope else math.nan
        step = new - x
        if spare > 0.0 and lo <= new <= hi and -half <= step <= half:
            spare -= 1
            h = 0.25 * (rtol * new)
            if -2.0 * h < step < 2.0 * h:
                beyond = math.copysign(h, step)
                for y in (new + beyond, new - beyond):
                    if lo < y < hi:
                        evals += 1
                        y_positive = f(y)[0] > 0.0
                        if y_positive:
                            lo = y
                        else:
                            hi = y
                        if y_positive == positive:
                            break
                closing = new
                new = 0.5 * (lo + hi)
                step = new - x
        else:
            new = 0.5 * (lo + hi)
            step = new - x
        half = 0.5 * step if step >= 0.0 else -0.5 * step
        x = new
        width = rtol * hi
    return (closing if lo <= closing <= hi else 0.5 * (lo + hi)), evals


def _slope_in_t(nu: float, lam: float, sign: float):
    """``t -> sign * (h(t), h'(t), h''(t))``, h(t) = 2x l'(x) at x = t (t / lam)."""
    # t (t / lam), not t * t / lam: at lam = 1e-300 the product t * t is subnormal.
    # The last kernel point [t0, r0, reach] (see density._ratio_at).
    anchor = [math.nan, math.nan, 0.0]

    def h(t: float) -> tuple[float, float, float]:
        r, dr = _ratio_at(nu, t, anchor)
        value = t * r + (nu - 2.0) - t * (t / lam)
        slope = t + (2.0 - nu) * r - t * r * r - 2.0 * t / lam
        curve = 1.0 + (2.0 - nu) * dr - r * r - 2.0 * t * r * dr - 2.0 / lam
        return sign * value, sign * slope, sign * curve

    return h


def _t_inf(nu: float) -> float:
    """The root t_inf of s(t) = t r_{nu/2}(t) = 2 - nu, from the stored fit, for 0 < nu < 2."""
    if nu < 1.0:
        fitted = _horner(_T_INF_LOW, math.sqrt(nu))
    else:
        fitted = _horner(_T_INF_HIGH, math.sqrt(2.0 - nu))
    return nu ** 0.25 * math.sqrt(2.0 - nu) * fitted


def _antimode_start(nu: float, lam: float) -> float | None:
    """The antimode in t, from t_inf(nu) and a quadratic correction for finite lam (lam > 2).

    The antimode tends to t_inf as lam -> inf.  At t_inf, r = (2 - nu) / t_inf,
    so s' = t + (2 - nu) r - t r^2 = t_inf and s'' = 1 - r^2 - (2 - nu) r', with
    no Bessel call; then h(t_inf + d) = 0 to second order in d is
    s' d + s'' d^2 / 2 = (t_inf + d)^2 / lam, whose smaller root is taken.
    None where it has no real root.
    """
    t = _t_inf(nu)
    r = (2.0 - nu) / t
    curve = 1.0 - r * r - (2.0 - nu) * _ratio_slope(nu, t, r)
    a = 0.5 * curve - 1.0 / lam
    b = t - 2.0 * t / lam
    c = t * (t / lam)
    disc = b * b + 4.0 * a * c
    if not disc >= 0.0:
        return None
    return t + 2.0 * c / (b + math.sqrt(disc))


def mode_report(p: Params, tol: float = DEFAULT_TOL) -> ModeReport:
    """Full mode summary: zero mode flag, interior mode, antimode, bounds.

    Both roots are solved in t = sqrt(lam x) to relative ``tol``; see the
    module notes for the brackets; one :func:`critical_lambda` lookup below
    nu = 2 gives both the existence test and tau.  An interior mode outside
    its location bounds, widened by ``tol * max(1, upper)``, raises
    :class:`InternalConsistencyError`; ``lam * x`` overflowing at the upper
    end of the bracket (lam above about 1.34e154) raises :class:`DomainError`.
    """
    _check_tol(tol)
    nu, lam = p.nu, p.lam
    solved = critical_lambda(nu) if nu < 2.0 else None
    if _decreasing(nu, lam, solved):
        return ModeReport(
            params=p,
            zero_is_mode=True,
            interior_mode=None,
            antimode=None,
            bounds_lower=None,
            bounds_upper=None,
            bound_source=None,
        )
    lower, upper, source = _bounds_with_source(nu, lam)
    # The upper end of the bracket in x: the bound itself for nu < 2, padded otherwise.
    x_hi = upper if nu < 2.0 else upper + _BRACKET_PAD * max(1.0, upper)
    anti = None
    rtol = 0.5 * tol
    slope = _slope_in_t(nu, lam, 1.0)
    if lam < LAMBDA_ZERO:
        # Only nu > 2 has an interior mode here: the central one.
        mode = nu - 2.0
    elif lam * x_hi == math.inf:
        raise DomainError(
            f"lam={lam!r} is too large to locate the mode: t = sqrt(lam x) needs lam * x below "
            f"{sys.float_info.max:.4g}, and lam * x overflows at the bracket end x={x_hi!r} "
            f"(for nu small next to lam, lam must stay below about {math.sqrt(sys.float_info.max):.4g})"
        )
    elif nu < 2.0:
        # Both brackets are theorems (see the module notes): no end is evaluated.
        # tau is the stored fit, off the zero of g_nu by some d within FIT_TOL
        # relative.  That is harmless here: h(tau + d) = (tau + d)^2
        # (1/F(tau + d) - 1/lam), and F is stationary at tau, so the error
        # moves the sign of h at the shared end only for lam within O(d^2) of
        # lambda_nu.
        tau = solved.tau
        # The mode lies just below lam + nu - 3 (by about (3 - nu) / (2 lam)).
        start = lam + nu - 3.0 + (nu - 3.0) / (2.0 * lam)
        t = _bisect(slope, tau, math.sqrt(lam * x_hi), rtol,
                    math.sqrt(lam * start) if lam * start > tau * tau else None)[0]
        mode = t * (t / lam)
        t = _bisect(_slope_in_t(nu, lam, -1.0), math.sqrt(nu * (2.0 - nu)), tau, rtol,
                    _antimode_start(nu, lam))[0]
        anti = t * (t / lam)
    else:
        lo = lower - _BRACKET_PAD * max(1.0, lower)
        if not lo > 1e-12:
            # The binding bound within ~1e-6 of 0.  The clamp can lie above
            # the mode, half a positive lower bound cannot (lam + nu - 4 rounds
            # to 0 at nu = 2, lam = 2 + 4e-16); the lower end is checked here only.
            lo = 1e-12
            if not slope(math.sqrt(lam * lo))[0] > 0.0:
                concave = (nu - 2.0) * (1.0 + lam / nu)
                lo = 0.5 * max(concave, (lam - 2.0) + (nu - 2.0))
                h_lo = slope(math.sqrt(lam * lo))[0]
                if not h_lo > 0.0:
                    raise InternalConsistencyError(
                        f"interior mode outside its bounds [{lower!r}, {upper!r}] at nu={nu}, "
                        f"lam={lam}: 2x l'(x) is {h_lo!r} at x={lo!r}"
                    )
        if nu == 2.0 and lam <= 4.0:
            e = lam - 2.0
            start = 4.0 * e * _horner(_NU_TWO_Y, e) / lam
        else:
            start = 0.5 * (lower + upper)
        t = _bisect(slope, math.sqrt(lam * lo), math.sqrt(lam * x_hi), rtol, math.sqrt(lam * start))[0]
        mode = t * (t / lam)
    width = tol * max(1.0, upper)
    if not lower - width <= mode <= upper + width:
        raise InternalConsistencyError(
            f"interior mode {mode!r} outside its bounds [{lower!r}, {upper!r}] at nu={nu}, lam={lam}"
        )
    return ModeReport(
        params=p,
        zero_is_mode=nu < 2.0,
        interior_mode=mode,
        antimode=anti,
        bounds_lower=lower,
        bounds_upper=upper,
        bound_source=source,
    )
