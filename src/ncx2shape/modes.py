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
the root-finder shared with :mod:`ncx2shape.shape` takes Halley steps on
them.  It narrows t to relative width ``tol / 2`` and returns x = t^2 / lam, so
``tol`` is relative: each root lies within about ``tol * x / 2`` of a sign
change of the slope.  It returns the closing step's point, usually far
closer than that: at the default ``tol``, on the inputs the test suite
pins (away from the fold at lam = lambda_nu), the 12 digits the CLI prints
are those of the rounded root.

For nu < 2 the brackets in t are theorems, and no end is evaluated:

* mode      (tau, sqrt(lam (lam + nu - 3))): h(tau) = tau^2 (1/lambda_nu -
  1/lam) > 0 exactly when the density is bimodal, and lam + nu - 3 is the
  strict upper bound;
* antimode  (sqrt(nu (2 - nu)), tau): r_mu(t) < t / (2 mu), from
  I_{mu-1} - I_{mu+1} = (2 mu / t) I_mu, so s < t^2 / nu and h < 0
  wherever t^2 <= nu (2 - nu).

For nu >= 2 the bracket is the proven bounds, padded (at nu = 5,
lam = 5.96e-8 the mode is 6e-16 above its lower bound, where h rounds to
0), and no end is evaluated either.  Only where the padded lower bound is
not above 1e-12 (nu within ~1e-6 of 2) is the lower end clamped to 1e-12
and checked on h; below the mode it moves to half a positive lower bound,
and a wrong sign there raises :class:`InternalConsistencyError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .density import LAMBDA_ZERO, Params, _ratio_terms
from .errors import DomainError, InternalConsistencyError
from .shape import _bisect, _check_tol, _decreasing, critical_lambda

# Position tolerance (relative) for the mode and antimode solvers.
DEFAULT_TOL = 1e-10

# Provenance of the binding lower bound in a ModeReport.
BOUND_LOOSE = "loose"
BOUND_NU_GE_2 = "nu_ge_2"
BOUND_NU_GT_3 = "nu_gt_3"
BOUND_BIMODAL = "bimodal"

_BRACKET_PAD = 1e-6


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


def _slope_in_t(nu: float, lam: float, sign: float):
    """``t -> sign * (h(t), h'(t), h''(t))``, h(t) = 2x l'(x) at x = t (t / lam)."""
    # t (t / lam), not t * t / lam: at lam = 1e-300 the product t * t is subnormal.
    def h(t: float) -> tuple[float, float, float]:
        r, dr = _ratio_terms(nu, t)
        value = t * r + (nu - 2.0) - t * (t / lam)
        slope = t + (2.0 - nu) * r - t * r * r - 2.0 * t / lam
        curve = 1.0 + (2.0 - nu) * dr - r * r - 2.0 * t * r * dr - 2.0 / lam
        return sign * value, sign * slope, sign * curve

    return h


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
        tau = solved.tau
        # The mode lies just below lam + nu - 3 (by about (3 - nu) / (2 lam)).
        start = lam + nu - 3.0 + (nu - 3.0) / (2.0 * lam)
        t = _bisect(slope, tau, math.sqrt(lam * x_hi), 0.0, rtol,
                    math.sqrt(lam * start) if lam * start > tau * tau else None)[0]
        mode = t * (t / lam)
        t = _bisect(_slope_in_t(nu, lam, -1.0), math.sqrt(nu * (2.0 - nu)), tau, 0.0, rtol)[0]
        anti = t * (t / lam)
    else:
        concave = (nu - 2.0) * (1.0 + lam / nu)
        lo = concave - _BRACKET_PAD * max(1.0, concave)
        if not lo > 1e-12:
            # nu within ~1e-6 of 2.  The clamp can lie above the mode, half a
            # positive lower bound cannot (lam + nu - 4 rounds to 0 at nu = 2,
            # lam = 2 + 4e-16); the lower end is checked here only.
            lo = 1e-12
            if not slope(math.sqrt(lam * lo))[0] > 0.0:
                lo = 0.5 * max(concave, (lam - 2.0) + (nu - 2.0))
                h_lo = slope(math.sqrt(lam * lo))[0]
                if not h_lo > 0.0:
                    raise InternalConsistencyError(
                        f"interior mode outside its bounds [{lower!r}, {upper!r}] at nu={nu}, "
                        f"lam={lam}: 2x l'(x) is {h_lo!r} at x={lo!r}"
                    )
        t = _bisect(slope, math.sqrt(lam * lo), math.sqrt(lam * x_hi), 0.0, rtol,
                    math.sqrt(lam * 0.5 * (lower + upper)))[0]
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
