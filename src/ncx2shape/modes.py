"""Mode and antimode location for the noncentral chi-squared density.

An interior mode exists exactly when nu > 2, or nu = 2 with lam > 2, or
nu < 2 with lam above the critical noncentrality.  When it exists it is the
unique zero of the log-density slope inside a provable bracket:

* lower  lam + nu - 4        (always, strict)
* lower  (nu-2)(1 + lam/nu)  (nu >= 2)
* lower  lam + nu - 3        (nu > 3, strict)
* upper  lam + nu - 2        (nu >= 2)
* upper  lam + nu - 3        (nu < 2, strict)

In the bimodal regime the density also has a local minimum (antimode)
between zero and the inflection point of the log density.

Both roots are zeros of the slope l', found by the root-finder shared with
:mod:`ncx2shape.shape` (Newton steps on l' and l'' from one Bessel ratio,
kept inside a bracket whose ends are checked on l') until the bracket width
is at most ``tol * max(1, hi)``.  :func:`mode_report` solves them together,
split at the inflection point ``tau**2 / lam`` of the cached entry that
decides existence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bessel import bessel_ratio
from .density import Params, _log_density_d1_d2, log_density_d1
from .errors import DomainError
from .shape import _bisect, _check_tol, _step, critical_lambda

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


def has_interior_mode(p: Params) -> bool:
    """Existence of an interior mode."""
    nu, lam = p.nu, p.lam
    if nu > 2.0:
        return True
    if nu == 2.0:
        return lam > 2.0
    return lam > critical_lambda(nu).lambda_nu


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


def mode_bounds(p: Params) -> tuple[float, float]:
    """Location bounds (lower, upper) for the interior mode.

    Raises :class:`DomainError` when no interior mode exists.
    """
    if not has_interior_mode(p):
        raise DomainError(f"no interior mode at nu={p.nu}, lam={p.lam}")
    lower, upper, _ = _bounds_with_source(p.nu, p.lam)
    return lower, upper


def interior_mode(p: Params, tol: float = DEFAULT_TOL) -> float | None:
    """Location of the interior mode, or None when there is none; see :func:`mode_report`."""
    return mode_report(p, tol).interior_mode


def antimode(p: Params, tol: float = DEFAULT_TOL) -> float | None:
    """Location of the interior local minimum, or None outside the bimodal regime.

    Solved together with the interior mode by :func:`mode_report`.
    """
    return mode_report(p, tol).antimode


def mode_report(p: Params, tol: float = DEFAULT_TOL) -> ModeReport:
    """Full mode summary: zero mode flag, interior mode, antimode, bounds.

    The mode bracket comes from the location bounds, padded outward so the
    slope straddles zero strictly even when a bound is attained (lam = 0
    makes both log-concave bounds collapse onto the mode).  For nu < 2 the
    left end is the inflection point, where the slope is provably positive.
    The antimode lies between zero, where the slope falls to -inf, and the
    inflection point; the log density is convex there, so the zero is unique.
    """
    _check_tol(tol)
    nu, lam = p.nu, p.lam
    zero_is_mode = nu < 2.0 or (nu == 2.0 and lam <= 2.0)
    if not has_interior_mode(p):
        return ModeReport(
            params=p,
            zero_is_mode=zero_is_mode,
            interior_mode=None,
            antimode=None,
            bounds_lower=None,
            bounds_upper=None,
            bound_source=None,
        )
    lower, upper, source = _bounds_with_source(nu, lam)
    slope = partial(log_density_d1, p)
    slope_curvature = partial(_log_density_d1_d2, p)
    if nu >= 2.0:
        lo0 = max((nu - 2.0) * (1.0 + lam / nu), 0.0)
        lo = max(lo0 - _BRACKET_PAD * max(1.0, abs(lo0)), 1e-12)
        start = 0.5 * (lower + upper)
    else:
        lo = x_tilde = critical_lambda(nu).tau ** 2 / lam
        # The mode lies just below lam + nu - 3 (by about (3 - nu) / (2 lam)).
        start = upper
    # Each end of the mode bracket gets 200 evaluations to find its sign.
    lo = _step(slope, lo, 0.5, lo * 0.5**199, 1.0, "no positive slope found left of the mode")
    hi = upper + _BRACKET_PAD * max(1.0, upper)
    hi = _step(slope, hi, 2.0, hi * 2.0**199, -1.0, "no negative slope found right of the mode")
    mode = _bisect(slope_curvature, lo, hi, tol, tol, start)[0]
    anti = None
    if nu < 2.0:
        lo = _step(slope, 0.5 * x_tilde, 0.25, 1e-280, -1.0, "no negative slope found near zero")

        def negated(x: float) -> tuple[float, float]:
            d1, d2 = slope_curvature(x)
            return -d1, -d2

        anti = _bisect(negated, lo, x_tilde, tol, tol)[0]
    return ModeReport(
        params=p,
        zero_is_mode=zero_is_mode,
        interior_mode=mode,
        antimode=anti,
        bounds_lower=lower,
        bounds_upper=upper,
        bound_source=source,
    )


def mode_bound_indicator(nu: float, lam: float) -> float:
    """Sign diagnostic for the log-density slope at x = lam + nu - 3.

    With z = lam + nu - 3 and t = sqrt(lam z) the value is

        r_{nu/2}(t) - (lam - 1) / t,

    which has the sign of the slope at z.  Positive for nu > 3 (the mode
    sits above z) and negative throughout the bimodal regime (the mode sits
    below z).  Requires lam > max(0, 3 - nu).
    """
    if math.isnan(nu) or nu <= 0.0:
        raise DomainError(f"degrees of freedom must be > 0, got {nu}")
    z = lam + nu - 3.0
    if math.isnan(lam) or lam <= 0.0 or z <= 0.0:
        raise DomainError(f"indicator requires lam > max(0, 3 - nu), got lam={lam}")
    t = math.sqrt(lam * z)
    return bessel_ratio(0.5 * nu, t) - (lam - 1.0) / t


@dataclass(frozen=True)
class IndicatorLimitReport:
    """Edge limits of the mode bound indicator over a grid of nu values."""

    nus: np.ndarray
    values: np.ndarray
    max_value: float
    all_negative: bool


def mode_bound_indicator_limits(nus) -> IndicatorLimitReport:
    """Limiting indicator values as the noncentrality falls to its domain edge.

    At lam = 4 - nu the indicator tends to

        r_{nu/2}(sqrt(4 - nu)) - (3 - nu) / sqrt(4 - nu),

    which stays negative across 0 < nu < 2.  That sign, combined with the
    indicator's single admissible sign-change direction, pins the strict
    upper bound for bimodal interior modes.
    """
    arr = np.asarray(nus, dtype=float)
    if arr.size == 0 or np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 2.0):
        raise DomainError("grid must lie inside (0, 2)")
    values = np.array(
        [bessel_ratio(0.5 * nu, math.sqrt(4.0 - nu)) - (3.0 - nu) / math.sqrt(4.0 - nu) for nu in arr]
    )
    return IndicatorLimitReport(
        nus=arr,
        values=values,
        max_value=float(values.max()),
        all_negative=bool(np.all(values < 0.0)),
    )
