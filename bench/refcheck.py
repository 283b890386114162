"""Reference answers and the checker that judges every benchmark operation.

The reference shares no code with ``ncx2shape``: Bessel values come from
``scipy.special.ive`` (AMOS), composed in log space, with a log-space power
series where ``ive`` underflows (large order at tiny argument).  ``mpmath``
at 30 digits spot-checks the reference itself on a few points per run.

Tolerances follow the error levels the README documents, as hybrids
``|got - ref| <= tol * scale`` where ``scale`` is at least 1 and grows with
the size of the terms the formula cancels (the README's
``max(1, |a|, |b|)`` rule, applied to the terms of each closed form):

* ``log_density``: 1e-10, the documented agreement of the two density
  routes;
* ``d1``, ``d2``: 1e-9, the package's own ``l''`` consistency tolerance;
* mode and antimode: the reference slope must change sign across
  ``x +- 10 * tol * max(1, x)``, ``tol`` being the solver tolerance the
  answer was computed at; the mode must also lie inside its own reported
  bounds up to ``tol * max(1, |bound|)``;
* ``lambda_nu``: the reference indicator must change sign across
  ``c +- 10 * tol``; shape flags must agree with it.

Every check returns a list of failure reasons; an empty list is a pass.
A reference slope too close to zero to resolve its sign (below 1e-13 of
its scale) counts as agreeing.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special

LOG_DENSITY_TOL = 1e-10
DERIVATIVE_TOL = 1e-9
PROBE = 10.0
UNRESOLVED = 1e-13
LAMBDA_ZERO = 1e-300  # below this the package routes to the central law
SPOT_TOL = 1e-12  # reference vs mpmath, 100x tighter than what it enforces

TOLERANCES = {
    "log_density_hybrid": LOG_DENSITY_TOL,
    "d1_hybrid": DERIVATIVE_TOL,
    "d2_hybrid": DERIVATIVE_TOL,
    "root_probe_multiple_of_tol": PROBE,
    "unresolved_slope": UNRESOLVED,
    "reference_vs_mpmath": SPOT_TOL,
}

_LOG2 = math.log(2.0)
_TINY_IVE = 1e-280


def _log_iv_series(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log I_v(t) from the ascending series, summed relative to its first term."""
    q = 0.25 * t * t
    term = np.ones_like(t)
    total = np.ones_like(t)
    for k in range(1, 400):
        term = term * q / (k * (v + k))
        total += term
        if np.all(term < 1e-17 * total):
            break
    return v * np.log(0.5 * t) - special.gammaln(v + 1.0) + np.log(total)


def _ive_pair(v, t):
    """(ive, log I) for broadcast arrays, falling back to the series on underflow."""
    v, t = np.broadcast_arrays(np.asarray(v, float), np.asarray(t, float))
    with np.errstate(all="ignore"):
        e = special.ive(v, t)
        log_i = np.log(e) + t
    bad = ~(e > _TINY_IVE) | ~np.isfinite(log_i)
    if bad.any():
        log_i = np.array(log_i, copy=True)
        log_i[bad] = _log_iv_series(v[bad], t[bad])
    return e, log_i, bad


def log_iv(v, t) -> np.ndarray:
    """log I_v(t), v > -1, t > 0."""
    return _ive_pair(v, t)[1]


def ratio(v, t) -> np.ndarray:
    """I_v(t) / I_{v-1}(t)."""
    e1, l1, b1 = _ive_pair(v, t)
    e0, l0, b0 = _ive_pair(np.asarray(v, float) - 1.0, t)
    with np.errstate(all="ignore"):
        direct = e1 / e0
    return np.where(b1 | b0, np.exp(l1 - l0), direct)


def density_terms(nu: float, lam: float, x) -> dict:
    """Reference l, l', l'' and the scales their tolerances use, over an array of x."""
    x = np.asarray(x, float)
    if lam < LAMBDA_ZERO:
        l = (0.5 * nu - 1.0) * np.log(0.5 * x) - 0.5 * x - _LOG2 - math.lgamma(0.5 * nu)
        d1 = -0.5 + (nu - 2.0) / (2.0 * x)
        d2 = (2.0 - nu) / (2.0 * x * x)
        s_l = np.maximum.reduce([np.ones_like(x), np.abs(l), 0.5 * x])
        s_1 = np.maximum(1.0, 0.5 + np.abs(nu - 2.0) / (2.0 * x))
        s_2 = np.maximum(1.0, np.abs(d2))
        return {"l": l, "d1": d1, "d2": d2, "s_l": s_l, "s_1": s_1, "s_2": s_2}
    t = np.sqrt(lam * x)
    log_i = log_iv(0.5 * nu - 1.0, t)
    r = ratio(0.5 * nu, t)
    shift = 0.25 * (nu - 2.0) * (np.log(x) - math.log(lam))
    l = -0.5 * (x + lam) + shift + log_i - _LOG2
    slope_term = math.sqrt(lam) / (2.0 * np.sqrt(x)) * r
    d1 = -0.5 + (nu - 2.0) / (2.0 * x) + slope_term
    a = (2.0 - nu) / (2.0 * x * x)
    b = lam / (4.0 * x)
    c = nu * math.sqrt(lam) / (4.0 * x * np.sqrt(x)) * r
    e = b * r * r
    d2 = a + b - c - e
    s_l = np.maximum.reduce([np.ones_like(x), 0.5 * (x + lam), np.abs(shift), np.abs(log_i)])
    s_1 = np.maximum(1.0, 0.5 + np.abs(nu - 2.0) / (2.0 * x) + np.abs(slope_term))
    s_2 = np.maximum(1.0, np.abs(a) + b + np.abs(c) + e)
    return {"l": l, "d1": d1, "d2": d2, "s_l": s_l, "s_1": s_1, "s_2": s_2}


def _ive_scalar(v: float, t: float) -> tuple[float, float, bool]:
    """Scalar (ive, log I, underflowed) without array overhead."""
    e = float(special.ive(v, t))
    if e > _TINY_IVE and math.isfinite(e):
        return e, math.log(e) + t, False
    return e, float(_log_iv_series(np.array([v]), np.array([t]))[0]), True


def ratio_scalar(v: float, t: float) -> float:
    """I_v(t) / I_{v-1}(t) for one point."""
    e1, l1, b1 = _ive_scalar(v, t)
    e0, l0, b0 = _ive_scalar(v - 1.0, t)
    return math.exp(l1 - l0) if (b1 or b0) else e1 / e0


def slope(nu: float, lam: float, x: float) -> tuple[float, float]:
    """Reference l'(x) and its scale at one point."""
    if lam < LAMBDA_ZERO:
        return -0.5 + (nu - 2.0) / (2.0 * x), max(1.0, 0.5 + abs(nu - 2.0) / (2.0 * x))
    term = math.sqrt(lam) / (2.0 * math.sqrt(x)) * ratio_scalar(0.5 * nu, math.sqrt(lam * x))
    d1 = -0.5 + (nu - 2.0) / (2.0 * x) + term
    return d1, max(1.0, 0.5 + abs(nu - 2.0) / (2.0 * x) + abs(term))


def indicator(nu: float, lam: float) -> float:
    """Criticality indicator r_{nu/2}(t) - (lam - 2)/t, t = sqrt(lam (lam + nu - 4)).

    Negative below lambda_nu, positive above; -inf at and below the domain
    edge lam = 4 - nu, where it falls to -inf.
    """
    if lam <= 4.0 - nu:
        return -math.inf
    t = math.sqrt(lam * (lam + nu - 4.0))
    return ratio_scalar(0.5 * nu, t) - (lam - 2.0) / t


def _sign(value: float, scale: float = 1.0) -> int:
    """Sign of a reference value, 0 when it is too small to resolve."""
    if abs(value) <= UNRESOLVED * scale:
        return 0
    return 1 if value > 0.0 else -1


def _crit_sign(nu: float, lam: float) -> int:
    return _sign(indicator(nu, lam))


def check_critical(nu: float, c, tol: float) -> list[str]:
    """lambda_nu = c must bracket the reference indicator's sign change."""
    if c is None or not math.isfinite(c):
        return ["critical_lambda_missing"]
    delta = PROBE * tol + 1e-12 * abs(c)
    if _crit_sign(nu, c - delta) > 0 or _crit_sign(nu, c + delta) < 0:
        return ["critical_lambda"]
    return []


def check_shape(nu: float, lam: float, rep: dict, crit_tol: float) -> list[str]:
    """Four-way shape flags plus lambda_nu against the reference."""
    bad: list[str] = []
    if rep["log_concave"] != (nu >= 2.0):
        bad.append("log_concave_flag")
    if rep["convex_then_concave"] != (nu < 2.0 and lam > 0.0):
        bad.append("convex_then_concave_flag")
    c = rep["critical_lambda"]
    if nu > 2.0:
        if c is not None or rep["decreasing"] or rep["bimodal"]:
            bad.append("shape_flags")
        return bad
    if nu == 2.0:
        if c != 2.0 or rep["decreasing"] != (lam <= 2.0) or rep["bimodal"]:
            bad.append("shape_flags")
        return bad
    crit_bad = check_critical(nu, c, crit_tol)
    if crit_bad:
        return bad + crit_bad
    if rep["decreasing"] != (lam <= c) or rep["bimodal"] != (lam > c):
        bad.append("shape_flags")
    return bad


def _expects_interior_mode(nu: float, lam: float, crit_tol: float):
    """True / False, or None when lam is too close to lambda_nu to call."""
    if nu > 2.0:
        return True
    if nu == 2.0:
        return lam > 2.0
    delta = PROBE * crit_tol
    lo, hi = _crit_sign(nu, lam - delta), _crit_sign(nu, lam + delta)
    if lo > 0:
        return True
    if hi < 0:
        return False
    return None


def _root_sign_change(nu: float, lam: float, x: float, tol: float, falling: bool) -> bool:
    h = PROBE * tol * max(1.0, x)
    left = max(x - h, 0.5 * x)
    s_left = _sign(*slope(nu, lam, left))
    s_right = _sign(*slope(nu, lam, x + h))
    if falling:
        return s_left >= 0 and s_right <= 0
    return s_left <= 0 and s_right >= 0


def check_modes(nu: float, lam: float, rep: dict, mode_tol: float, crit_tol: float) -> list[str]:
    """Zero-mode flag, interior mode, antimode and bounds against the reference."""
    bad: list[str] = []
    if rep["zero_is_mode"] != (nu < 2.0 or (nu == 2.0 and lam <= 2.0)):
        bad.append("zero_is_mode_flag")
    expected = _expects_interior_mode(nu, lam, crit_tol)
    mode, anti = rep["interior_mode"], rep["antimode"]
    if expected is not None and (mode is not None) != expected:
        bad.append("mode_existence")
    if expected is not None and nu < 2.0 and (anti is not None) != expected:
        bad.append("antimode_existence")
    if nu >= 2.0 and anti is not None:
        bad.append("antimode_existence")
    if mode is not None:
        lower, upper = rep["bounds_lower"], rep["bounds_upper"]
        if lower is None or upper is None:
            bad.append("bounds_missing")
        elif not (
            lower - mode_tol * max(1.0, abs(lower)) <= mode <= upper + mode_tol * max(1.0, abs(upper))
        ):
            bad.append("mode_outside_bounds")
        if not (mode > 0.0 and _root_sign_change(nu, lam, mode, mode_tol, falling=True)):
            bad.append("mode_slope")
    if anti is not None:
        if not (anti > 0.0 and _root_sign_change(nu, lam, anti, mode_tol, falling=False)):
            bad.append("antimode_slope")
        if mode is not None and not anti < mode:
            bad.append("antimode_order")
    return bad


def check_density_rows(nu: float, lam: float, xs, l, d1, d2, density=None) -> list[str]:
    """Grid rows (None where the call raised) against the reference."""
    ref = density_terms(nu, lam, xs)
    bad: list[str] = []
    for name, got, key, scale, tol in (
        ("log_density", l, "l", "s_l", LOG_DENSITY_TOL),
        ("d1", d1, "d1", "s_1", DERIVATIVE_TOL),
        ("d2", d2, "d2", "s_2", DERIVATIVE_TOL),
    ):
        vals = np.array([np.nan if v is None else v for v in got], dtype=float)
        err = np.abs(vals - ref[key])
        if not np.all(err <= tol * ref[scale]):  # NaN (a raised call) fails too
            bad.append(name)
    if density is not None:
        dens = np.array([np.nan if v is None else v for v in density], dtype=float)
        with np.errstate(all="ignore"):
            rel = np.abs(dens / np.exp(ref["l"]) - 1.0)
        if not np.all(rel <= LOG_DENSITY_TOL * ref["s_l"]):
            bad.append("density")
    return bad


# --- high-precision spot checks of the reference itself -----------------

def _mp_terms(nu: float, lam: float, x: float):
    with mpmath.workdps(30):
        nu_m, lam_m, x_m = mpmath.mpf(nu), mpmath.mpf(lam), mpmath.mpf(x)
        if lam < LAMBDA_ZERO:
            l = (nu_m / 2 - 1) * mpmath.log(x_m / 2) - x_m / 2 - mpmath.log(2) - mpmath.loggamma(nu_m / 2)
            d1 = -mpmath.mpf(1) / 2 + (nu_m - 2) / (2 * x_m)
            return float(l), float(d1)
        t = mpmath.sqrt(lam_m * x_m)
        i_lo = mpmath.besseli(nu_m / 2 - 1, t)
        r = mpmath.besseli(nu_m / 2, t) / i_lo
        l = (-(x_m + lam_m) / 2 + (nu_m - 2) / 4 * (mpmath.log(x_m) - mpmath.log(lam_m))
             + mpmath.log(i_lo) - mpmath.log(2))
        d1 = -mpmath.mpf(1) / 2 + (nu_m - 2) / (2 * x_m) + mpmath.sqrt(lam_m / x_m) / 2 * r
        return float(l), float(d1)


def spot_check_density(nu: float, lam: float, x: float) -> bool:
    """True when the reference l and l' agree with mpmath at 30 digits."""
    ref = density_terms(nu, lam, np.array([x]))
    l_mp, d1_mp = _mp_terms(nu, lam, x)
    return (abs(float(ref["l"][0]) - l_mp) <= SPOT_TOL * float(ref["s_l"][0])
            and abs(float(ref["d1"][0]) - d1_mp) <= SPOT_TOL * float(ref["s_1"][0]))


def spot_check_indicator(nu: float, lam: float) -> bool:
    """True when the reference indicator agrees with mpmath at 30 digits."""
    if lam <= 4.0 - nu:
        return True
    with mpmath.workdps(30):
        nu_m, lam_m = mpmath.mpf(nu), mpmath.mpf(lam)
        t = mpmath.sqrt(lam_m * (lam_m + nu_m - 4))
        g = float(mpmath.besseli(nu_m / 2, t) / mpmath.besseli(nu_m / 2 - 1, t) - (lam_m - 2) / t)
    return abs(indicator(nu, lam) - g) <= SPOT_TOL * max(1.0, abs(g))
