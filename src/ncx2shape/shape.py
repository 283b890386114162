"""Shape classification of the noncentral chi-squared density.

For nu >= 2 the density is log-concave.  For 0 < nu < 2 there is a critical
noncentrality separating two regimes: the density is decreasing for
lam <= critical and bimodal (one mode at zero, one interior) above it.

Both come from one root per nu: with t = sqrt(lam x) and r = r_{nu/2}(t),
x^2 l''(x) = g_nu(t) = (2 - nu)/2 + t^2 (1 - r^2)/4 - nu t r/4.  Its zero
tau gives the inflection point tau^2 / lam, where the slope peaks, so the
density is bimodal iff lam > lambda_nu = F(tau) = min_t F(t), with
F(t) = t^2 / (t r(t) + nu - 2).  The paper's indicator is a cross-check.

Every root of the shape problem is a root in t of a function of
s(t) = t r_{nu/2}(t): g_nu for tau, and 2x l'(x) = s + nu - 2 - t^2 / lam
for the interior mode and the antimode (see :mod:`ncx2shape.modes`).
Each hands the solver its value and derivative for one Bessel ratio,
through the kernels in :mod:`ncx2shape.density`.  Every solver finds a
single sign change the same way: :func:`_bisect` narrows a bracket by
Newton steps kept inside it, falling back to halving, until
``hi - lo <= max(xtol, rtol * hi)``.  No solver searches for a bracket:
each end is a theorem, or is evaluated once and a wrong sign raises
:class:`InternalConsistencyError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .bessel import bessel_ratio
from .density import LAMBDA_ZERO, Params, _curvature, _curvature_slope, _ratio_terms, log_density_d2
from .errors import ConvergenceError, DomainError, InternalConsistencyError

DEFAULT_TOL = 1e-8

# Critical noncentrality at nu = 2, the endpoint of the sub-two regime.
# Decreasing and log-concave overlap exactly there.
CRITICAL_LAMBDA_AT_2 = 2.0

_INFLECTION_REL_TOL = 1e-10

_TAU_MAX = 2.0 * math.sqrt(3.0)  # upper end of the tau bracket


@dataclass(frozen=True)
class CriticalLambda:
    """Critical noncentrality for 0 < nu < 2, with solver metadata.

    ``tau`` is the zero of g_nu (the inflection point is ``tau**2 / lam``);
    ``iterations`` counts the evaluations of g_nu that solved tau to
    relative width ``tol`` (Newton steps, halvings and the closing pair).
    """

    nu: float
    lambda_nu: float
    tau: float
    tol: float
    iterations: int


@dataclass(frozen=True)
class ShapeReport:
    """Four-way shape flags for one parameter pair.

    ``critical_lambda`` is populated exactly when 0 < nu <= 2.  At nu = 2
    the decreasing and log-concave categories overlap for lam <= 2.
    """

    params: Params
    log_concave: bool
    decreasing: bool
    bimodal: bool
    convex_then_concave: bool
    critical_lambda: float | None


def criticality_indicator(nu: float, lam: float) -> float:
    """Scalar whose sign separates decreasing from bimodal, for 0 < nu < 2.

    With t = sqrt(lam (lam + nu - 4)) the indicator is

        r_{nu/2}(t) - (lam - 2) / t,

    defined for lam > 4 - nu.  It is negative below the critical
    noncentrality and positive above it, crossing zero exactly once.
    """
    if math.isnan(nu) or not 0.0 < nu < 2.0:
        raise DomainError(f"indicator requires 0 < nu < 2, got {nu}")
    if math.isnan(lam) or lam <= 4.0 - nu:
        raise DomainError(f"indicator requires lam > 4 - nu = {4.0 - nu}, got {lam}")
    t = math.sqrt(lam * (lam + nu - 4.0))
    return bessel_ratio(0.5 * nu, t) - (lam - 2.0) / t


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tol}")


def _bisect(f, lo: float, hi: float, xtol: float, rtol: float,
            x: float | None = None) -> tuple[float, int]:
    """Midpoint of the final bracket around the sign change of ``f``, and the evaluation count.

    ``f(x)`` returns ``(value, derivative)``.  The value is positive at
    ``lo`` and not positive at ``hi``; neither end is evaluated.  Every
    evaluated point becomes the new ``lo`` or ``hi``, starting from ``x``
    (default: the midpoint).  The next point is the Newton step from the
    last one when it stays in the bracket and is at most half the previous
    step (rtsafe, *Numerical Recipes* 9.4), and the midpoint otherwise.  A
    Newton step shorter than half the stop width ``w = max(xtol, rtol * x)``
    closes the bracket instead: ``f`` is evaluated ``w/4`` beyond the Newton
    point, then ``w/4`` short of it, and when the first of these lands on
    the side of the last point the next step is the midpoint.  Evaluations
    other than halvings are capped at the number of halvings the bracket
    needs, so a derivative that is wrong, zero or NaN at most doubles the
    cost of plain bisection.  Returns once ``hi - lo <= max(xtol, rtol *
    hi)``, so the answer always lies within half that width of a sign
    change; raises :class:`ConvergenceError` once a midpoint no longer
    splits the bracket.
    """
    evals = 0
    last = hi - lo
    # Evaluations other than halvings may number as many as halving alone needs.
    spare = math.log2((hi - lo) / max(xtol, rtol * hi))
    if x is None:
        x = 0.5 * (lo + hi)
    else:
        spare -= 1
    while hi - lo > max(xtol, rtol * hi):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                raise ConvergenceError(f"bisection cannot split [{lo!r}, {hi!r}] to the tolerance")
        value, slope = f(x)
        evals += 1
        positive = value > 0.0
        if positive:
            lo = x
        else:
            hi = x
        new = x - value / slope if slope else math.nan
        if spare > 0.0 and lo <= new <= hi and abs(new - x) <= 0.5 * last:
            spare -= 1
            h = 0.25 * max(xtol, rtol * new)
            if abs(new - x) < 2.0 * h:
                beyond = math.copysign(h, new - x)
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
                new = 0.5 * (lo + hi)
        else:
            new = 0.5 * (lo + hi)
        last = abs(new - x)
        x = new
    return 0.5 * (lo + hi), evals


@lru_cache(maxsize=1024)
def _critical_lambda_cached(nu: float, tol: float) -> CriticalLambda:
    def g(t: float) -> tuple[float, float]:
        r = _ratio_terms(nu, t)[0]
        return _curvature(nu, t, r), _curvature_slope(nu, t, r)

    # tau ~ 2 (12 nu)^(1/6) as nu -> 0 and ~ 2 (2 - nu)^(1/4) as nu -> 2; the
    # smaller of the two is within 15% of tau on all of (0, 2).
    start = 2.0 * min((12.0 * nu) ** (1.0 / 6.0), (2.0 - nu) ** 0.25)
    # g_nu(0+) = (2 - nu)/2 > 0.  tau_nu peaks at 2.339 near nu = 0.635, and
    # g_nu(2 sqrt 3) = 4 - nu/2 - 3 r^2 - (sqrt 3 / 2) nu r < 0 on all of
    # (0, 2) (tested); it is checked here, once per solve.
    if not g(_TAU_MAX)[0] < 0.0:
        raise InternalConsistencyError(f"g_nu is not negative at t = 2 sqrt 3, nu={nu}")
    tau, iterations = _bisect(g, 0.0, _TAU_MAX, 0.0, tol, start)
    # nu - 2.0 is exact; adding tau r to nu first would cancel near nu = 2.
    lambda_nu = tau * tau / (_ratio_terms(nu, tau)[1] + (nu - 2.0))
    return CriticalLambda(nu=nu, lambda_nu=lambda_nu, tau=tau, tol=tol, iterations=iterations)


def critical_lambda(nu: float, tol: float = DEFAULT_TOL) -> CriticalLambda:
    """Critical noncentrality for 0 < nu < 2, from the zero tau of g_nu.

    tau is solved to relative ``tol``; F is stationary there, so lambda_nu
    = F(tau) carries only the square of that error.  Results are kept per
    (nu, tol) in a bounded, thread-safe, semantically invisible cache.

    Values near the endpoints converge slowly in nu (the critical value
    approaches 4 as nu drops to 0 and 2 as nu rises to 2) but are still
    computed directly, with no asymptotic shortcut.
    """
    if math.isnan(nu) or not 0.0 < nu < 2.0:
        raise DomainError(f"critical noncentrality is defined for 0 < nu < 2, got {nu}")
    _check_tol(tol)
    return _critical_lambda_cached(float(nu), float(tol))


def classify(p: Params, tol: float = DEFAULT_TOL) -> ShapeReport:
    """Classify the density shape for one parameter pair.

    * log-concave exactly when nu >= 2,
    * log-convex then log-concave exactly when nu < 2 and lam > 0,
    * for nu <= 2: decreasing when lam is at most the critical value
      (taken as 2 at nu = 2), bimodal above it (nu < 2 only).
    """
    _check_tol(tol)
    nu, lam = p.nu, p.lam
    log_concave = nu >= 2.0
    convex_then_concave = nu < 2.0 and lam > 0.0
    crit: float | None
    if nu > 2.0:
        decreasing = False
        bimodal = False
        crit = None
    elif nu == 2.0:
        crit = CRITICAL_LAMBDA_AT_2
        decreasing = lam <= crit
        bimodal = False
    else:
        crit = critical_lambda(nu, tol).lambda_nu
        decreasing = lam <= crit
        bimodal = lam > crit
    return ShapeReport(
        params=p,
        log_concave=log_concave,
        decreasing=decreasing,
        bimodal=bimodal,
        convex_then_concave=convex_then_concave,
        critical_lambda=crit,
    )


def inflection_point(p: Params) -> float:
    """Unique zero of the log-density second derivative, for 0 < nu < 2, lam > 0.

    It is tau**2 / lam, with tau solved to 1e-10; one public l'' call there
    runs the self-check at the reported point.
    """
    nu, lam = p.nu, p.lam
    if not 0.0 < nu < 2.0:
        raise DomainError(f"inflection point requires 0 < nu < 2, got nu={nu}")
    if lam < LAMBDA_ZERO:
        raise DomainError(f"inflection point requires lam >= {LAMBDA_ZERO}, got lam={lam}")
    x = critical_lambda(nu, _INFLECTION_REL_TOL).tau ** 2 / lam
    log_density_d2(p, x)
    return x
