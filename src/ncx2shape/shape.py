"""Shape classification of the noncentral chi-squared density.

For nu >= 2 the density is log-concave.  For 0 < nu < 2 there is a critical
noncentrality separating two regimes: the density is decreasing for
lam <= critical and bimodal (one mode at zero, one interior) above it.
This rule, with its nu = 2 endpoint, is stated once, in :func:`_decreasing`,
which :func:`classify` and :func:`ncx2shape.modes.mode_report` share.

Both come from one root per nu: with t = sqrt(lam x) and r = r_{nu/2}(t),
x^2 l''(x) = g_nu(t) = (2 - nu)/2 + t^2 (1 - r^2)/4 - nu t r/4.  Its zero
tau gives the inflection point tau^2 / lam, where the slope peaks, so the
density is bimodal iff lam > lambda_nu = F(tau) = min_t F(t), with
F(t) = t^2 / (t r(t) + nu - 2).  The paper's indicator is a cross-check.

Every root of the shape problem is a root in t of a function of
s(t) = t r_{nu/2}(t): g_nu for tau, and 2x l'(x) = s + nu - 2 - t^2 / lam
for the interior mode and the antimode (see :mod:`ncx2shape.modes`).
Each hands the solver f, f' and f'' from one Bessel ratio r and r', r''
from the Riccati equation r' = 1 - (nu - 1) r / t - r^2.  A point that
moves farther than 2^-16 min(t, 4096) from the solve's last kernel point
calls the kernel (:func:`ncx2shape.density._ratio_terms`) and becomes the
new anchor; a nearer one, as the closing pair and the last short step
are, continues the anchor's r by the cubic Taylor polynomial of that
equation (:func:`ncx2shape.density._ratio_taylor`), within 2 ulp of the
kernel's own accuracy.  So a root costs its evaluations of f, but a kernel
call only for each move beyond that radius.
Every solver finds a single sign change the same way: :func:`_bisect`
narrows a bracket by Halley steps, which it forms itself, kept inside it,
falling back to halving, until ``hi - lo <= max(xtol, rtol * hi)``.  Each
solve starts near its root (tau from a stored fit, :func:`_tau_start`), and
a start within a quarter of the stop width ends it in two evaluations, one
kernel call.  No solver searches for a bracket, and no end is evaluated:
each end is a theorem.  Only the nu >= 2 mode, for nu within ~1e-6 of 2 and
lam + nu - 4 below ~1e-6, checks its clamped lower end (see
:mod:`ncx2shape.modes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .bessel import bessel_ratio
from .density import (LAMBDA_ZERO, Params, _CONTINUE_RADIUS, _CONTINUE_UNIT, _curvature, _curvature_slope,
                      _ratio_slope, _ratio_taylor, _ratio_terms, log_density_d2)
from .errors import ConvergenceError, DomainError

DEFAULT_TOL = 1e-8

# Critical noncentrality at nu = 2, the endpoint of the sub-two regime.
# Decreasing and log-concave overlap exactly there.
CRITICAL_LAMBDA_AT_2 = 2.0

_INFLECTION_REL_TOL = 1e-10

_TAU_MAX = 2.0 * math.sqrt(3.0)  # upper end of the tau bracket

# tau(nu) / (2 (12 nu)^(1/6) (2 - nu)^(1/4)), the factor being tau's endpoint
# laws, as polynomials of degree 16 in w, highest power first: w = nu^(1/3)
# below nu = 1 and w = (2 - nu)^(1/2) from nu = 1.  Each is the Chebyshev
# interpolant on w in [0, 1] of the 50-digit mpmath tau (mpmath.chebyfit, 17
# nodes), rounded to double.  With the factor, :func:`_tau_start` is within
# 5e-10 relative of tau below nu = 1 and within 4e-12 from there (tested
# against mpmath): a quarter of the stop width at tol 1e-8, and at 1e-10
# too from nu = 1.
_TAU_LOW = (
    -0.8782265873742923, 6.304418188233916, -20.59987207864523, 40.45293088999707,
    -53.15307295311315, 49.25870716282873, -33.087864299705075, 16.304700101152868,
    -5.8962955913331445, 1.5375948908743449, -0.2686162634184216, -0.006767259650972138,
    -0.0367729732838814, 0.16950737934235488, -0.19283432043622306, 4.473857152533975e-08,
    0.8408964151762105,
)
_TAU_HIGH = (
    0.011204149269906085, -0.07843732175310845, 0.251492723391319, -0.4863045365862413,
    0.6309589053680895, -0.5784870699631026, 0.38504985226652255, -0.18789557976450935,
    0.0673209028779522, -0.016782284690277656, 0.0025025439296243613, 0.002001860708831447,
    -0.003541487860039143, 0.007221847601876388, -0.042932987905234164, 0.19626530666342923,
    0.5887959215011123,
)


@dataclass(frozen=True)
class CriticalLambda:
    """Critical noncentrality for 0 < nu < 2, with solver metadata.

    ``tau`` is the zero of g_nu (the inflection point is ``tau**2 / lam``);
    ``iterations`` counts the evaluations of g_nu that solved tau to
    relative width ``tol`` (the stored start, Halley steps, halvings and the
    closing pair: 2 at the default ``tol``, one Bessel kernel call, since the
    closing pair continues the start's ratio).
    ``lambda_nu`` reuses the ratio of the evaluated point nearest ``tau``
    and costs no further evaluation.
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

    defined for finite lam > 4 - nu.  It is negative below the critical
    noncentrality and positive above it, crossing zero exactly once.  t is
    formed as sqrt(lam) sqrt(lam + nu - 4), as lam (lam + nu - 4) overflows
    above lam ~ 1.34e154.
    """
    if math.isnan(nu) or not 0.0 < nu < 2.0:
        raise DomainError(f"indicator requires 0 < nu < 2, got {nu}")
    if not 4.0 - nu < lam < math.inf:
        raise DomainError(f"indicator requires finite lam > 4 - nu = {4.0 - nu}, got {lam}")
    t = math.sqrt(lam) * math.sqrt(lam + nu - 4.0)
    return bessel_ratio(0.5 * nu, t) - (lam - 2.0) / t


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tol}")


def _horner(coeffs: tuple[float, ...], w: float) -> float:
    """The polynomial with ``coeffs`` (highest power first) at ``w``."""
    total = 0.0
    for c in coeffs:
        total = total * w + c
    return total


def _tau_start(nu: float) -> float:
    """tau(nu) from the stored fit, for 0 < nu < 2."""
    if nu < 1.0:
        fitted = _horner(_TAU_LOW, nu ** (1.0 / 3.0))
    else:
        fitted = _horner(_TAU_HIGH, math.sqrt(2.0 - nu))
    return 2.0 * (12.0 * nu) ** (1.0 / 6.0) * (2.0 - nu) ** 0.25 * fitted


def _bisect(f, lo: float, hi: float, xtol: float, rtol: float,
            x: float | None = None) -> tuple[float, int]:
    """A point of the final bracket around the sign change of ``f``, and the evaluation count.

    ``f(x)`` returns ``(f, f', f'')``.  The value f is positive at ``lo``
    and not positive at ``hi``; neither end is evaluated.  Every evaluated
    point becomes the new ``lo`` or ``hi``, starting from ``x`` (default:
    the midpoint).  The next point is Halley's step, the Newton step
    ``x - f / slope`` on ``slope = f' - f f'' / (2 f')`` (``f'`` itself where
    ``f'`` is 0), from the last one when it stays in the bracket and is at
    most half the previous step (rtsafe, *Numerical Recipes* 9.4), and the
    midpoint otherwise.  A step shorter than half the stop width
    ``w = max(xtol, rtol * x)`` closes the bracket instead: ``f`` is
    evaluated ``w/4`` beyond the step's point, then ``w/4`` short of it,
    and when the first of these lands on the side of the last point the
    next step is the midpoint.  Evaluations other than halvings are capped
    at the number of halvings the bracket needs, so derivatives that are
    wrong, zero or NaN at most double the cost of plain bisection.  Returns
    once ``hi - lo <= max(xtol, rtol * hi)``: the step's point of the
    closing pair when the loop ends on one and that point lies in the final
    bracket (it is then within ``w/4`` of both ends), else the bracket's
    midpoint, so the answer always lies within half that width of a sign
    change; raises :class:`ConvergenceError` once a midpoint no longer
    splits the bracket.
    """
    evals = 0
    half = 0.5 * (hi - lo)  # half the last step, and of the bracket at first
    width = rtol * hi
    if width < xtol:
        width = xtol
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
            h = rtol * new
            if h < xtol:
                h = xtol
            h *= 0.25
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
        if width < xtol:
            width = xtol
    return (closing if lo <= closing <= hi else 0.5 * (lo + hi)), evals


# Smallest nu the sub-two solvers accept.  From here up, lambda_nu is within
# relative tol of 50-digit mpmath at tol 1e-8 and 1e-10 (worst 0.78 tol on
# 600 draws in [1e-16, 1e-15], 1.45 tol in [1e-17, 1e-16]); below it
# D = 2 - nu - t r cancels until the solve returns a wrong value or divides by
# zero.  Checked on a cache miss only.
NU_FLOOR = 1e-16


@lru_cache(maxsize=1024)
def _critical_lambda_cached(nu: float, tol: float) -> CriticalLambda:
    if nu < NU_FLOOR:
        raise DomainError(
            f"nu={nu!r} is below {NU_FLOOR:g}, the smallest degrees of freedom at which "
            "the critical noncentrality is solved to its tolerance"
        )
    seen = []
    # The last kernel point, and how far from it r is continued instead of
    # calling the kernel (density._ratio_taylor; the closing pair and a last
    # short step land within that reach).
    t0 = r0 = math.nan
    reach = 0.0

    def g(t: float) -> tuple[float, float, float]:
        nonlocal t0, r0, reach
        if -reach <= t - t0 <= reach:
            r = _ratio_taylor(nu, t0, r0, t)
            dr = _ratio_slope(nu, t, r)
        else:
            r, dr = _ratio_terms(nu, t)
            t0, r0, reach = t, r, _CONTINUE_RADIUS * (t if t < _CONTINUE_UNIT else _CONTINUE_UNIT)
        seen.append((t, r))
        # g'' from the same r, with r'' = -(nu - 1) (r'/t - r/t^2) - 2 r r'.
        d2r = -(nu - 1.0) * (dr - r / t) / t - 2.0 * r * dr
        return (_curvature(nu, t, r), _curvature_slope(nu, t, r, dr),
                0.5 * (1.0 - r * r) - 2.0 * t * r * dr - 0.5 * t * t * (dr * dr + r * d2r)
                - 0.25 * nu * (2.0 * dr + t * d2r))

    # The stored fit starts within a quarter of the stop width at tol 1e-8, so
    # the solve ends on the start and one point of the closing pair.
    start = _tau_start(nu)
    # Neither end is evaluated.  g_nu(0+) = (2 - nu)/2 > 0.  At t = 2 sqrt 3,
    # g_nu = 4 - nu/2 - 3 r^2 - (sqrt 3 / 2) nu r, which falls as r > 0 grows.
    # With mu = nu/2, I_{mu-1} - I_{mu+1} = (2 mu / t) I_mu (DLMF 10.29.1)
    # taken twice gives 1/r = 2 mu / t + 1 / (2 (mu + 1) / t + I_{mu+2}/I_{mu+1}),
    # and Amos (Math. Comp. 28, 1974) bounds I_{v+1}/I_v(t) below by
    # t / (v + 1/2 + sqrt(t^2 + (v + 3/2)^2)) for v = mu + 1 >= 0.  So r is at
    # least the r_low(nu) these give, and g_nu(2 sqrt 3) is at most
    # 4 - nu/2 - 3 r_low^2 - (sqrt 3 / 2) nu r_low, which decreases on
    # [0, 2] from -0.1596 at nu = 0 (tested).  tau_nu peaks at 2.339 near
    # nu = 0.635.
    tau, iterations = _bisect(g, 0.0, _TAU_MAX, 0.0, tol, start)
    if not seen:  # tol >= 1: the bracket needs no evaluation
        g(tau)
    # lambda_nu = F(t) = t^2 / (t r + nu - 2) at the evaluated point nearest
    # tau: F is stationary at tau, so a distance d costs only O(d^2), and d is
    # at most the stop width.  nu - 2.0 is exact; adding t r to nu first
    # would cancel near nu = 2.
    t, r = min(seen, key=lambda point: abs(point[0] - tau))
    lambda_nu = t * t / (t * r + (nu - 2.0))
    return CriticalLambda(nu=nu, lambda_nu=lambda_nu, tau=tau, tol=tol, iterations=iterations)


def critical_lambda(nu: float, tol: float = DEFAULT_TOL) -> CriticalLambda:
    """Critical noncentrality for 0 < nu < 2, from the zero tau of g_nu.

    tau is solved to relative ``tol``, and lambda_nu is F at the evaluated
    point nearest tau; F is stationary at tau, so lambda_nu carries only
    the square of that distance.  Results are kept per
    (nu, tol) in a bounded, thread-safe, semantically invisible cache.

    The solve starts from a stored fit of tau(nu) built on its endpoint laws
    (tau ~ 2 (12 nu)^(1/6) as nu -> 0 and 2 (2 - nu)^(1/4) as nu -> 2), but
    the fit is only a start: tau is always solved, and lambda_nu computed,
    from g_nu itself.  The critical value approaches 4 as nu drops to 0 and
    2 as nu rises to 2.  Below ``NU_FLOOR`` it raises :class:`DomainError`,
    and so do :func:`classify`, :func:`inflection_point` and
    :func:`ncx2shape.modes.mode_report`, which solve it.
    """
    if math.isnan(nu) or not 0.0 < nu < 2.0:
        raise DomainError(f"critical noncentrality is defined for 0 < nu < 2, got {nu}")
    _check_tol(tol)
    return _critical_lambda_cached(float(nu), float(tol))


def _decreasing(nu: float, lam: float, solved: CriticalLambda | None) -> bool:
    """The paper's theorem: whether the density is decreasing, i.e. has no interior mode.

    Never for nu > 2; for lam <= 2 at nu = 2; for lam <= lambda_nu below
    nu = 2, where ``solved`` is ``critical_lambda(nu, tol)`` (None otherwise).
    """
    if nu > 2.0:
        return False
    return lam <= (CRITICAL_LAMBDA_AT_2 if solved is None else solved.lambda_nu)


def classify(p: Params, tol: float = DEFAULT_TOL) -> ShapeReport:
    """Classify the density shape for one parameter pair.

    * log-concave exactly when nu >= 2,
    * log-convex then log-concave exactly when nu < 2 and lam > 0,
    * for nu <= 2: decreasing when lam is at most the critical value
      (taken as 2 at nu = 2), bimodal above it (nu < 2 only).
    """
    _check_tol(tol)
    nu, lam = p.nu, p.lam
    solved = critical_lambda(nu, tol) if nu < 2.0 else None
    decreasing = _decreasing(nu, lam, solved)
    if solved is not None:
        crit = solved.lambda_nu
    else:
        crit = CRITICAL_LAMBDA_AT_2 if nu == 2.0 else None
    return ShapeReport(
        params=p,
        log_concave=nu >= 2.0,
        decreasing=decreasing,
        bimodal=nu < 2.0 and not decreasing,
        convex_then_concave=nu < 2.0 and lam > 0.0,
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
