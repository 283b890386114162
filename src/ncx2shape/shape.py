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

lambda_nu and tau are smooth functions of nu alone, so they are stored, not
solved: each is a 33-term Chebyshev interpolant (Trefethen, *Approximation
Theory and Approximation Practice*, 2013) of its 50-digit mpmath value,
evaluated by two Horner sums.  From ``NU_FLOOR`` up both are within
``FIT_TOL`` relative of mpmath (tested), closer than a double-precision
solve of g_nu gets at tiny nu, where its sign is rounding noise.  The roots
that depend on lam, the interior mode and the antimode, are solved by
:mod:`ncx2shape.modes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .bessel import bessel_ratio
from .density import LAMBDA_ZERO, Params, log_density_d2
from .errors import ConvergenceError, DomainError

DEFAULT_TOL = 1e-8

# Critical noncentrality at nu = 2, the endpoint of the sub-two regime.
# Decreasing and log-concave overlap exactly there.
CRITICAL_LAMBDA_AT_2 = 2.0

# Relative error bound of the stored lambda_nu and tau from NU_FLOOR up: the
# smallest tol critical_lambda accepts.  tests/test_shape.py checks it against
# 50-digit mpmath (worst seen: 2.3e-16 for lambda_nu, 5.2e-16 for tau, most
# of the latter the rounding of tau's endpoint factor).
FIT_TOL = 1e-15

# lambda_nu and tau / (2 (12 nu)^(1/6) (2 - nu)^(1/4)), the factor being
# tau's endpoint laws, as polynomials of degree 32 in u = 2w - 1, highest
# power first: w = nu^(1/3) below nu = 1 and w = (2 - nu)^(1/2) from nu = 1.
# Each is the Chebyshev interpolant on u in [-1, 1] of the 50-digit mpmath
# value (mpmath.chebyfit, 33 nodes), rounded to double.
_LAMBDA_LOW = (
    -4.78016408285261e-07, -7.543992666088139e-07, 2.7518458605883647e-06, 4.339004283457364e-06,
    -7.940508087483143e-06, -1.2520119681972051e-05, 1.3596565466436611e-05,
    2.1424745016154756e-05, -1.6675334920566926e-05, -2.629956316117864e-05,
    1.2550257978228374e-05, 1.971418380858938e-05, -1.123530454047493e-05, -1.79119241255081e-05,
    -4.281395955926671e-06, -7.437396144176259e-06, -2.327910397221228e-05, -3.897168145109786e-05,
    -6.31958070483165e-05, -0.00010883251664014853, -0.00018553095733769387,
    -0.0003181474357382569, -0.000580545375611992, -0.0010960045754546289, -0.001945493668536296,
    -0.003333713545541284, -0.00701573583897566, -0.018294977134044054, -0.04023887785468004,
    -0.1273773922207216, -0.5851896382850168, 0.2588683720280096, 4.743534896230933,
)
_LAMBDA_HIGH = (
    -3.158704521061275e-10, -5.971506190688422e-10, 1.4759890096192847e-09, 2.786318668309304e-09,
    -4.507989612388864e-09, -8.519833262101368e-09, 5.9251439310656394e-09, 1.1152980263886399e-08,
    -1.2342183232298352e-08, -2.3458239751713005e-08, -8.91860310530017e-09,
    -1.7561869815628694e-08, -6.25888200949836e-08, -1.2149461397412028e-07,
    -2.204685754007343e-07, -4.3176409436228703e-07, -8.55774582256746e-07,
    -1.6894266855712007e-06, -3.3497883562427044e-06, -6.68495696117454e-06,
    -1.343140204113058e-05, -2.720257669781589e-05, -5.563057600381766e-05,
    -0.00011517085932278224, -0.00024217017645566014, -0.0005206152369751251,
    -0.0011516887594343614, -0.0026908180843128785, -0.006677603348977186, -0.02115923451623398,
    0.04355498218974474, 1.1328028925628393, 3.072870936826162,
)
_TAU_LOW = (
    -4.6456475806613705e-08, -7.329804995497952e-08, 2.675022844450057e-07, 4.2168417860160316e-07,
    -7.718862993356251e-07, -1.2167647726276887e-06, 1.3219126704364318e-06,
    2.0825110290009974e-06, -1.6208715522844169e-06, -2.5556820515975052e-06,
    1.221086683732175e-06, 1.917627850896035e-06, -1.089036691018893e-06, -1.73373632495548e-06,
    -4.0578197199323245e-07, -7.135709564832934e-07, -2.2326986574000205e-06,
    -3.6760663758634298e-06, -5.962501410901973e-06, -1.0560023442509192e-05,
    -1.8112103004468093e-05, -2.871531997677992e-05, -5.1262969624252625e-05,
    -0.00010943369039562154, -0.00019397845579693712, -0.00031436972015346073,
    -0.0004506016109055851, -0.0013343084288873666, -0.007191377123062911, 0.0024303506743063395,
    -0.008037996290090844, -0.04685925129343127, 0.8106172274401661,
)
_TAU_HIGH = (
    1.3713497953370651e-11, 2.6209775356068184e-11, -6.29808703931615e-11, -1.2012573448900882e-10,
    1.948864548348828e-10, 3.723704925258829e-10, -2.4456268451792963e-10, -4.642770928776953e-10,
    5.658164553268103e-10, 1.0904893520199139e-09, 5.547224789826654e-10, 1.111134790224118e-09,
    3.445358432884133e-09, 6.825411110717439e-09, 1.2877564847253976e-08, 2.5790414735377512e-08,
    5.2204318067758325e-08, 1.05616717082878e-07, 2.1480491921752536e-07, 4.401163087227407e-07,
    9.07203188006312e-07, 1.8876147915045937e-06, 3.9415752514320594e-06, 8.363135716522153e-06,
    1.7547374195899134e-05, 3.8347535719164204e-05, 7.689090040664924e-05, 0.00018029245529198817,
    0.0002245781106985808, 0.0007577498371347105, -0.00865443692682306, 0.07883119083597624,
    0.6769446206888504,
)


@dataclass(frozen=True)
class CriticalLambda:
    """Critical noncentrality for 0 < nu < 2.

    ``tau`` is the zero of g_nu (the inflection point is ``tau**2 / lam``).
    ``lambda_nu`` and ``tau`` come from the stored fits, within ``FIT_TOL``
    relative of their exact values, whatever ``tol`` (at least ``FIT_TOL``)
    was asked for.
    """

    nu: float
    lambda_nu: float
    tau: float
    tol: float

    # Direct __dict__ stores; see the comment on density.Params.__init__.
    def __init__(self, nu: float, lambda_nu: float, tau: float, tol: float) -> None:
        d = self.__dict__
        d["nu"] = nu
        d["lambda_nu"] = lambda_nu
        d["tau"] = tau
        d["tol"] = tol


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

    # Direct __dict__ stores; see the comment on density.Params.__init__.
    def __init__(self, params: Params, log_concave: bool, decreasing: bool, bimodal: bool,
                 convex_then_concave: bool, critical_lambda: float | None) -> None:
        d = self.__dict__
        d["params"] = params
        d["log_concave"] = log_concave
        d["decreasing"] = decreasing
        d["bimodal"] = bimodal
        d["convex_then_concave"] = convex_then_concave
        d["critical_lambda"] = critical_lambda


def criticality_indicator(nu: float, lam: float) -> float:
    """Scalar whose sign separates decreasing from bimodal, for 0 < nu < 2.

    With t = sqrt(lam (lam + nu - 4)) the indicator is

        r_{nu/2}(t) - (lam - 2) / t,

    defined for finite lam > 4 - nu.  In exact arithmetic it is negative
    below the critical noncentrality and positive above it, crossing zero
    exactly once.  t is formed as sqrt(lam) sqrt(lam + nu - 4), as
    lam (lam + nu - 4) overflows above lam ~ 1.34e154.

    The computed value is accurate to a few ulp of 1 in absolute terms, not
    relative to itself: it is a difference of two numbers near 1.  Far above
    the critical noncentrality it is about 1 / (2 lam), so its sign means
    something only for lam below about 1e15 (at nu = 1, lam times it reads
    0.50004 at lam = 1e12 and 2.22 at 1e16, and it is 0.0 at 1e20).
    :func:`classify` does not use it.
    """
    if not 0.0 < nu < 2.0:
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


# Smallest nu the sub-two solvers accept.  The stored lambda_nu and tau hold
# FIT_TOL below it too; what sets the floor is the tiny-nu mode and l'': h
# and D = 2 - nu - t r cancel as t r -> 2 - nu (ROADMAP item 3), and below
# 1e-16 the bimodal report would rest on them.  Checked on a cache miss only.
NU_FLOOR = 1e-16


@lru_cache(maxsize=1024)
def _critical_lambda_cached(nu: float, tol: float) -> CriticalLambda:
    if nu < NU_FLOOR:
        raise DomainError(
            f"nu={nu!r} is below {NU_FLOOR:g}, the smallest degrees of freedom at which "
            "the critical noncentrality is solved to its tolerance"
        )
    if tol < FIT_TOL:
        raise ConvergenceError(
            f"tolerance {tol!r} is below {FIT_TOL:g}, the tested accuracy of the stored "
            "critical noncentrality"
        )
    if nu < 1.0:
        u = 2.0 * nu ** (1.0 / 3.0) - 1.0
        lambda_nu = _horner(_LAMBDA_LOW, u)
        fitted = _horner(_TAU_LOW, u)
    else:
        u = 2.0 * math.sqrt(2.0 - nu) - 1.0
        lambda_nu = _horner(_LAMBDA_HIGH, u)
        fitted = _horner(_TAU_HIGH, u)
    tau = 2.0 * (12.0 * nu) ** (1.0 / 6.0) * (2.0 - nu) ** 0.25 * fitted
    return CriticalLambda(nu=nu, lambda_nu=lambda_nu, tau=tau, tol=tol)


def critical_lambda(nu: float, tol: float = DEFAULT_TOL) -> CriticalLambda:
    """Critical noncentrality for 0 < nu < 2, and the zero tau of g_nu.

    Both come from the stored fits (see the module notes), within
    ``FIT_TOL`` relative of their exact values, so any ``tol`` of at least
    ``FIT_TOL`` is met and a smaller one raises :class:`ConvergenceError`.
    Results are kept per (nu, tol) in a bounded, thread-safe, semantically
    invisible cache.

    The fits are built on the endpoint laws: lambda_nu = 4 + (12 nu)^(1/3)
    (1 + o(1)) as nu -> 0 and 2 + 2 sqrt(2 - nu) + (2 - nu)/3 + O((2 - nu)^(3/2))
    as nu -> 2; tau ~ 2 (12 nu)^(1/6) and 2 (2 - nu)^(1/4).  Below
    ``NU_FLOOR`` it raises :class:`DomainError`, and so do :func:`classify`,
    :func:`inflection_point` and :func:`ncx2shape.modes.mode_report`, which
    use it.
    """
    if not 0.0 < nu < 2.0:
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

    It is tau**2 / lam, with tau from :func:`critical_lambda`; one public l''
    call there runs the self-check at the reported point.
    """
    nu, lam = p.nu, p.lam
    if not 0.0 < nu < 2.0:
        raise DomainError(f"inflection point requires 0 < nu < 2, got nu={nu}")
    if lam < LAMBDA_ZERO:
        raise DomainError(f"inflection point requires lam >= {LAMBDA_ZERO}, got lam={lam}")
    x = critical_lambda(nu).tau ** 2 / lam
    log_density_d2(p, x)
    return x
