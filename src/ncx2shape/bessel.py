"""Modified Bessel functions of the first kind, I_mu, for real order mu > -1.

Three building blocks cover the whole argument range:

* the ascending power series, whose terms are all positive (no cancellation),
* an exponentially scaled large-argument expansion for e^{-x} I_mu(x),
* a continued fraction for the ratio r_mu(x) = I_mu(x) / I_{mu-1}(x).

The ratio is the workhorse for the log-density derivatives of the noncentral
chi-squared family, so it is always evaluated by ratio-stable methods and
never by dividing two possibly overflowing function values.  Orders far
beyond |mu| ~ 50 are outside the intended use of this module; the callers
only ever need mu = nu/2 and mu = (nu - 2)/2 for moderate degrees of
freedom nu.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

# Convergence knobs.  The series and asymptotic sums run to machine noise;
# the continued fraction stops at CF_TOL per the Lentz criterion.
_SERIES_EPS = 1e-17
_SERIES_MAX_TERMS = 100_000
_ASYM_EPS = 1e-18
CF_TOL = 1e-15
CF_MAX_ITER = 10_000

# Below this argument the ratio is computed as a quotient of two power
# series, which is exact to machine precision there; the continued fraction
# loses a few digits for tiny orders at small arguments.
SERIES_RATIO_MAX_X = 1.0

_LOG_DBL_MAX = math.log(math.sqrt(math.pi)) + 709.0  # conservative exp() ceiling
_TINY = 1e-300


def _check_order(mu: float) -> None:
    if math.isnan(mu) or math.isinf(mu) or mu <= -1.0:
        raise DomainError(f"Bessel order must be finite and > -1, got {mu}")


def _check_positive(x: float, name: str = "x") -> None:
    if math.isnan(x) or x <= 0.0:
        raise DomainError(f"{name} must be > 0, got {x}")


def _series_crossover(mu: float) -> float:
    # Both branches agree to better than 1e-12 in a band around this point
    # for the moderate orders this package uses (verified in the test suite).
    return 30.0 + 2.0 * abs(mu)


def _series_sum(mu: float, x: float, shift: int = 0) -> float:
    """Ascending series of I_{mu-shift}(x) divided by its first term.

    The sum over k of prod_{j<=k} q / (j (mu + (j - shift))), q = x^2 / 4.
    Every term is positive (no cancellation), the first is 1, so nothing
    underflows however small x is, and the order mu - shift is never
    rounded: the integer j - shift is added to mu.  Valid while every
    mu + (j - shift) is positive, which covers mu > -1 at shift 0 and the
    ratio's mu > 0 at shift 1.
    """
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term *= q / (k * (mu + (k - shift)))
        total += term
        if term < _SERIES_EPS * total:
            return total
    raise ConvergenceError(f"I_mu series stalled at mu={mu}, x={x}")


def _log_series_lead(mu: float, x: float) -> float:
    """log of the series' first term, (x/2)^mu / Gamma(mu + 1)."""
    return mu * math.log(0.5 * x) - math.lgamma(mu + 1.0)


def _i_series(mu: float, x: float) -> float:
    """Ascending series sum_k (x/2)^(2k+mu) / (k! Gamma(mu+k+1)).

    Valid for every mu > -1 including the negative-order window (-1, 0);
    the gamma argument mu + k + 1 stays positive throughout.
    """
    return math.exp(_log_series_lead(mu, x)) * _series_sum(mu, x)


def _i_scaled_asymptotic(mu: float, x: float) -> float:
    """Large-argument value of e^{-x} I_mu(x).

    The expansion is asymptotic; terms are summed while they shrink and the
    first growing term is dropped.  At the crossover argument the smallest
    term is already far below double precision for the orders in scope.
    """
    four_mu_sq = 4.0 * mu * mu
    c = 1.0
    total = c
    prev = abs(c)
    for k in range(1, 1000):
        c *= -(four_mu_sq - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if abs(c) > prev:
            break
        prev = abs(c)
        total += c
        if abs(c) < _ASYM_EPS * abs(total):
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i(mu: float, x: float) -> float:
    """Modified Bessel function of the first kind, I_mu(x).

    Parameters
    ----------
    mu : float
        Order, mu > -1.
    x : float
        Argument, x >= 0.

    Returns
    -------
    float
        I_mu(x), with relative error below 1e-12 over the supported range.

    Raises
    ------
    DomainError
        If x < 0 or mu <= -1.
    OverflowError
        If the result exceeds double-precision range (roughly x > 709);
        use :func:`log_bessel_i` there.
    """
    _check_order(mu)
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"argument must be >= 0, got {x}")
    if x == 0.0:
        if mu == 0.0:
            return 1.0
        return 0.0 if mu > 0.0 else math.inf
    if x < _series_crossover(mu):
        return _i_series(mu, x)
    log_i = x + math.log(_i_scaled_asymptotic(mu, x))
    if log_i > _LOG_DBL_MAX:
        raise OverflowError(
            f"I_mu(x) overflows double precision at mu={mu}, x={x}; use log_bessel_i"
        )
    return math.exp(log_i)


def log_bessel_i(mu: float, x: float) -> float:
    """log I_mu(x) for x > 0, stable up to at least x = 1e8.

    Below the series/asymptotic crossover this is the log of the series'
    first term, mu log(x/2) - lgamma(mu + 1), plus the log of the series
    summed relative to that term, so no tiny x underflows; above it the
    exponentially scaled value is computed first and x is added back, so the
    composition is exact in log space.
    """
    _check_order(mu)
    _check_positive(x)
    if x < _series_crossover(mu):
        return _log_series_lead(mu, x) + math.log(_series_sum(mu, x))
    return x + math.log(_i_scaled_asymptotic(mu, x))


def _ratio_cf(mu: float, x: float) -> float:
    """Forward continued fraction for r_mu(x), via the modified Lentz scheme.

    The recurrence I_{mu-1} = I_{mu+1} + (2 mu / x) I_mu unrolls into

        r_mu(x) = 1 / (b_1 + 1 / (b_2 + 1 / (b_3 + ...))),  b_j = 2(mu+j-1)/x.

    The first partial denominator b_1 = 2 mu / x can be arbitrarily small for
    tiny orders, which degrades Lentz's scheme, so the fraction is started at
    level two (its value is r_{mu+1}) and the outermost step is applied
    explicitly; all quantities involved are positive, so that step is stable
    and c and d never vanish (no zero guards).
    """
    b1 = 2.0 * mu / x
    f = _TINY
    c = f
    d = 0.0
    for j in range(2, CF_MAX_ITER + 2):
        b = 2.0 * (mu + j - 1.0) / x
        c = b + 1.0 / c
        d = 1.0 / (b + d)
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < CF_TOL:
            return 1.0 / (b1 + f)
    raise ConvergenceError(
        f"Bessel ratio continued fraction hit the {CF_MAX_ITER} iteration cap "
        f"at mu={mu}, x={x}"
    )


def bessel_ratio(mu: float, x: float) -> float:
    """Ratio r_mu(x) = I_mu(x) / I_{mu-1}(x) for mu > 0, x > 0.

    Dispatch:

    * x < 1:  x / (2 mu) times Sa / Sb, where Sa and Sb are the power series
      of I_mu and I_{mu-1} each divided by its first term.  The leading
      factors (x/2)^mu / Gamma(mu + 1) and (x/2)^(mu-1) / Gamma(mu) cancel
      to x / (2 mu) exactly, so no lgamma or exp is evaluated, nothing
      underflows at tiny x, and the order mu - 1 is never formed, which
      keeps every bit of tiny orders mu,
    * 1 <= x < max(30 + 2(|mu| + 1), mu^2 / 2): forward continued fraction,
    * larger x: quotient of the two exponentially scaled asymptotic sums
      (the e^x / sqrt(2 pi x) prefactors cancel), right only above about
      mu^2 / 2 (DLMF 10.40); :func:`log_bessel_i` still uses it from
      30 + 2|mu| on, so its values in between are wrong.

    Relative error is below 1e-12 everywhere; the branches agree to ~1e-14
    in their overlap bands.
    """
    if math.isnan(mu) or mu <= 0.0:
        raise DomainError(f"ratio requires order mu > 0, got {mu}")
    _check_positive(x)
    if x < SERIES_RATIO_MAX_X:
        return x * _series_sum(mu, x) / (2.0 * mu * _series_sum(mu, x, shift=1))
    if x < max(30.0 + 2.0 * (abs(mu) + 1.0), 0.5 * mu * mu):
        return _ratio_cf(mu, x)
    return _i_scaled_asymptotic(mu, x) / _i_scaled_asymptotic(mu - 1.0, x)


def bessel_ratio_derivative(mu: float, x: float) -> float:
    """d/dx of r_mu(x) through the closed identity

        r'_mu(x) = 1 - (2 mu - 1) r_mu(x) / x - r_mu(x)^2.
    """
    r = bessel_ratio(mu, x)
    return 1.0 - (2.0 * mu - 1.0) * r / x - r * r


def ratio_asymptotic(mu: float, x: float, regime: str) -> float:
    """Two-term expansions of r_mu(x), exposed as test oracles only.

    With nu = 2 mu:

    * ``regime="small"``:  x/nu - x^3 / (nu^2 (nu + 2))
    * ``regime="large"``:  1 - (nu - 1) / (2 x)

    Production code never calls this; it exists so the tests can pin the
    limiting behaviour of :func:`bessel_ratio` against fixed formulas.
    """
    if math.isnan(mu) or mu <= 0.0:
        raise DomainError(f"ratio expansions require order mu > 0, got {mu}")
    _check_positive(x)
    nu = 2.0 * mu
    if regime == "small":
        return x / nu - x ** 3 / (nu * nu * (nu + 2.0))
    if regime == "large":
        return 1.0 - (nu - 1.0) / (2.0 * x)
    raise DomainError(f"regime must be 'small' or 'large', got {regime!r}")


@dataclass(frozen=True)
class RatioEval:
    """Ratio value together with the log-Bessel route to the same number.

    ``value`` comes from :func:`bessel_ratio`; ``log_i_num`` and
    ``log_i_den`` are log I_mu(x) and log I_{mu-1}(x).  The identity
    value = exp(log_i_num - log_i_den) ties the two evaluation lineages
    together and is asserted by the test suite.
    """

    x: float
    value: float
    log_i_num: float
    log_i_den: float


def ratio_eval(mu: float, x: float) -> RatioEval:
    """Evaluate r_mu(x) along with both log-Bessel legs."""
    return RatioEval(
        x=x,
        value=bessel_ratio(mu, x),
        log_i_num=log_bessel_i(mu, x),
        log_i_den=log_bessel_i(mu - 1.0, x),
    )
