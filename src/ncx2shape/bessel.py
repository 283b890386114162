"""Modified Bessel functions of the first kind, I_mu, for real order mu > -1.

Four building blocks cover the whole argument range, up to the largest
double:

* the ascending power series, whose terms are all positive (no cancellation);
  the series of I_mu and I_{mu-1} are summed together in one loop where both
  are needed,
* the uniform (Debye) expansion of log I_mu(x) (DLMF 10.41, Olver 1954),
  from x = 30 + 2|mu| on; it depends on the order only through mu^2, and
  for orders in (-1, 0) I_{-v} - I_v = (2/pi) sin(v pi) K_v is below
  e^{-60} of I_v there, so one kernel serves every order,
* Gauss's continued fraction for the ratio r_mu(x) = I_mu(x) / I_{mu-1}(x),
  from the three-term recurrence, whose level count grows with x,
* Perron's continued fraction for the same ratio (Gautschi and Slavik,
  Math. Comp. 32, 1978), which converges in at most 20 levels above
  30 + 2|mu| for |mu| <= 50, and in fewer the larger x is.

The ratio is the workhorse for the log-density derivatives of the noncentral
chi-squared family, so it is always evaluated by ratio-stable methods and
never by dividing two possibly overflowing function values.  Orders far
beyond |mu| ~ 50 are outside the intended use of this module; the callers
only ever need mu = nu/2 and mu - 1 for moderate degrees of freedom nu.
The density needs r_mu, log I_{mu-1} and log I_mu at the same point, and
:func:`_point` gives all three from one band dispatch.  Sa and Sb are the
series of I_mu and I_{mu-1}, each relative to its first term, from one
loop; the last column says whether the density's l'' check, which rebuilds
r from the two logs, compares two lineages there (values that share no
sum):

  band                            r                 log I_{mu-1}       log I_mu   two
  x < 1                           x Sa / (2 mu Sb)  series Sb          series Sa  no
  1 <= x < 30 + 2|mu - 1|         Gauss's CF *      series Sb          series Sa  yes
  30 + 2|mu - 1| <= x < 30 + 2mu  Gauss's CF        Debye at |mu - 1|  series Sa  yes
  x >= both crossovers            Perron's CF       Debye at |mu - 1|  Debye      yes

  * Perron's from 30 + 2 mu on, which for mu < 1/2 lies inside this band.

The third band is empty for mu <= 1/2.  Each value is bit-identical to
:func:`bessel_ratio` or :func:`log_bessel_i` but for one (see :func:`_point`).

At mu = 1/2 none of these bands runs.  There I_{-1/2}(x) = sqrt(2/(pi x))
cosh x and I_{1/2}(x) = sqrt(2/(pi x)) sinh x (DLMF 10.39.1), so the
three values are elementary, and all three entry points take them from
:func:`_half_order` at every x:

  band        r       log I_{-1/2}  log I_{1/2}  two
  mu = 1/2    tanh x  log cosh x    log sinh x   yes

This is the paper's elementary nu = 1 density,
(2 pi x)^(-1/2) e^{-(x + lam)/2} cosh sqrt(lam x).  At mu = 3/2 the
column log I_{mu-1} is log I_{1/2} and comes from :func:`_half_order`
too; the other two columns keep the bands above.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

# Convergence knobs.  The series and the uniform expansion run to machine
# noise; the continued fractions stop at CF_TOL per the Lentz criterion.
_SERIES_EPS = 1e-17
_SERIES_MAX_TERMS = 100_000
CF_TOL = 1e-15
CF_MAX_ITER = 10_000

# Below this argument the ratio is computed as a quotient of two power
# series, which is exact to machine precision there; the continued fraction
# loses a few digits for tiny orders at small arguments.
SERIES_RATIO_MAX_X = 1.0

_TINY = 1e-300


def _check_order(mu: float) -> None:
    if math.isnan(mu) or math.isinf(mu) or mu <= -1.0:
        raise DomainError(f"Bessel order must be finite and > -1, got {mu}")


def _check_positive(x: float) -> None:
    # False for NaN as well as for x <= 0 and x = inf.
    if not 0.0 < x < math.inf:
        raise DomainError(f"x must be finite and > 0, got {x}")


def _series_crossover(mu: float) -> float:
    # Both branches agree to better than 1e-12 in a band around this point
    # for the moderate orders this package uses (verified in the test suite).
    return 30.0 + 2.0 * abs(mu)


def _series_sum(mu: float, x: float) -> float:
    """Ascending series of I_mu(x) divided by its first term.

    The sum over k of prod_{j<=k} q / (j (mu + j)), q = x^2 / 4.  Every term
    is positive (no cancellation) and the first is 1, so nothing underflows
    however small x is.  Valid for mu > -1.
    """
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term *= q / (k * (mu + k))
        total += term
        if term < _SERIES_EPS * total:
            return total
    raise ConvergenceError(f"I_mu series stalled at mu={mu}, x={x}")


def _series_pair(mu: float, x: float) -> tuple[float, float]:
    """The relative series of I_mu(x) and of I_{mu-1}(x), for mu > 0, in one loop.

    The first is :func:`_series_sum`; the second is the sum over k of
    prod_{j<=k} q / (j (mu + (j - 1))): the integer j - 1 is added to mu, so
    the order mu - 1 is never formed and tiny orders keep every bit.  The loop
    runs until both sums have converged; a term below _SERIES_EPS times its
    sum is under half an ulp of it, and so is every later, smaller term, so
    each sum is bit-identical to the one its own loop would return.
    """
    q = 0.25 * x * x
    term = term_lower = 1.0
    total = total_lower = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term *= q / (k * (mu + k))
        term_lower *= q / (k * (mu + (k - 1)))
        total += term
        total_lower += term_lower
        if term_lower < _SERIES_EPS * total_lower and term < _SERIES_EPS * total:
            return total, total_lower
    raise ConvergenceError(f"I_mu and I_(mu-1) series stalled at mu={mu}, x={x}")


def _log_series_lead(mu: float, x: float) -> float:
    """log of the series' first term, (x/2)^mu / Gamma(mu + 1)."""
    return mu * math.log(0.5 * x) - math.lgamma(mu + 1.0)


# U_1 .. U_15 of the uniform expansion, from the recurrence DLMF 10.41.10.
# U_k(p) is p^k times a polynomial of degree k in p^2; row k - 1 holds that
# polynomial's coefficients, highest power first, i.e. the coefficients of
# p^(3k), p^(3k-2), ..., p^k in U_k(p).  U_0 = 1.
_DEBYE_U = (
    (-0.20833333333333334, 0.125),
    (0.3342013888888889, -0.4010416666666667, 0.0703125),
    (-1.0258125964506173, 1.8464626736111112, -0.8912109375, 0.0732421875),
    (4.669584423426247, -11.207002616222994, 8.78912353515625, -2.3640869140625, 0.112152099609375),
    (-28.212072558200244, 84.63621767460073, -91.81824154324002, 42.53499874538846,
     -7.368794359479632, 0.22710800170898438),
    (212.57013003921713, -765.2524681411817, 1059.9904525279999, -699.5796273761325,
     218.1905117442116, -26.491430486951554, 0.5725014209747314),
    (-1919.457662318407, 8061.722181737309, -13586.550006434138, 11655.393336864534,
     -5305.646978613403, 1200.9029132163525, -108.09091978839466, 1.7277275025844574),
    (20204.29133096615, -96980.59838863752, 192547.00123253153, -203400.17728041555,
     122200.46498301746, -41192.65496889755, 7109.514302489364, -493.915304773088,
     6.074042001273483),
    (-242919.18790055133, 1311763.6146629772, -2998015.9185381066, 3763271.297656404,
     -2813563.226586534, 1268365.2733216248, -331645.1724845636, 45218.76898136273,
     -2499.8304818112097, 24.380529699556064),
    (3284469.853072038, -19706819.118432228, 50952602.49266464, -74105148.21153265,
     66344512.27472903, -37567176.66076335, 13288767.166421818, -2785618.1280864547,
     308186.4046126624, -13886.08975371704, 110.01714026924674),
    (-49329253.66450996, 325573074.18576574, -939462359.6815784, 1553596899.57058,
     -1621080552.1083372, 1106842816.8230145, -495889784.2750303, 142062907.7975331,
     -24474062.72573873, 2243768.1779224495, -84005.43360302408, 551.3358961220206),
    (814789096.1183121, -5866481492.051847, 18688207509.295826, -34632043388.158775,
     41280185579.753975, -33026599749.800724, 17954213731.1556, -6563293792.619285,
     1559279864.8792574, -225105661.88941526, 17395107.553978164, -549842.3275722887,
     3038.090510922384),
    (-14679261247.695616, 114498237732.0258, -399096175224.4665, 819218669548.5773,
     -1098375156081.2233, 1008158106865.3821, -645364869245.3765, 287900649906.1506,
     -87867072178.02327, 17634730606.83497, -2167164983.223795, 143157876.71888897,
     -3871833.442572613, 18257.755474293175),
    (286464035717.679, -2406297900028.504, 9109341185239.898, -20516899410934.438,
     30565125519935.32, -31667088584785.16, 23348364044581.84, -12320491305598.287,
     4612725780849.132, -1196552880196.1816, 205914503232.41, -21822927757.529224,
     1247009293.5127103, -29188388.122220814, 118838.42625678325),
    (-6019723417234.006, 54177510755106.05, -221349638702525.2, 542739664987659.75,
     -889496939881026.5, 1026955196082762.5, -857461032982895.0, 523054882578444.6,
     -232604831188939.94, 74373122908679.14, -16634824724892.48, 2485000928034.0854,
     -229619372968.24646, 11465754899.448236, -234557963.52225152, 832859.3040162893),
)
# Each row with its stop bound, its last coefficient's magnitude (_log_i_debye).
_DEBYE_ROWS = tuple((abs(row[-1]), row) for row in _DEBYE_U)
_HALF_ULP_OF_ONE = 2.0 ** -53
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_HALF_PI = math.log(0.5 * math.pi)

# From here on e = e^{-2x} <= 1/2 (as rounded), so a relative rounding d of
# e moves log1p(-e) by at most e d / (1 - e) <= d: :func:`_half_order`
# takes log sinh x from log1p(-e) there, and from sinh itself below.
HALF_ORDER_LOG1P_MIN_X = 0.5 * math.log(2.0)


def _log_i_debye(mu: float, x: float) -> float:
    """log I_mu(x) by the uniform expansion, for mu >= 0 and 30 + 2 mu <= x < inf.

    With s = hypot(mu, x) and p = mu / s (DLMF 10.41.3 at z = x / mu),

        log I_mu(x) = s + mu log(x / (mu + s)) - log(2 pi s) / 2
                      + log sum_k U_k(p) / mu^k.

    As p / mu = 1 / s, the k-th term is the polynomial of row k - 1 of
    _DEBYE_U at p^2, by Horner, divided by s^k; at mu = 0 that is the
    large-argument expansion of I_0.  There x > 2 mu, so p^2 < 1/5, and
    s >= 30, so the sum lies just above 1.  On p^2 <= 1/5 no row's
    polynomial exceeds its value at 0, its last coefficient, in magnitude,
    and that bound over s^k falls by more than a factor 4 from row to row
    (both checked in the tests).  So the sum stops at the first row whose
    bound over s^k is below half an ulp of 1, or after U_15.  A term itself
    is no stop test: each row has roots in p^2 < 1/5, where its term
    vanishes while the next does not.
    """
    s = math.hypot(mu, x)
    q = (mu / s) ** 2
    total = scale = 1.0
    for bound, row in _DEBYE_ROWS:
        scale /= s
        if bound * scale < _HALF_ULP_OF_ONE:
            break
        poly = 0.0
        for c in row:
            poly = poly * q + c
        total += poly * scale
    return s + mu * math.log(x / (mu + s)) - 0.5 * (_LOG_2PI + math.log(s)) + math.log(total)


def _half_order(x: float) -> tuple[float, float, float]:
    """(tanh x, log I_{-1/2}(x), log I_{1/2}(x)) for finite x > 0, in closed form.

    With e = e^{-2x}, log cosh x = x + log1p(e) - log 2, and so

        log I_{-1/2}(x) = x - log(2 pi x) / 2 + log1p(e),

    and log I_{1/2}(x) is the same with log1p(-e), from
    HALF_ORDER_LOG1P_MIN_X on.  Below it, where 1 - e cancels, it is
    log(sinh x / x) + (log x - log(pi/2)) / 2.  Each value is within 2 eps
    of 40-digit mpmath over the whole range (relative for tanh, relative to
    the larger of 1 and the log's magnitude for the logs).  tanh and the
    two logs are separate libm routes, so the density's l'' check compares
    two lineages at every x.
    """
    e = math.exp(-2.0 * x)
    log_x = math.log(x)
    lead = x - 0.5 * (_LOG_2PI + log_x)
    if x >= HALF_ORDER_LOG1P_MIN_X:
        log_i = lead + math.log1p(-e)
    else:
        log_i = math.log(math.sinh(x) / x) + 0.5 * (log_x - _LOG_HALF_PI)
    return math.tanh(x), lead + math.log1p(e), log_i


def log_bessel_i(mu: float, x: float) -> float:
    """log I_mu(x) for finite x > 0, finite up to the largest double.

    Below the series crossover 30 + 2|mu| this is the log of the series'
    first term, mu log(x/2) - lgamma(mu + 1), plus the log of the series
    summed relative to that term, so no tiny x underflows.  From there on
    it is the uniform (Debye) expansion of :func:`_log_i_debye` at the
    order |mu|: for mu in (-1, 0), I_mu - I_|mu| is below e^{-60} of I_|mu|.
    At mu = +-1/2 it is the closed form of :func:`_half_order` at every x.
    """
    _check_order(mu)
    _check_positive(x)
    if abs(mu) == 0.5:
        return _half_order(x)[1 if mu < 0.0 else 2]
    if x < _series_crossover(mu):
        return _log_series_lead(mu, x) + math.log(_series_sum(mu, x))
    return _log_i_debye(abs(mu), x)


def _ratio_cf(mu: float, x: float) -> float:
    """Gauss's forward continued fraction for r_mu(x), via the modified Lentz scheme.

    The recurrence I_{mu-1} = I_{mu+1} + (2 mu / x) I_mu unrolls into

        r_mu(x) = 1 / (b_1 + 1 / (b_2 + 1 / (b_3 + ...))),  b_j = 2(mu+j-1)/x.

    The first partial denominator b_1 = 2 mu / x can be arbitrarily small for
    tiny orders, which degrades Lentz's scheme, so the fraction is started at
    level two (its value is r_{mu+1}) and the outermost step is applied
    explicitly; all quantities involved are positive, so that step is stable
    and c and d never vanish (no zero guards).  The stop test low <= delta <
    high is |delta - 1| < CF_TOL for CF_TOL = 1e-15, as delta - 1 is exact.
    Its level count grows with x (34 levels for r_1(32), 188 for
    r_1(1000)), so :func:`bessel_ratio` takes it only for 1 <= x < 30 + 2|mu|.
    """
    two_over_x = 2.0 / x
    low, high = 1.0 - CF_TOL, 1.0 + CF_TOL
    order = mu
    f = c = _TINY
    d = 0.0
    for _ in range(CF_MAX_ITER):
        order += 1.0
        b = order * two_over_x
        c = b + 1.0 / c
        d = 1.0 / (b + d)
        delta = c * d
        f *= delta
        if low <= delta < high:
            return 1.0 / (mu * two_over_x + f)
    raise ConvergenceError(
        f"Bessel ratio continued fraction hit the {CF_MAX_ITER} iteration cap "
        f"at mu={mu}, x={x}"
    )


def _ratio_perron(mu: float, x: float) -> float:
    """Perron's continued fraction for r_mu(x), via the modified Lentz scheme.

    With every level divided by x, so that nothing overflows up to the
    largest double (Gautschi and Slavik, Math. Comp. 32, 1978),

        r_mu(x) = 1 / (b_0 - a_1 / (b_1 - a_2 / (b_2 - ...))),
        b_0 = 1 + 2 mu / x,  a_k = (2 mu + 2k - 1) / x,  b_k = 2 + (2 mu + k) / x.

    For mu > 0 and k <= x + 1, b_k - a_k >= 1, so by induction c >= 1 and
    0 < d <= 1 at every level (no zero guards); the fraction converges long
    before that, in at most 20 levels from x = 30 + 2 mu for mu <= 50.
    a_k and b_k are carried from level to level by adding 2 / x and 1 / x.
    The stop test is the one of :func:`_ratio_cf`.
    """
    step = 1.0 / x
    low, high = 1.0 - CF_TOL, 1.0 + CF_TOL
    f = c = 1.0 + 2.0 * mu * step
    a = (2.0 * mu - 1.0) * step
    b = f + 1.0
    d = 0.0
    for _ in range(CF_MAX_ITER):
        a += step + step
        b += step
        c = b - a / c
        d = 1.0 / (b - a * d)
        delta = c * d
        f *= delta
        if low <= delta < high:
            return 1.0 / f
    raise ConvergenceError(
        f"Bessel ratio (Perron) continued fraction hit the {CF_MAX_ITER} "
        f"iteration cap at mu={mu}, x={x}"
    )


def bessel_ratio(mu: float, x: float) -> float:
    """Ratio r_mu(x) = I_mu(x) / I_{mu-1}(x) for mu > 0, x > 0.

    Below x = 1 it is x Sa / (2 mu Sb), Sa and Sb from :func:`_series_pair`:
    the series' lead terms cancel to x / (2 mu) exactly, so no lgamma or exp
    is evaluated, nothing underflows at tiny x, and the order mu - 1 is never
    formed.  Up to 30 + 2 mu it is Gauss's continued fraction
    (:func:`_ratio_cf`), and from there Perron's (:func:`_ratio_perron`),
    finite up to the largest double.  At mu = 1/2 it is tanh x at every x,
    as in :func:`_half_order`.

    Over mu in (0, 50] and x up to 1e8 it is within 4e-15 relative of
    mpmath (a hypothesis sweep in the tests); the two fractions agree to
    ~1e-15 at their seam.
    """
    # Comparisons that are false for NaN: each argument is checked once, and
    # x only below 1 (or at mu = 1/2).
    if not 0.0 < mu < math.inf:
        raise DomainError(f"ratio requires a finite order mu > 0, got {mu}")
    if mu == 0.5 and x > 0.0:
        return math.tanh(x)
    if x >= SERIES_RATIO_MAX_X:
        if x < _series_crossover(mu):
            return _ratio_cf(mu, x)
        return _ratio_perron(mu, x)
    if not x > 0.0:
        raise DomainError(f"x must be > 0, got {x}")
    total, total_lower = _series_pair(mu, x)
    return x * total / (2.0 * mu * total_lower)


def _point(mu: float, x: float) -> tuple[float, float, float]:
    """(r_mu(x), log I_{mu-1}(x), log I_mu(x)) for finite mu > 0 and finite x > 0.

    One band dispatch, by the module docstring's tables.  For mu < 1/2 below
    30 + 2|mu - 1|, log I_{mu-1} is log I_mu - log(x Sa / (2 mu Sb)), not
    the series form of ``log_bessel_i(mu - 1, x)``, in which
    lgamma(mu) ~ -log(mu) cancels against log Sb and the order mu - 1
    rounds (to -1 below mu = 2^-54).  At mu = 1/2, and for log I_{1/2} at
    mu = 3/2, the values are :func:`_half_order`'s.
    """
    if not 0.0 < mu < math.inf:
        raise DomainError(f"ratio requires a finite order mu > 0, got {mu}")
    _check_positive(x)
    if mu == 0.5:
        return _half_order(x)
    if x < _series_crossover(mu - 1.0):
        total, total_lower = _series_pair(mu, x)
        r = x * total / (2.0 * mu * total_lower)
        log_half_x = math.log(0.5 * x)
        log_i = mu * log_half_x - math.lgamma(mu + 1.0) + math.log(total)
        if mu == 1.5:
            log_i_lower = _half_order(x)[2]
        elif mu >= 0.5:
            # lgamma(mu) is the lead term's lgamma((mu - 1) + 1): mu - 1 is
            # exact for 1/2 <= mu < 2^53.
            log_i_lower = (mu - 1.0) * log_half_x - math.lgamma(mu) + math.log(total_lower)
        else:
            log_i_lower = log_i - math.log(r)
        if x >= SERIES_RATIO_MAX_X:
            r = _ratio_cf(mu, x) if x < _series_crossover(mu) else _ratio_perron(mu, x)
        return r, log_i_lower, log_i
    log_i_lower = _half_order(x)[2] if mu == 1.5 else _log_i_debye(abs(mu - 1.0), x)
    if x < _series_crossover(mu):
        log_i = _log_series_lead(mu, x) + math.log(_series_sum(mu, x))
        return _ratio_cf(mu, x), log_i_lower, log_i
    return _ratio_perron(mu, x), log_i_lower, _log_i_debye(mu, x)
