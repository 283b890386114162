"""Reference implementations used by the test suite.

The paper gives the density two ways.  :mod:`ncx2shape.density` holds the
closed Bessel form, the production route; this module holds the other, the
Poisson mixture of central chi-squared densities (the series route), with
the grid search and quadrature that consume it.  Nothing here touches the
Bessel evaluation path, so the two formula lineages stay separate until a
test compares them.  Finite differences are plain central stencils.

Not a general-purpose numerics surface; accuracy and speed targets are
those of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bare scipy loads none of scipy's public subpackages and costs a few ms.
# Nothing here needs it at import; it stays only because the benchmark reads
# the scipy import time of `import ncx2shape` and reports null, not 0, for an
# import that does not happen.  ROADMAP item 1 (an absent import reads 0)
# lets this line go.
import scipy  # noqa: F401

from .density import LAMBDA_ZERO, Params, _LOG2
from .errors import ConvergenceError, DomainError

QUAD_ABS_TOL = 1e-9
_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 200_000
_REL_TAIL_EPS = 1e-16


def _central_peak(m: float) -> float:
    """Peak value of the central density with m > 2 degrees of freedom.

    Decreasing in m, which makes it a uniform-in-x bound on every mixture
    term beyond a given index.
    """
    half = 0.5 * (m - 2.0)
    return math.exp(-half + (0.5 * m - 1.0) * math.log(half) - _LOG2 - math.lgamma(0.5 * m))


def _mixture(p: Params, xs, tol: float) -> tuple[np.ndarray, int]:
    """Poisson-mixture density over an array of points, with the truncation index K.

    Terms are accumulated until the remaining Poisson tail mass times a
    uniform bound on the remaining central densities drops below ``tol``
    (absolute error guarantee) and every point's current term is below
    machine noise relative to its running sum (relative accuracy near the
    far tail).  One K serves all the points, so a grid's values are a
    smooth (finitely parameterised) function of x with no noise-induced
    wiggles.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0 or np.any(~np.isfinite(xs)) or np.any(xs <= 0.0):
        raise DomainError("evaluation points must be finite and > 0")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be > 0, got {tol}")
    nu, lam = p.nu, p.lam
    log_half_x = np.log(0.5 * xs)

    def log_central_vec(m: float) -> np.ndarray:
        return (0.5 * m - 1.0) * log_half_x - 0.5 * xs - _LOG2 - math.lgamma(0.5 * m)

    if lam < LAMBDA_ZERO:
        return np.exp(log_central_vec(nu)), 0
    half = 0.5 * lam
    log_half = math.log(half)
    log_w = -half  # log Poisson(k; lam/2) weight, k = 0
    total = np.zeros_like(xs)
    cum_weight = 0.0
    prev_term = np.full_like(xs, np.inf)
    k = 0
    while k < _SERIES_MAX_TERMS:
        term = np.exp(log_w + log_central_vec(nu + 2.0 * k))
        total += term
        cum_weight += math.exp(log_w)
        m_next = nu + 2.0 * (k + 1)
        tail = max(0.0, 1.0 - cum_weight)
        if m_next > 2.0 and tail * _central_peak(m_next) < tol and np.all(term <= prev_term):
            rel = term / np.maximum(total, 1e-300)
            if np.all((term == 0.0) | (rel < _REL_TAIL_EPS)):
                return total, k
        prev_term = term
        k += 1
        log_w += log_half - math.log(k)
    raise ConvergenceError(f"mixture series not truncated after {k} terms")


def density_series(p: Params, x: float, tol: float = 1e-12) -> float:
    """Density at one point by the Poisson mixture of central chi-squared densities."""
    return float(_mixture(p, [x], tol)[0][0])


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: [x_min, x_max] with linear or log spacing."""

    x_min: float
    x_max: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise DomainError("grid endpoints must be finite")
        if self.x_min <= 0.0 or self.x_min >= self.x_max:
            raise DomainError(f"need 0 < x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.points < 3:
            raise DomainError(f"need at least 3 grid points, got {self.points}")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")

    def points_array(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.linspace(self.x_min, self.x_max, self.points)
        return np.geomspace(self.x_min, self.x_max, self.points)


@dataclass(frozen=True)
class GridMaxima:
    """Interior strict maxima plus a boundary flag standing in for a mode at zero.

    The density diverges at zero for nu < 2, so the boundary flag is based
    on monotone decrease over the first two grid points rather than on a
    value comparison.
    """

    boundary_maximum: bool
    maxima: tuple[tuple[float, float], ...]


def finite_difference(f, x: float, order: int, h: float) -> float:
    """Central-difference derivative estimate of the given order, error O(h^2)."""
    if order not in (1, 2, 3):
        raise DomainError(f"order must be 1, 2 or 3, got {order}")
    if not h > 0.0:
        raise DomainError(f"step must be > 0, got {h}")
    reach = h if order < 3 else 2.0 * h
    if x - reach <= 0.0:
        raise DomainError(f"stencil window [{x - reach}, {x + reach}] leaves (0, inf)")
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    return (f(x + 2.0 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2.0 * h)) / (2.0 * h ** 3)


def grid_local_maxima(p: Params, grid: GridSpec) -> GridMaxima:
    """Dense-grid mode search on the series density.

    Returns every interior grid point that strictly exceeds both neighbours,
    plus the boundary flag.  One shared truncation index makes the sampled
    curve smooth, so no spurious maxima arise from evaluation noise.
    """
    xs = grid.points_array()
    dens = _mixture(p, xs, 1e-13)[0]
    boundary = bool(dens[0] > dens[1])
    interior = np.flatnonzero((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])) + 1
    maxima = tuple((float(xs[i]), float(dens[i])) for i in interior)
    return GridMaxima(boundary_maximum=boundary, maxima=maxima)


def adaptive_quadrature(p: Params, moment: int) -> float:
    """Moment integral of the series density over (0, inf), absolute error < 1e-9.

    The integrable x^(nu/2 - 1) endpoint singularity is handled by an
    algebraically weighted first panel on [0, 1] (the smooth cofactor
    p(x) x^(1 - nu/2) is what gets sampled); the remainder uses plain
    adaptive subdivision on [1, inf).
    """
    # Imported here: scipy.integrate is ~26 MB and a third of a second that
    # nothing outside the quadrature needs.
    from scipy import integrate

    if moment not in (0, 1):
        raise DomainError(f"moment must be 0 or 1, got {moment}")
    nu = p.nu
    # limit of p(x) x^(1 - nu/2) as x -> 0, needed because the weighted rule
    # samples the cofactor at the endpoint
    smooth_at_zero = math.exp(-0.5 * p.lam - 0.5 * nu * math.log(2.0) - math.lgamma(0.5 * nu))

    def smooth_part(x: float) -> float:
        if x <= 0.0:
            return smooth_at_zero
        return density_series(p, x, _SERIES_TOL) * x ** (1.0 - 0.5 * nu)

    def integrand(x: float) -> float:
        return density_series(p, x, _SERIES_TOL) * x ** moment

    head = integrate.quad(
        smooth_part,
        0.0,
        1.0,
        weight="alg",
        wvar=(0.5 * nu - 1.0 + moment, 0.0),
        epsabs=0.25 * QUAD_ABS_TOL,
        epsrel=1e-12,
        limit=200,
        full_output=True,
    )
    tail = integrate.quad(
        integrand,
        1.0,
        np.inf,
        epsabs=0.25 * QUAD_ABS_TOL,
        epsrel=1e-12,
        limit=400,
        full_output=True,
    )
    for piece in (head, tail):
        if len(piece) > 3:
            raise ConvergenceError(f"quadrature did not converge: {piece[3]}")
    value = head[0] + tail[0]
    if head[1] + tail[1] > QUAD_ABS_TOL:
        raise ConvergenceError(
            f"quadrature error estimate {head[1] + tail[1]:.3e} above {QUAD_ABS_TOL}"
        )
    return value
