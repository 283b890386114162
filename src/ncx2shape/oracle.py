"""Brute-force reference implementations used by the test suite.

Everything here is deliberately independent of the Bessel evaluation path:
grid search and quadrature consume only the Poisson-mixture series route,
so the two formula lineages stay separate until a test compares them.
Finite differences are plain central stencils.

Not a general-purpose numerics surface; accuracy and speed targets are
those of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Params, density_series, density_series_grid
from .errors import ConvergenceError, DomainError

QUAD_ABS_TOL = 1e-9
_SERIES_TOL = 1e-14


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
    dens = density_series_grid(p, xs, tol=1e-13)
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
