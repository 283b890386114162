"""Shape analysis for the noncentral chi-squared density.

Stable evaluation of the density and its log-derivatives, the critical
noncentrality separating decreasing from bimodal shapes for fewer than two
degrees of freedom, exact shape classification, and interior mode and
antimode location with provable bounds.
"""

__version__ = "0.1.0"

from .bessel import bessel_i, bessel_ratio, log_bessel_i
from .density import (
    LogDensityDerivatives,
    Params,
    central_density,
    density_bessel,
    density_series,
    density_series_grid,
    density_series_info,
    log_density,
    log_density_d1,
    log_density_d2,
    log_density_d3,
    log_density_derivatives,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
    NCX2ShapeError,
)
from .modes import (
    ModeReport,
    antimode,
    interior_mode,
    mode_report,
)
from .oracle import (
    GridMaxima,
    GridSpec,
    adaptive_quadrature,
    finite_difference,
    grid_local_maxima,
)
from .shape import (
    CriticalLambda,
    ShapeReport,
    classify,
    critical_lambda,
    criticality_indicator,
    inflection_point,
)

__all__ = [
    "__version__",
    "ConvergenceError",
    "CriticalLambda",
    "DomainError",
    "GridMaxima",
    "GridSpec",
    "InternalConsistencyError",
    "LogDensityDerivatives",
    "ModeReport",
    "NCX2ShapeError",
    "Params",
    "ShapeReport",
    "adaptive_quadrature",
    "antimode",
    "bessel_i",
    "bessel_ratio",
    "central_density",
    "classify",
    "critical_lambda",
    "criticality_indicator",
    "density_bessel",
    "density_series",
    "density_series_grid",
    "density_series_info",
    "finite_difference",
    "grid_local_maxima",
    "inflection_point",
    "interior_mode",
    "log_bessel_i",
    "log_density",
    "log_density_d1",
    "log_density_d2",
    "log_density_d3",
    "log_density_derivatives",
    "mode_report",
]
