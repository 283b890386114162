"""Shape analysis for the noncentral chi-squared density.

Stable evaluation of the density and its log-derivatives, the critical
noncentrality separating decreasing from bimodal shapes for fewer than two
degrees of freedom, exact shape classification, and interior mode and
antimode location with provable bounds.
"""

__version__ = "0.1.0"

from .bessel import bessel_ratio, log_bessel_i
from .density import (
    Params,
    density_bessel,
    density_series,
    density_series_grid,
    log_density,
    log_density_d1,
    log_density_d2,
    log_density_d3,
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
    "ModeReport",
    "NCX2ShapeError",
    "Params",
    "ShapeReport",
    "adaptive_quadrature",
    "antimode",
    "bessel_ratio",
    "classify",
    "critical_lambda",
    "criticality_indicator",
    "density_bessel",
    "density_series",
    "density_series_grid",
    "finite_difference",
    "grid_local_maxima",
    "inflection_point",
    "interior_mode",
    "log_bessel_i",
    "log_density",
    "log_density_d1",
    "log_density_d2",
    "log_density_d3",
    "mode_report",
]
