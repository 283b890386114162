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

# Nothing in the package calls the test-side oracle.  It stays on the import
# only because the benchmark reads the import times of ncx2shape.oracle and of
# scipy from `import ncx2shape`, and reports null, not 0, for an import that
# does not happen (ROADMAP item 1); oracle's bare `import scipy` stays alike.
from . import oracle  # noqa: F401
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
    "InternalConsistencyError",
    "ModeReport",
    "NCX2ShapeError",
    "Params",
    "ShapeReport",
    "antimode",
    "bessel_ratio",
    "classify",
    "critical_lambda",
    "criticality_indicator",
    "density_bessel",
    "inflection_point",
    "interior_mode",
    "log_bessel_i",
    "log_density",
    "log_density_d1",
    "log_density_d2",
    "log_density_d3",
    "mode_report",
]
