"""The README's library quickstart, run as written, and the public API.

The quickstart's comments state the values it computes; the test holds the
code to them.  The public names are pinned so that a change to the API is
a deliberate edit here too.
"""

import ast
import re
from pathlib import Path

import ncx2shape

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_API = {
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
}


def test_quickstart_values():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    *body, last = ast.parse(code).body
    scope = {}
    exec(compile(ast.Module(body, type_ignores=[]), str(README), "exec"), scope)
    lambda_half = eval(compile(ast.Expression(last.value), str(README), "eval"), scope)
    rep, modes = scope["rep"], scope["modes"]
    # rep: bimodal=True, critical_lambda=4.21656...
    assert rep.bimodal is True
    assert f"{rep.critical_lambda:.12f}".startswith("4.21656")
    # modes: zero mode + interior mode 2.60077, antimode 0.56067
    assert modes.zero_is_mode is True
    assert round(modes.interior_mode, 5) == 2.60077
    assert round(modes.antimode, 5) == 0.56067
    # critical_lambda(0.5).lambda_nu: 4.66138...
    assert f"{lambda_half:.12f}".startswith("4.66138")


def test_public_api():
    assert len(ncx2shape.__all__) == len(PUBLIC_API)
    assert set(ncx2shape.__all__) == PUBLIC_API
    assert all(hasattr(ncx2shape, name) for name in PUBLIC_API)
