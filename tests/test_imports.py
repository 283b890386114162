"""What ``import ncx2shape`` loads, checked in a fresh interpreter and in the source.

The package's own numerics need only ``math``.  numpy and scipy serve the
test-side oracle (the mixture route, grids, quadrature) alone, and only
``oracle.py`` imports them; scipy's quadrature is imported where it runs.
Every CLI process pays for what the import loads, so the heavy scipy
submodules and mpmath must stay off it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncx2shape

HEAVY = ("scipy.special", "scipy.integrate", "scipy.stats", "mpmath")

CHILD = """
import json, sys
{entry}
loaded = {{name: name in sys.modules for name in sys.argv[1:]}}
from ncx2shape import Params
from ncx2shape.oracle import adaptive_quadrature
print(json.dumps({{"loaded": loaded, "mass": adaptive_quadrature(Params(1, 5), 0)}}))
"""


@pytest.mark.parametrize("entry", ["import ncx2shape", "from ncx2shape.cli import main"])
def test_import_set(entry):
    env = dict(os.environ, PYTHONPATH=str(Path(ncx2shape.__file__).resolve().parents[1]))
    names = (*HEAVY, "scipy", "ncx2shape.oracle")
    done = subprocess.run([sys.executable, "-c", CHILD.format(entry=entry), *names],
                          capture_output=True, text=True, timeout=120, env=env, check=True)
    result = json.loads(done.stdout)
    assert [name for name in HEAVY if result["loaded"][name]] == []
    # Bare scipy and the oracle stay on the import only until the benchmark
    # reads an import that does not happen as 0 ms instead of null (ROADMAP
    # item 1); then they can leave it.
    assert result["loaded"]["scipy"] and result["loaded"]["ncx2shape.oracle"]
    # The quadrature's lazy scipy.integrate import still works.
    assert abs(result["mass"] - 1.0) <= 1e-8


def _module_level_imports(tree: ast.Module):
    """Top-level package names a module imports when it runs (function bodies aside)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        todo.extend(ast.iter_child_nodes(node))


def test_only_the_oracle_imports_numpy_or_scipy():
    sources = sorted(Path(ncx2shape.__file__).parent.glob("*.py"))
    assert "oracle.py" in [path.name for path in sources]
    found = {
        path.name: sorted({"numpy", "scipy"} & set(_module_level_imports(ast.parse(path.read_text()))))
        for path in sources
    }
    assert found.pop("oracle.py") == ["numpy", "scipy"]
    assert {name: heavy for name, heavy in found.items() if heavy} == {}


def test_test_side_names_have_left_the_package():
    removed = ("GridMaxima", "GridSpec", "adaptive_quadrature", "density_series",
               "density_series_grid", "finite_difference", "grid_local_maxima")
    assert [name for name in removed if hasattr(ncx2shape, name)] == []
