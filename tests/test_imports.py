"""What ``import ncx2shape`` loads, checked in a fresh interpreter.

The package's own numerics need only ``math``; scipy is for the oracle's
quadrature, imported where it runs.  Every CLI process pays for what the
import loads, so the heavy scipy submodules and mpmath must stay off it.
"""

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
from ncx2shape import Params, adaptive_quadrature
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
