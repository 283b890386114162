"""Exact stdout of the README command-line examples and two `modes` edge cases.

Each case's output is kept byte for byte in ``tests/golden/<name>.out``, so
any change to what the CLI prints shows up as a diff of that file.  After
an intended change, refresh a file with ``ncx2shape <args> >
tests/golden/<name>.out`` and list the changed bytes in CHANGES.md.
"""

from pathlib import Path

import pytest

from ncx2shape.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "classify_1_5": ["classify", "--nu", "1", "--lambda", "5"],
    "eval_1_5_x3": ["eval", "--nu", "1", "--lambda", "5", "--x", "3"],
    "eval_1_5_grid_csv": ["eval", "--nu", "1", "--lambda", "5", "--x-min", "0.001", "--x-max", "15",
                          "--points", "500", "--format", "csv"],
    "critical_table": ["critical-table"],
    "critical_table_1_tol_1e-10": ["critical-table", "--nu", "1", "--tol", "1e-10"],
    "modes_4_5": ["modes", "--nu", "4", "--lambda", "5"],
    "modes_0.5_30": ["modes", "--nu", "0.5", "--lambda", "30"],
    "modes_4_0_csv": ["modes", "--nu", "4", "--lambda", "0", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
