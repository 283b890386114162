"""Command line surface tests: payloads, formats, exit codes, round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncx2shape
from ncx2shape import Params, critical_lambda, density_bessel
from ncx2shape.cli import MAX_ROWS, main
from ncx2shape.errors import ConvergenceError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def run_csv(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return list(csv.reader(io.StringIO(out)))


def run_child(*argv):
    """Exit code of the CLI in a child process, which a runaway solver cannot hang."""
    env = dict(os.environ, PYTHONPATH=str(Path(ncx2shape.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "ncx2shape.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    return done.returncode


class TestEval:
    def test_single_point_central(self, capsys):
        env = run_json(capsys, "eval", "--nu", "2", "--lambda", "0", "--x", "2")
        assert env["format"] == "json"
        assert env["meta"]["version"]
        row = env["payload"]["rows"][0]
        assert abs(row["density"] - 0.183940) < 5e-7
        assert abs(row["density"] - math.exp(row["log_density"])) < 1e-12

    def test_cross_form_agreement(self, capsys):
        env = run_json(capsys, "eval", "--nu", "1", "--lambda", "5", "--x", "3")
        from ncx2shape import density_series
        p = Params(nu=1, lam=5)
        got = env["payload"]["rows"][0]["density"]
        assert abs(got - density_series(p, 3.0)) < 1e-11
        assert abs(got - density_bessel(p, 3.0)) < 1e-11

    def test_grid_csv(self, capsys):
        rows = run_csv(capsys, "eval", "--nu", "1", "--lambda", "5",
                       "--x-min", "0.001", "--x-max", "15", "--points", "500",
                       "--format", "csv")
        assert rows[0] == ["x", "density", "log_density", "d1", "d2"]
        assert len(rows) == 501
        assert float(rows[1][0]) == 0.001
        assert float(rows[-1][0]) == 15.0

    def test_csv_round_trip(self, capsys):
        # re-evaluate the density at the printed x and compare at 12 digits
        rows = run_csv(capsys, "eval", "--nu", "1", "--lambda", "5",
                       "--x-min", "0.001", "--x-max", "15", "--points", "50",
                       "--format", "csv")
        p = Params(nu=1, lam=5)
        for row in rows[1:]:
            x, dens = float(row[0]), float(row[1])
            again = density_bessel(p, x)
            assert abs(again - dens) <= 1e-9 * max(1.0, again)

    def test_flag_conflicts(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--nu", "1", "--lambda", "5",
                               "--x", "1", "--x-min", "0.1", "--x-max", "1", "--points", "5")
        assert code == 2 and "error" in err
        code, _, err = run_cli(capsys, "eval", "--nu", "1", "--lambda", "5", "--x-min", "0.1")
        assert code == 2

    def test_invalid_values(self, capsys):
        assert run_cli(capsys, "eval", "--nu", "-1", "--lambda", "5", "--x", "1")[0] == 2
        assert run_cli(capsys, "eval", "--nu", "1", "--lambda", "-5", "--x", "1")[0] == 2
        assert run_cli(capsys, "eval", "--nu", "1", "--lambda", "5", "--x", "0")[0] == 2
        assert run_cli(capsys, "eval", "--nu", "4", "--lambda", "0", "--x", "inf")[0] == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("lam,x", [("1e-160", "1e-160"), ("1", "1e-170"), ("0", "1e-170")])
    def test_overflowing_value_exits_3(self, capsys, fmt, lam, x):
        # l'' ~ (2 - nu) / (2 x^2) overflows, to inf or (once x^2 underflows)
        # by division by zero; "Infinity" is not JSON, and no row is printed.
        code, out, err = run_cli(capsys, "eval", "--nu", "1", "--lambda", lam, "--x", x,
                                 "--format", fmt)
        assert code == 3 and out == "" and "numerical failure" in err

    def test_rejects_too_many_points_before_allocating(self, capsys):
        # 1e11 points would need 800 GB for the grid alone.
        code, out, err = run_cli(capsys, "eval", "--nu", "1", "--lambda", "5", "--x-min", "0.1",
                                 "--x-max", "2", "--points", "100000000000")
        assert (code, out) == (2, "")
        assert str(MAX_ROWS) in err
        assert run_cli(capsys, "eval", "--nu", "1", "--lambda", "5", "--x-min", "0.1",
                       "--x-max", "2", "--points", str(MAX_ROWS + 1))[0] == 2

    def test_tiny_nu(self, capsys):
        # nu/2 - 1 rounds to the order -1 here; the row still answers.
        env = run_json(capsys, "eval", "--nu", "1e-16", "--lambda", "5", "--x", "3")
        row = env["payload"]["rows"][0]
        assert row["log_density"] == -2.27474676249

    def test_underflowing_bessel_argument_exits_2(self, capsys):
        # lam * x = 1e-330 rounds to 0, so t = sqrt(lam x) would be 0.
        code, out, err = run_cli(capsys, "eval", "--nu", "3", "--lambda", "1e-300", "--x", "1e-30")
        assert code == 2 and out == "" and "lam * x underflows" in err

    def test_overflowing_bessel_argument_exits_2(self, capsys):
        # lam * x = 1e600 overflows, so t = sqrt(lam x) would be infinite; this
        # used to exit 3 on a bare ZeroDivisionError.  At 1e308 the row answers.
        code, out, err = run_cli(capsys, "eval", "--nu", "2", "--lambda", "1e300", "--x", "1e300")
        assert code == 2 and out == "" and "lam * x must be finite" in err
        row = run_json(capsys, "eval", "--nu", "2", "--lambda", "1e300", "--x", "1e8")["payload"]["rows"][0]
        assert row["log_density"] == -5e299 and row["d1"] == 5e145


class TestClassify:
    def test_bimodal(self, capsys):
        env = run_json(capsys, "classify", "--nu", "1", "--lambda", "5")
        payload = env["payload"]
        assert payload["bimodal"] is True
        assert abs(payload["critical_lambda"] - 4.217) < 5e-4

    def test_log_concave(self, capsys):
        payload = run_json(capsys, "classify", "--nu", "3", "--lambda", "1")["payload"]
        assert payload["log_concave"] is True
        assert payload["critical_lambda"] is None

    def test_overlap(self, capsys):
        payload = run_json(capsys, "classify", "--nu", "2", "--lambda", "2")["payload"]
        assert payload["decreasing"] is True and payload["log_concave"] is True

    def test_csv(self, capsys):
        rows = run_csv(capsys, "classify", "--nu", "1", "--lambda", "5", "--format", "csv")
        assert rows[0][0] == "nu"
        assert rows[1][rows[0].index("bimodal")] == "true"


class TestCriticalTable:
    TABLE = {0.25: 4.769, 0.5: 4.661, 0.75: 4.467, 1.0: 4.217,
             1.25: 3.914, 1.5: 3.548, 1.75: 3.073}

    def test_default_rows(self, capsys):
        payload = run_json(capsys, "critical-table")["payload"]
        rows = payload["rows"]
        assert [r["nu"] for r in rows] == sorted(self.TABLE)
        for r in rows:
            assert abs(r["lambda_nu"] - self.TABLE[r["nu"]]) < 5e-4
            assert r["iterations"] > 0

    def test_single_nu_tight_tol(self, capsys):
        payload = run_json(capsys, "critical-table", "--nu", "1", "--tol", "1e-10")["payload"]
        value = payload["rows"][0]["lambda_nu"]
        assert round(value, 3) == 4.217
        res = critical_lambda(1.0, 1e-10)
        assert abs(value - res.lambda_nu) < 1e-10

    def test_range(self, capsys):
        rows = run_json(capsys, "critical-table", "--nu-min", "0.1", "--nu-max", "1.9",
                        "--steps", "19")["payload"]["rows"]
        assert len(rows) == 19
        assert all(r["lambda_nu"] > 2.0 for r in rows)

    def test_rejects_too_many_steps_before_allocating(self, capsys):
        code, out, err = run_cli(capsys, "critical-table", "--nu-min", "0.1", "--nu-max", "1.9",
                                 "--steps", "100000000000")
        assert (code, out) == (2, "")
        assert str(MAX_ROWS) in err
        assert run_cli(capsys, "critical-table", "--nu-min", "0.1", "--nu-max", "1.9",
                       "--steps", str(MAX_ROWS + 1))[0] == 2

    def test_rejects_out_of_range(self, capsys):
        assert run_cli(capsys, "critical-table", "--nu", "3")[0] == 2
        assert run_cli(capsys, "critical-table", "--nu", "0")[0] == 2

    def test_rejects_infinite_tolerance(self):
        assert run_child("critical-table", "--nu", "1", "--tol", "inf") == 2

    def test_nu_floor(self, capsys):
        # Below shape.NU_FLOOR = 1e-16 the solvers refuse.  Without the floor,
        # 1e-300 printed a negative lambda_nu with exit 0, and 1e-50 exited 3
        # on a ZeroDivisionError.
        for argv in (("critical-table", "--nu", "1e-300"), ("critical-table", "--nu", "1e-50"),
                     ("critical-table", "--nu", "9.9e-17"), ("classify", "--nu", "1e-300", "--lambda", "3"),
                     ("modes", "--nu", "1e-300", "--lambda", "3")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "below 1e-16" in err
        rows = run_json(capsys, "critical-table", "--nu", "1e-16")["payload"]["rows"]
        assert 4.0 < rows[0]["lambda_nu"] < 4.0001
        assert run_json(capsys, "classify", "--nu", "1e-16", "--lambda", "3")["payload"]["decreasing"]


class TestModes:
    def test_log_concave(self, capsys):
        payload = run_json(capsys, "modes", "--nu", "4", "--lambda", "5")["payload"]
        assert 6.0 < payload["interior_mode"] <= 7.0
        assert payload["bounds_lower"] == 6.0 and payload["bounds_upper"] == 7.0
        assert payload["zero_is_mode"] is False

    def test_bimodal(self, capsys):
        payload = run_json(capsys, "modes", "--nu", "1", "--lambda", "5")["payload"]
        assert payload["zero_is_mode"] is True
        assert 2.0 < payload["interior_mode"] < 3.0
        assert payload["antimode"] <= 2.0

    def test_no_interior_mode(self, capsys):
        payload = run_json(capsys, "modes", "--nu", "1", "--lambda", "4")["payload"]
        assert payload["zero_is_mode"] is True
        assert payload["interior_mode"] is None
        assert payload["bounds_lower"] is None

    def test_mode_outside_its_bounds_exits_3(self, capsys, monkeypatch):
        # A ratio 20% too large moves the mode of (4, 5) from 6.11 to 7.76,
        # outside the proven [6, 7]: refused, not printed.
        import ncx2shape.density

        def inflated(mu, t):
            return 1.2 * ratio(mu, t)

        ratio = ncx2shape.density.bessel_ratio
        monkeypatch.setattr(ncx2shape.density, "bessel_ratio", inflated)
        code, out, err = run_cli(capsys, "modes", "--nu", "4", "--lambda", "5")
        assert code == 3
        assert out == ""
        assert "outside its bounds" in err

    def test_lambda_beyond_the_overflow_limit_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "modes", "--nu", "1", "--lambda", "1.4e154")
        assert (code, out) == (2, "")
        assert "too large" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_rejects_bad_tolerance(self, tol):
        assert run_child("modes", "--nu", "4", "--lambda", "5", "--tol", tol) == 2


class TestEnvelope:
    def test_determinism(self, capsys):
        a = run_cli(capsys, "classify", "--nu", "1.3", "--lambda", "4.2")
        b = run_cli(capsys, "classify", "--nu", "1.3", "--lambda", "4.2")
        assert a == b

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "critical-table", "--nu", "1", "--format", "csv")
        value = out.splitlines()[1].split(",")[1]
        mantissa = value.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) <= 12

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        import ncx2shape.cli as climod

        def boom(nu, tol):
            raise ConvergenceError("forced failure")

        monkeypatch.setattr(climod, "critical_lambda", boom)
        code, _, err = run_cli(capsys, "critical-table", "--nu", "1")
        assert code == 3
        assert "numerical failure" in err
