"""The three workloads: what one operation is, how it is checked, and its CLI form.

``modes-sweep``   classify(p) then mode_report(p) for one (nu, lam): the
                  solvers (shape, modes) do the work through scattered
                  scalar l'/l'' calls; bimodal inputs set the tail.
``density-grid``  one (nu, lam) and a 500-point x-grid; every point gets the
                  ``ncx2shape eval`` row (l, exp l, l', l''): bessel and
                  density do the work, the solvers none.
``cli-cold``      one ``ncx2shape`` process per operation (classify, modes,
                  critical-table, eval 500-point csv): interpreter start and
                  import dominate, numerics barely show.

Each workload exposes ``inputs``, ``run`` (the measured operation),
``run_inproc`` (the in-process operation the traced run records), ``check``,
``draws_of`` and ``cli_argvs``, and these settings: ``warmup_ops``;
``trace_ops_per_second`` and ``audit_ops_per_second``, the traced phase's
and the audit set's operation counts per ``--seconds``; ``tail_percentile``,
the tail reported at its usual sample count; and ``probes_see_work``, false
where the work runs in child processes, so times are not scaled by the
host-speed probes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

import gen
import procs
import refcheck

# Solver tolerances the library operations run at: the package defaults
# (modes.DEFAULT_TOL and shape.DEFAULT_TOL) when the benchmark was defined,
# passed explicitly so that answers are compared at one stated accuracy.
MODE_TOL = 1e-10
CRIT_TOL = 1e-8
GRID_POINTS = 500
# Tolerances the CLI falls back to when its output omits them.
CLI_DEFAULT_TOL = 1e-8


def _shape_dict(rep) -> dict:
    return {k: getattr(rep, k) for k in
            ("log_concave", "decreasing", "bimodal", "convex_then_concave", "critical_lambda")}


def _modes_dict(rep) -> dict:
    return {k: getattr(rep, k) for k in
            ("zero_is_mode", "interior_mode", "antimode", "bounds_lower", "bounds_upper")}


def _grid(lo: float, hi: float, spacing: str) -> np.ndarray:
    if spacing == "linear":
        return np.linspace(lo, hi, GRID_POINTS)
    return np.geomspace(lo, hi, GRID_POINTS)


def _param_args(nu: float, lam: float) -> list[str]:
    return ["--nu", repr(nu), "--lambda", repr(lam)]


class ModesSweep:
    name = "modes-sweep"
    warmup_ops = 300
    trace_ops_per_second = 200
    audit_ops_per_second = 400
    tail_percentile = 99.0
    probes_see_work = True

    def __init__(self, pkg):
        self.pkg = pkg

    def inputs(self, seed: int, stream: str, integer_nu: bool = True):
        return gen.draws(seed, stream, integer_nu)

    def draws_of(self, d) -> list:
        return [d]

    def run(self, d):
        pkg = self.pkg
        p = pkg.density.Params(nu=d.nu, lam=d.lam)
        return pkg.shape.classify(p, tol=CRIT_TOL), pkg.modes.mode_report(p, tol=MODE_TOL)

    run_inproc = run

    def check(self, d, out) -> list[str]:
        shape_rep, mode_rep = out
        return (refcheck.check_shape(d.nu, d.lam, _shape_dict(shape_rep), CRIT_TOL)
                + refcheck.check_modes(d.nu, d.lam, _modes_dict(mode_rep), MODE_TOL, CRIT_TOL))

    def cli_argvs(self, d) -> list[list[str]]:
        return [["classify", *_param_args(d.nu, d.lam)], ["modes", *_param_args(d.nu, d.lam)]]


class GridInput:
    __slots__ = ("draw", "lo", "hi", "spacing", "xs")

    def __init__(self, draw):
        self.draw = draw
        self.lo, self.hi, self.spacing = gen.x_grid(draw.nu, draw.lam, GRID_POINTS)
        self.xs = _grid(self.lo, self.hi, self.spacing).tolist()

    def eval_args(self) -> list[str]:
        return ["eval", *_param_args(self.draw.nu, self.draw.lam), "--x-min", repr(self.lo),
                "--x-max", repr(self.hi), "--points", str(GRID_POINTS),
                "--spacing", self.spacing, "--format", "csv"]


class DensityGrid:
    name = "density-grid"
    warmup_ops = 8
    trace_ops_per_second = 6
    audit_ops_per_second = 25
    tail_percentile = 90.0
    probes_see_work = True

    def __init__(self, pkg):
        self.pkg = pkg

    def inputs(self, seed: int, stream: str, integer_nu: bool = True):
        for d in gen.draws(seed, stream, integer_nu):
            yield GridInput(d)

    def draws_of(self, g) -> list:
        return [g.draw]

    def run(self, g):
        density = self.pkg.density
        log_density, d1_fn, d2_fn = density.log_density, density.log_density_d1, density.log_density_d2
        p = density.Params(nu=g.draw.nu, lam=g.draw.lam)
        ls, dens, d1s, d2s, errors = [], [], [], [], []
        # Every call is made even after one fails, so failing ops cost the same.
        for x in g.xs:
            try:
                l = log_density(p, x)
                ls.append(l)
                dens.append(math.exp(l))
            except Exception as exc:  # counted against the op by check()
                ls.append(None)
                dens.append(None)
                errors.append(type(exc).__name__)
            try:
                d1s.append(d1_fn(p, x))
            except Exception as exc:
                d1s.append(None)
                errors.append(type(exc).__name__)
            try:
                d2s.append(d2_fn(p, x))
            except Exception as exc:
                d2s.append(None)
                errors.append(type(exc).__name__)
        return ls, dens, d1s, d2s, errors

    run_inproc = run

    def check(self, g, out) -> list[str]:
        ls, dens, d1s, d2s, errors = out
        bad = refcheck.check_density_rows(g.draw.nu, g.draw.lam, g.xs, ls, d1s, d2s, dens)
        return bad + sorted({f"raised:{e}" for e in errors})

    def cli_argvs(self, g) -> list[list[str]]:
        return [g.eval_args()]


class CliInput:
    __slots__ = ("command", "argv", "draws", "grid")

    def __init__(self, command, argv, draws, grid=None):
        self.command, self.argv, self.draws, self.grid = command, argv, draws, grid


COMMANDS = ("classify", "modes", "critical-table", "eval")


class CliCold:
    name = "cli-cold"
    warmup_ops = 1
    trace_ops_per_second = 4
    audit_ops_per_second = 0.4
    tail_percentile = 50.0
    probes_see_work = False

    def __init__(self, pkg, env):
        self.pkg = pkg
        self.env = env
        self.child_rss_kb: list[int] = []  # peak RSS of each spawned process, from wait4

    def inputs(self, seed: int, stream: str, integer_nu: bool = True):
        """Blocks of the four commands in seeded order, parameters from gen.draws."""
        params = gen.draws(seed, stream, integer_nu)
        order = gen.rng_for(seed, stream + "/commands")
        while True:
            block = list(COMMANDS)
            order.shuffle(block)
            for command in block:
                yield self._make(command, params)

    @staticmethod
    def _make(command: str, params) -> CliInput:
        if command == "critical-table":
            picked = [next(params) for _ in range(3)]
            nus = [d.nu for d in picked if 0.0 < d.nu < 2.0]
            argv = ["critical-table"]
            for nu in nus:
                argv += ["--nu", repr(nu)]
            return CliInput(command, argv, picked)
        d = next(params)
        if command == "eval":
            g = GridInput(d)
            return CliInput(command, g.eval_args(), [d], g)
        return CliInput(command, [command, *_param_args(d.nu, d.lam)], [d])

    def draws_of(self, c) -> list:
        return c.draws

    def run(self, c):
        res = procs.run_child(["-c", procs.CLI_SHIM, *c.argv], self.env)
        self.child_rss_kb.append(res.maxrss_kb)
        return res.code, res.stdout.decode(errors="replace")

    def run_inproc(self, c):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(list(c.argv))
        return code, out.getvalue()

    def check(self, c, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"cli_exit_{code}"]
        try:
            return self._check_output(c, text)
        except (ValueError, KeyError, IndexError, TypeError):
            return ["cli_output_unparsable"]

    def _check_output(self, c, text: str) -> list[str]:
        if c.command == "eval":
            rows = list(csv.reader(io.StringIO(text)))
            if rows[0] != ["x", "density", "log_density", "d1", "d2"] or len(rows) != GRID_POINTS + 1:
                return ["cli_output_shape"]
            cols = list(zip(*[[float(v) for v in r] for r in rows[1:]]))
            xs = np.array(c.grid.xs)
            if not np.allclose(np.array(cols[0]), xs, rtol=1e-11, atol=0.0):
                return ["cli_grid"]
            d = c.draws[0]
            return refcheck.check_density_rows(d.nu, d.lam, xs, cols[2], cols[3], cols[4], cols[1])
        env = json.loads(text)
        tols = env["meta"]["tolerances"]
        payload = env["payload"]
        if c.command == "critical-table":
            nus = [float(c.argv[i + 1]) for i, a in enumerate(c.argv) if a == "--nu"]
            rows = payload["rows"]
            if nus and [r["nu"] for r in rows] != [float(f"{nu:.12g}") for nu in nus]:
                return ["cli_output_shape"]
            tol = tols.get("tol", CLI_DEFAULT_TOL)
            bad = []
            for nu, r in zip(nus or [r["nu"] for r in rows], rows):
                bad += refcheck.check_critical(nu, r["lambda_nu"], tol)
            return sorted(set(bad))
        d = c.draws[0]
        crit_tol = tols.get("critical_lambda", CLI_DEFAULT_TOL)
        if c.command == "classify":
            return refcheck.check_shape(d.nu, d.lam, payload, crit_tol)
        mode_tol = tols.get("mode_position", CLI_DEFAULT_TOL)
        return refcheck.check_modes(d.nu, d.lam, payload, mode_tol, crit_tol)

    def cli_argvs(self, c) -> list[list[str]]:
        return [c.argv]


def make(name: str, pkg, env):
    if name == ModesSweep.name:
        return ModesSweep(pkg)
    if name == DensityGrid.name:
        return DensityGrid(pkg)
    if name == CliCold.name:
        return CliCold(pkg, env)
    raise KeyError(name)


NAMES = (ModesSweep.name, DensityGrid.name, CliCold.name)

