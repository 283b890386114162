"""Command line interface.

Subcommands
-----------
eval            density / log density / derivative rows at a point or grid
classify        shape flags plus the critical noncentrality when nu <= 2
critical-table  critical noncentrality table over a set of nu values
modes           mode report with location bounds

JSON output (the default) is a single envelope object per invocation; CSV
output is a header row plus data rows.  Numbers carry 12 significant
digits.  Identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  ``--points``
and ``--steps`` above ``MAX_ROWS`` are usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import __version__
from .density import (
    D2_CONSISTENCY_TOL,
    Params,
    log_density,
    log_density_d1,
    log_density_d2,
)
from .errors import ConvergenceError, DomainError, InternalConsistencyError
from .modes import DEFAULT_TOL as MODE_TOL
from .modes import mode_report
from .oracle import GridSpec
from .shape import DEFAULT_TOL, classify, critical_lambda

TABLE_DEFAULT_NUS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)

# Most rows one invocation computes (--points, --steps): the output is held
# in memory until it is written.
MAX_ROWS = 100_000


class UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncx2shape",
        description="Noncentral chi-squared density shapes, critical noncentrality and modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate density and log-density derivatives")
    p_eval.add_argument("--nu", type=float, required=True, help="degrees of freedom, > 0")
    p_eval.add_argument("--lambda", dest="lam", type=float, required=True, help="noncentrality, >= 0")
    p_eval.add_argument("--x", type=float, help="single evaluation point, > 0")
    p_eval.add_argument("--x-min", type=float, help="grid start, > 0")
    p_eval.add_argument("--x-max", type=float, help="grid end")
    p_eval.add_argument("--points", type=int, help="grid size, >= 3")
    p_eval.add_argument("--spacing", choices=("linear", "log"), default="linear")
    _add_format(p_eval)

    p_cls = sub.add_parser("classify", help="shape classification")
    p_cls.add_argument("--nu", type=float, required=True)
    p_cls.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_format(p_cls)

    p_tab = sub.add_parser("critical-table", help="critical noncentrality per nu")
    p_tab.add_argument("--nu", type=float, action="append", help="may be repeated; 0 < nu < 2")
    p_tab.add_argument("--nu-min", type=float)
    p_tab.add_argument("--nu-max", type=float)
    p_tab.add_argument("--steps", type=int)
    p_tab.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_format(p_tab)

    p_mod = sub.add_parser("modes", help="mode report with bounds")
    p_mod.add_argument("--nu", type=float, required=True)
    p_mod.add_argument("--lambda", dest="lam", type=float, required=True)
    p_mod.add_argument("--tol", type=float, default=MODE_TOL)
    _add_format(p_mod)

    return parser


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit(fmt: str, payload: dict, columns: list[str], rows: list[list], tolerances: dict) -> None:
    if fmt == "json":
        envelope = {
            "format": "json",
            "meta": {"version": __version__, "tolerances": tolerances},
            "payload": payload,
        }
        sys.stdout.write(json.dumps(_round_floats(envelope)) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cmd_eval(args) -> None:
    p = Params(nu=args.nu, lam=args.lam)
    grid_flags = (args.x_min, args.x_max, args.points)
    if args.x is not None:
        if any(v is not None for v in grid_flags):
            raise UsageError("--x conflicts with --x-min/--x-max/--points")
        xs = [args.x]
    else:
        if any(v is None for v in grid_flags):
            raise UsageError("provide --x, or all of --x-min --x-max --points")
        if args.points > MAX_ROWS:
            raise UsageError(f"--points must be at most {MAX_ROWS}, got {args.points}")
        xs = GridSpec(args.x_min, args.x_max, args.points, args.spacing).points_array().tolist()
    rows = []
    for x in xs:
        l = log_density(p, x)
        rows.append([x, math.exp(l), l, log_density_d1(p, x), log_density_d2(p, x)])
        if not all(map(math.isfinite, rows[-1])):
            raise OverflowError(f"non-finite value in the row at x={x!r}: {rows[-1]!r}")
    columns = ["x", "density", "log_density", "d1", "d2"]
    payload = {"nu": p.nu, "lambda": p.lam, "rows": [dict(zip(columns, r)) for r in rows]}
    _emit(args.format, payload, columns, rows, {"d2_consistency": D2_CONSISTENCY_TOL})


def _cmd_classify(args) -> None:
    p = Params(nu=args.nu, lam=args.lam)
    rep = classify(p)
    columns = ["nu", "lambda", "log_concave", "decreasing", "bimodal",
               "convex_then_concave", "critical_lambda"]
    row = [p.nu, p.lam, rep.log_concave, rep.decreasing, rep.bimodal,
           rep.convex_then_concave, rep.critical_lambda]
    payload = dict(zip(columns, row))
    _emit(args.format, payload, columns, [row], {"critical_lambda": DEFAULT_TOL})


def _cmd_critical_table(args) -> None:
    range_flags = (args.nu_min, args.nu_max, args.steps)
    if args.nu and any(v is not None for v in range_flags):
        raise UsageError("--nu conflicts with --nu-min/--nu-max/--steps")
    if args.nu:
        nus = list(args.nu)
    elif any(v is not None for v in range_flags):
        if any(v is None for v in range_flags):
            raise UsageError("provide all of --nu-min --nu-max --steps")
        if not 1 <= args.steps <= MAX_ROWS:
            raise UsageError(f"--steps must lie in [1, {MAX_ROWS}], got {args.steps}")
        if args.steps == 1:
            nus = [args.nu_min]
        else:
            step = (args.nu_max - args.nu_min) / (args.steps - 1)
            nus = [args.nu_min + i * step for i in range(args.steps)]
    else:
        nus = list(TABLE_DEFAULT_NUS)
    for nu in nus:
        if not 0.0 < nu < 2.0:
            raise UsageError(f"nu must lie in (0, 2), got {nu}")
    rows = []
    for nu in nus:
        res = critical_lambda(nu, args.tol)
        rows.append([nu, res.lambda_nu, res.iterations])
    columns = ["nu", "lambda_nu", "iterations"]
    payload = {"rows": [dict(zip(columns, r)) for r in rows]}
    _emit(args.format, payload, columns, rows, {"tol": args.tol})


def _cmd_modes(args) -> None:
    p = Params(nu=args.nu, lam=args.lam)
    rep = mode_report(p, tol=args.tol)
    columns = ["nu", "lambda", "zero_is_mode", "interior_mode", "antimode",
               "bounds_lower", "bounds_upper", "bound_source"]
    row = [p.nu, p.lam, rep.zero_is_mode, rep.interior_mode, rep.antimode,
           rep.bounds_lower, rep.bounds_upper, rep.bound_source]
    payload = dict(zip(columns, row))
    _emit(args.format, payload, columns, [row],
          {"mode_position": args.tol, "critical_lambda": DEFAULT_TOL})


_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "critical-table": _cmd_critical_table,
    "modes": _cmd_modes,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (UsageError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, InternalConsistencyError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
