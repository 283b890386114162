"""Per-layer metrics of the traced run, each with the end-to-end metric it should move.

Call counts are deterministic for a given seed, code and ``--seconds``
(the traced phase runs a fixed number of operations), so they repeat
exactly; times are wall-clock and include the wrappers' own cost, which the
``trace.*`` metrics quantify.  A metric whose wrapped binding is missing
comes out as ``None``.
"""

from __future__ import annotations

import numpy as np

from spans import OP, SpanTable

# name -> (unit, what it should move)
SPECS = {
    "bessel.ratio.calls_per_op": ("calls/op", "ops_per_s, latency_p50_ms: density-grid most, modes-sweep less, cli-cold none"),
    "bessel.ratio.us_per_call": ("us", "ops_per_s, latency_p50_ms: density-grid most, modes-sweep less, cli-cold none"),
    "bessel.log_i.calls_per_op": ("calls/op", "ops_per_s, latency_p50_ms: density-grid most, modes-sweep less, cli-cold none"),
    "bessel.log_i.us_per_call": ("us", "ops_per_s, latency_p50_ms: density-grid most, modes-sweep less, cli-cold none"),
    "bessel.self_share": ("frac", "ops_per_s, latency_p50_ms: density-grid most, modes-sweep less, cli-cold none"),
    "bessel.errors": ("count", "failed ops (attempted/failed)"),
    "density.log_density.calls_per_op": ("calls/op", "density-grid ops_per_s"),
    "density.d1.calls_per_op": ("calls/op", "density-grid ops_per_s; modes-sweep latency_tail_ms"),
    "density.d2.calls_per_op": ("calls/op", "density-grid ops_per_s; modes-sweep latency_tail_ms (via inflection_point)"),
    "density.d1.us_per_call": ("us", "density-grid ops_per_s"),
    "density.d2.us_per_call": ("us", "density-grid ops_per_s; modes-sweep latency_tail_ms"),
    "density.self_share": ("frac", "density-grid ops_per_s"),
    "density.d2.selfcheck_failures": ("count", "failed ops (attempted/failed)"),
    "shape.critical_lambda.calls_per_op": ("calls/op", "modes-sweep ops_per_s, latency_tail_ms; nothing on density-grid"),
    "shape.critical_lambda.repeat_share": ("frac", "property of the workload; quote it with any cache claim"),
    "shape.critical_lambda.iterations_per_solve": ("iter", "modes-sweep ops_per_s, latency_tail_ms"),
    "shape.critical_lambda.us_per_fresh_call": ("us", "modes-sweep ops_per_s, latency_tail_ms"),
    "shape.inflection_point.calls_per_op": ("calls/op", "modes-sweep ops_per_s, latency_tail_ms"),
    "shape.inflection_point.d2_evals_per_call": ("calls", "modes-sweep ops_per_s, latency_tail_ms"),
    "shape.self_share": ("frac", "modes-sweep ops_per_s, latency_tail_ms"),
    "modes.mode_report.us_per_call": ("us", "modes-sweep ops_per_s, latency_tail_ms"),
    "modes.interior_mode.d1_evals_per_call": ("calls", "modes-sweep ops_per_s, latency_tail_ms"),
    "modes.antimode.d1_evals_per_call": ("calls", "modes-sweep ops_per_s, latency_tail_ms"),
    "modes.self_share": ("frac", "modes-sweep ops_per_s, latency_tail_ms"),
    "modes.bound_violations": ("count", "failed ops (attempted/failed)"),
    "cli.interpreter_ms": ("ms", "cli-cold latency_p50_ms; setup_s everywhere; not library ops_per_s"),
    "cli.import_ms": ("ms", "cli-cold latency_p50_ms, peak_rss_mb; setup_s everywhere"),
    "cli.import_scipy_ms": ("ms", "cli-cold latency_p50_ms, peak_rss_mb; setup_s everywhere"),
    "cli.import_oracle_ms": ("ms", "cli-cold latency_p50_ms, peak_rss_mb; setup_s everywhere"),
    "cli.run_ms": ("ms", "cli-cold latency_p50_ms"),
    "cli.stdout_bytes": ("B", "cli-cold latency_p50_ms"),
    "trace.untraced_ops_per_s": ("1/s", "tracing overhead: in-process ops, tracing off"),
    "trace.traced_ops_per_s": ("1/s", "tracing overhead: same op count, tracing on"),
    "trace.overhead_frac": ("frac", "tracing overhead: 1 - traced / untraced"),
}


def _per(n, d):
    return None if n is None or not d else n / d


def _mean_us(table: SpanTable, name: str):
    ids = table.ids(name)
    if ids is None:
        return None
    return float(table.dur[ids].mean()) / 1e3 if len(ids) else 0.0


def _count(table: SpanTable, name: str):
    ids = table.ids(name)
    return None if ids is None else len(ids)


def _errors(table: SpanTable, layer: str, exc: str | None = None, name: str | None = None) -> int:
    n = 0
    for sid, err in table.tracer.errors.items():
        span_name = table.names[table.name[sid]]
        if name is not None and span_name != name:
            continue
        if span_name.split(".", 1)[0] == layer and (exc is None or err == exc):
            n += 1
    return n


def _critical_lambda(table: SpanTable) -> dict:
    """Repeat share by (nu, tol) key, and the cost of calls that solved afresh.

    A call solved afresh when it evaluated the indicator (it has
    ``shape.criticality_indicator`` children); its iteration count comes
    from the returned ``CriticalLambda.iterations``.
    """
    ids = table.ids("shape.critical_lambda")
    out = {"repeat_share": None, "iterations_per_solve": None, "us_per_fresh_call": None}
    if ids is None:
        return out
    seen, repeats = set(), 0
    for sid in ids:
        args, kwargs = table.tracer.args.get(int(sid), ((), {}))
        key = (args[0] if args else kwargs.get("nu"), args[1] if len(args) > 1 else kwargs.get("tol"))
        repeats += key in seen
        seen.add(key)
    out["repeat_share"] = repeats / len(ids) if len(ids) else 0.0
    ind = table.ids("shape.criticality_indicator")
    if ind is None:
        return out
    solved = np.isin(ids, table.parent[ind])
    fresh = ids[solved]
    if len(fresh):
        iters = [getattr(table.tracer.results.get(int(s)), "iterations", None) for s in fresh]
        if all(i is not None for i in iters):
            out["iterations_per_solve"] = float(np.mean(iters))
        out["us_per_fresh_call"] = float(table.dur[fresh].mean()) / 1e3
    else:
        out["iterations_per_solve"] = out["us_per_fresh_call"] = 0.0
    return out


def library_metrics(table: SpanTable, bound_violations: int) -> dict:
    """Per-layer metrics of the in-process traced phase."""
    ops = table.ids(OP)
    n_ops = len(ops)
    total = float(table.dur[ops].sum())

    def share(layer):
        return float(table.self_time[table.layer_mask(layer)].sum()) / total if total else 0.0

    def per_call(child, parent):
        c, p = table.children_of(child, parent), _count(table, parent)
        return _per(c, p) if p else (None if c is None else 0.0)

    crit = _critical_lambda(table)
    return {
        "bessel.ratio.calls_per_op": _per(_count(table, "bessel.bessel_ratio"), n_ops),
        "bessel.ratio.us_per_call": _mean_us(table, "bessel.bessel_ratio"),
        "bessel.log_i.calls_per_op": _per(_count(table, "bessel.log_bessel_i"), n_ops),
        "bessel.log_i.us_per_call": _mean_us(table, "bessel.log_bessel_i"),
        "bessel.self_share": share("bessel"),
        "bessel.errors": _errors(table, "bessel"),
        "density.log_density.calls_per_op": _per(_count(table, "density.log_density"), n_ops),
        "density.d1.calls_per_op": _per(_count(table, "density.log_density_d1"), n_ops),
        "density.d2.calls_per_op": _per(_count(table, "density.log_density_d2"), n_ops),
        "density.d1.us_per_call": _mean_us(table, "density.log_density_d1"),
        "density.d2.us_per_call": _mean_us(table, "density.log_density_d2"),
        "density.self_share": share("density"),
        "density.d2.selfcheck_failures": _errors(table, "density", "InternalConsistencyError",
                                                 "density.log_density_d2"),
        "shape.critical_lambda.calls_per_op": _per(_count(table, "shape.critical_lambda"), n_ops),
        "shape.critical_lambda.repeat_share": crit["repeat_share"],
        "shape.critical_lambda.iterations_per_solve": crit["iterations_per_solve"],
        "shape.critical_lambda.us_per_fresh_call": crit["us_per_fresh_call"],
        "shape.inflection_point.calls_per_op": _per(_count(table, "shape.inflection_point"), n_ops),
        "shape.inflection_point.d2_evals_per_call": per_call("density.log_density_d2",
                                                             "shape.inflection_point"),
        "shape.self_share": share("shape"),
        "modes.mode_report.us_per_call": _mean_us(table, "modes.mode_report"),
        "modes.interior_mode.d1_evals_per_call": per_call("density.log_density_d1", "modes.interior_mode"),
        "modes.antimode.d1_evals_per_call": per_call("density.log_density_d1", "modes.antimode"),
        "modes.self_share": share("modes"),
        "modes.bound_violations": bound_violations,
    }
