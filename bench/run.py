"""ncx2shape benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload modes-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` is the separate traced run that gives the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a full
result record go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import gen
import hostspeed
import layers
import procs
import refcheck
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
TAIL_LADDER = (99.0, 90.0, 50.0)
MIN_BEYOND = 10
SPOT_DRAWS = 4
SPOT_POOL = 64
IMPORTTIME_REPEATS = 3
INTERPRETER_REPEATS = 5
CLI_SPAWNS = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_package() -> SimpleNamespace:
    """Import ncx2shape from this checkout's src/, refusing any other copy."""
    if not (SRC / "ncx2shape" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncx2shape
    from ncx2shape import cli, density, modes, shape

    if Path(ncx2shape.__file__).resolve().parent != SRC / "ncx2shape":
        raise SystemExit(f"error: imported ncx2shape from {ncx2shape.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, density=density, modes=modes, shape=shape)


def machine() -> dict:
    import mpmath
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "platform": platform.platform(),
    }


class Phase:
    """Per-operation timings and verdicts of one loop over a workload.

    Inputs are not kept (that would grow the process with the op count and
    leak into ``peak_rss_mb``): only the mix counts and the first few draws,
    for the spot checks.  ``window`` holds, per operation, the index of the
    host-speed probe window it ran in (see ``hostspeed.py``).  ``audit_*`` count
    the first ``audit_n`` operations, which every measured run completes, so
    they are a function of the seed and the code alone.
    """

    def __init__(self, audit_n: int = 0):
        self.lat = array("d")
        self.passed = bytearray()
        self.window = array("q")
        self.probes = hostspeed.Probes()
        self.busy_s = 0.0
        self.ok = 0
        self.failed = 0
        self.audit_n = audit_n
        self.audit_failed = 0
        self.reasons: Counter = Counter()
        self.mix = gen.Mix()
        self.first_draws: list = []

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    def ops_per_s(self) -> float:
        return self.ok / self.busy_s if self.busy_s else 0.0

    def nominal_lat(self) -> list[float]:
        """Each operation's time as on the nominal host (see ``hostspeed.py``)."""
        factor = self.probes.to_nominal()
        return [t * factor[w] for t, w in zip(self.lat, self.window)]


def run_ops(wl, inputs, fn, *, seconds=None, count=None, min_count=0, tracer=None,
            ph=None) -> Phase:
    """Closed loop: one operation at a time, checked after its timer stops.

    Stops once the operations' own time reaches ``seconds`` and at least
    ``min_count`` operations are done, or after ``count`` operations.  An
    operation that raises, or whose answer fails the reference check, counts
    as failed: its time is kept, its count is not.  Passing ``ph`` continues
    an earlier loop; ``seconds`` and the counts are then totals.
    """
    ph = ph if ph is not None else Phase()
    perf = time.perf_counter
    probes = ph.probes
    while ((count is None or ph.attempted < count)
           and (seconds is None or ph.busy_s < seconds or ph.attempted < min_count)):
        inp = next(inputs)
        err = None
        window = probes.probe() if probes.due() else len(probes.seconds) - 1
        with tracer.op_span(ph.attempted) if tracer else contextlib.nullcontext():
            t0 = perf()
            try:
                out = fn(inp)
            except Exception as exc:  # the verdict below records it
                out, err = None, exc
            dt = perf() - t0
        bad = [f"raised:{type(err).__name__}"] if err is not None else wl.check(inp, out)
        ph.lat.append(dt)
        ph.window.append(window)
        ph.busy_s += dt
        ph.passed.append(not bad)
        for d in wl.draws_of(inp):
            ph.mix.add(d)
            if len(ph.first_draws) < SPOT_POOL:
                ph.first_draws.append(d)
        if bad:
            ph.failed += 1
            ph.reasons.update(set(bad))
            ph.audit_failed += ph.attempted <= ph.audit_n
        else:
            ph.ok += 1
    probes.probe()  # closes the last window
    return ph


def tail(ordered: list[float], highest: float) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile, from ``highest`` down,
    with >= 10 samples beyond it.

    Each workload fixes ``highest``, and a measured run goes on until that
    percentile has enough samples (``tail_samples``), so that the percentile
    reported does not flip from run to run.
    """
    for q in (q for q in TAIL_LADDER if q <= highest):
        value = percentile(ordered, q)
        if sum(1 for v in ordered if v > value) >= MIN_BEYOND:
            return q, value
    return 100.0, ordered[-1]


def tail_samples(q: float) -> int:
    """Fewest samples that leave MIN_BEYOND of them above percentile ``q``."""
    return math.ceil(MIN_BEYOND / (1.0 - q / 100.0))


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of sorted data (numpy's default rule)."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spot_checks(draws: list, seed: int) -> tuple[int, int]:
    """mpmath (30 digits) against the scipy reference on a few consumed draws."""
    picks = random.Random(seed).sample(draws, min(SPOT_DRAWS, len(draws)))
    done = mismatched = 0
    for d in picks:
        lo, hi, _ = gen.x_grid(d.nu, d.lam)
        for x in (lo, 0.5 * (lo + hi), max(d.nu + d.lam - 2.0, lo)):
            done += 1
            mismatched += not refcheck.spot_check_density(d.nu, d.lam, x)
        if 0.0 < d.nu < 2.0:
            for lam in (d.lam, 3.0, 4.5):
                done += 1
                mismatched += not refcheck.spot_check_indicator(d.nu, lam)
    return done, mismatched


def print_phase(title: str, ph: Phase) -> None:
    print(f"# {title}: {ph.attempted} ops attempted, {ph.ok} correct, {ph.failed} failed "
          f"(failed_ops_frac = {ph.failed / max(1, ph.attempted):.4f}), busy {ph.busy_s:.2f} s")
    if ph.reasons:
        print("#   failure reasons (ops): " + ", ".join(f"{k}={v}" for k, v in sorted(ph.reasons.items())))
    print("#   input mix: " + ", ".join(
        f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in ph.mix.summary().items()))


def end_to_end(wl, args, env) -> tuple[dict, Phase, dict]:
    procs.import_seconds(env, 1)  # compiles bytecode and warms the file cache
    warm = wl.inputs(args.seed, "warmup", integer_nu=False)
    run_ops(wl, warm, wl.run, count=wl.warmup_ops)
    children = getattr(wl, "child_rss_kb", None)  # set when each op is a child process
    if children is not None:
        children.clear()
    # The set-up imports are spread over the measured phase, one before each
    # equal slice of it, so that one slow stretch of the host cannot hold them all.
    ph = Phase(audit_n=max(1, round(wl.audit_ops_per_second * args.seconds)))
    inputs = wl.inputs(args.seed, "measure")
    setup = []
    for k in range(1, SETUP_REPEATS + 1):
        setup += procs.import_seconds(env, 1)
        run_ops(wl, inputs, wl.run, seconds=args.seconds * k / SETUP_REPEATS,
                min_count=max(ph.audit_n, tail_samples(wl.tail_percentile)) if k == SETUP_REPEATS
                else 0, ph=ph)
    lat = ph.nominal_lat() if wl.probes_see_work else list(ph.lat)
    ordered = sorted(lat)
    q, tail_s = tail(ordered, wl.tail_percentile)
    if children:
        rss_kb = max(children)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ph.ok / sum(lat),
        "latency_p50_ms": percentile(ordered, 50.0) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    print_phase("measured phase (tracing off)", ph)
    print(f"#   result attempted/failed: the first {ph.audit_n} ops of the seeded stream, "
          f"{ph.audit_failed} failed")
    if wl.probes_see_work:
        factor = sorted(ph.probes.to_nominal())
        print(f"#   host-speed probes: {len(ph.probes.seconds)}; times scaled to the nominal host "
              f"(probe {hostspeed.PROBE_NOMINAL_S * 1e6:.0f} us) by factors p10/p50/p90 "
              f"{percentile(factor, 10):.3f}/{percentile(factor, 50):.3f}/{percentile(factor, 90):.3f}; "
              f"unscaled: ops_per_s {ph.ops_per_s():.4g}, p50 {percentile(sorted(ph.lat), 50) * 1e3:.4g} ms")
    else:
        print("#   times unscaled: the work runs in child processes, which the host-speed "
              "probes cannot see")
    print(f"#   setup_s: median of {SETUP_REPEATS} fresh-interpreter imports spread over the "
          "measured phase: " + ", ".join(f"{s:.4f}" for s in setup))
    print(f"#   latency: {len(ordered)} samples; tail = p{q:g} "
          f"({sum(1 for v in ordered if v > tail_s)} samples beyond it)")
    extra = {"setup_samples_s": setup, "samples": len(ordered), "tail_percentile": q}
    return metrics, ph, extra


def traced(wl, args, env) -> tuple[dict, Phase, dict]:
    warm = wl.inputs(args.seed, "warmup", integer_nu=False)
    run_ops(wl, warm, wl.run_inproc, count=wl.warmup_ops)
    n = max(1, round(wl.trace_ops_per_second * args.seconds))
    base = run_ops(wl, wl.inputs(args.seed, "trace-base"), wl.run_inproc, count=n)
    tracer = spans.Tracer()
    with spans.install(tracer):
        ph = run_ops(wl, wl.inputs(args.seed, "measure"), wl.run_inproc, count=n, tracer=tracer)
    table = spans.SpanTable(tracer)
    metrics = layers.library_metrics(table, ph.reasons.get("mode_outside_bounds", 0))
    for binding in sorted(tracer.missing):
        print(f"#   missing binding: {binding}")

    interp = procs.interpreter_ms(env, INTERPRETER_REPEATS)
    imports = procs.import_breakdown(env, IMPORTTIME_REPEATS)
    # -X importtime inflates the import it reports; run_ms subtracts a plain one.
    import_plain_ms = statistics.median(procs.import_seconds(env, IMPORTTIME_REPEATS)) * 1e3
    walls, sizes = [], []
    inputs = wl.inputs(args.seed, "measure")
    while len(walls) < CLI_SPAWNS:
        for argv in wl.cli_argvs(next(inputs)):
            res = procs.run_child(["-c", procs.CLI_SHIM, *argv], env)
            walls.append(res.wall_s * 1e3)
            sizes.append(len(res.stdout))
    import_ms = imports.get("ncx2shape")
    metrics.update({
        "cli.interpreter_ms": interp,
        "cli.import_ms": import_ms,
        "cli.import_scipy_ms": imports.get("scipy"),
        "cli.import_oracle_ms": imports.get("ncx2shape.oracle"),
        "cli.run_ms": statistics.median(walls) - interp - import_plain_ms,
        "cli.stdout_bytes": statistics.mean(sizes),
        "trace.untraced_ops_per_s": base.ops_per_s(),
        "trace.traced_ops_per_s": ph.ops_per_s(),
        "trace.overhead_frac": 1.0 - ph.ops_per_s() / base.ops_per_s() if base.ops_per_s() else None,
    })
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
    tracer.save(span_file)
    print_phase(f"traced phase ({n} ops, fixed count)", ph)
    print(f"#   untraced comparison phase: {base.attempted} ops, {base.ops_per_s():.2f} ops/s; "
          f"traced {ph.ops_per_s():.2f} ops/s")
    print(f"#   spans: {len(tracer.name)} written to {span_file.relative_to(ROOT)}")
    print(f"#   cli: {len(walls)} spawns, median wall {statistics.median(walls):.1f} ms")
    return metrics, ph, {"spans": len(tracer.name), "missing_bindings": sorted(tracer.missing)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    pkg = load_package()
    env = procs.child_env(str(SRC))
    wl = workloads.make(args.workload, pkg, env)

    info = machine()
    print(f"# ncx2shape benchmark: workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print("# tolerances: " + ", ".join(f"{k}={v:g}" for k, v in refcheck.TOLERANCES.items())
          + f", mode_solver={workloads.MODE_TOL:g}, critical_lambda_solver={workloads.CRIT_TOL:g}")

    started = time.perf_counter()
    if args.trace:
        metrics, ph, extra = traced(wl, args, env)
        units = {k: v[0] for k, v in layers.SPECS.items()}
    else:
        metrics, ph, extra = end_to_end(wl, args, env)
        units = END_TO_END_UNITS
    spots, mismatched = spot_checks(ph.first_draws, args.seed)
    print(f"# reference spot checks vs mpmath (30 digits): {spots} done, {mismatched} mismatched")

    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        note = f"   <- moves {layers.SPECS[name][1]}" if args.trace else ""
        print(f"{name:45s} {shown:>14s} {units[name]}{note}")

    result = {
        "correct": mismatched == 0,
        "attempted": ph.audit_n or ph.attempted,
        "failed": ph.audit_failed if ph.audit_n else ph.failed,
        "metrics": {
            k: ({"value": v, "unit": units[k]} if v is not None
                else {"value": None, "unit": units[k], "missing": True})
            for k, v in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  machine=info, reasons=dict(ph.reasons), wall_s=time.perf_counter() - started,
                  **extra)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    np.savez_compressed(OUT / f"ops-{stem}.npz", latency_s=np.frombuffer(ph.lat),
                        passed=np.frombuffer(ph.passed, dtype=bool),
                        window=np.frombuffer(ph.window, dtype=np.int64),
                        probe_s=np.frombuffer(ph.probes.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
