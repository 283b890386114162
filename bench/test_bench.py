"""Self-test of the benchmark: the checker must fail perturbed answers.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import procs  # noqa: E402
import refcheck  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ncx2shape import cli, density, modes, shape  # noqa: E402


class _Pkg:
    cli, density, modes, shape = cli, density, modes, shape


PKG = _Pkg()
BIMODAL = gen.Draw(nu=1.0, lam=5.0, integer_nu=True)
LOG_CONCAVE = gen.Draw(nu=4.0, lam=5.0, integer_nu=True)


@pytest.mark.parametrize("d", [BIMODAL, LOG_CONCAVE])
def test_modes_sweep_accepts_correct_answer(d):
    wl = workloads.ModesSweep(PKG)
    assert wl.check(d, wl.run(d)) == []


@pytest.mark.parametrize("field, factor, reason", [
    ("interior_mode", 1 + 1e-6, "mode_slope"),
    ("antimode", 1 - 1e-6, "antimode_slope"),
    ("bounds_upper", 0.5, "mode_outside_bounds"),
])
def test_modes_sweep_fails_perturbed_mode_report(field, factor, reason):
    wl = workloads.ModesSweep(PKG)
    shape_rep, mode_rep = wl.run(BIMODAL)
    bad = dataclasses.replace(mode_rep, **{field: getattr(mode_rep, field) * factor})
    assert reason in wl.check(BIMODAL, (shape_rep, bad))


def test_modes_sweep_fails_perturbed_shape():
    wl = workloads.ModesSweep(PKG)
    shape_rep, mode_rep = wl.run(BIMODAL)
    flipped = dataclasses.replace(shape_rep, bimodal=False, decreasing=True)
    assert "shape_flags" in wl.check(BIMODAL, (flipped, mode_rep))
    shifted = dataclasses.replace(shape_rep, critical_lambda=shape_rep.critical_lambda + 1e-5)
    assert "critical_lambda" in wl.check(BIMODAL, (shifted, mode_rep))


def test_density_grid_fails_perturbed_rows():
    wl = workloads.DensityGrid(PKG)
    g = workloads.GridInput(BIMODAL)
    ls, dens, d1s, d2s, errors = wl.run(g)
    assert wl.check(g, (ls, dens, d1s, d2s, errors)) == []
    ls_bad = list(ls)
    ls_bad[200] += 1e-8 * max(1.0, abs(ls_bad[200]))
    assert wl.check(g, (ls_bad, dens, d1s, d2s, errors)) == ["log_density"]
    d2_bad = list(d2s)
    d2_bad[10] = None
    assert wl.check(g, (ls, dens, d1s, d2_bad, ["InternalConsistencyError"])) == [
        "d2", "raised:InternalConsistencyError"]


def test_cli_check_fails_perturbed_output():
    wl = workloads.CliCold(PKG, env={})
    c = workloads.CliCold._make("modes", iter([BIMODAL]))
    code, text = wl.run_inproc(c)
    assert wl.check(c, (code, text)) == []
    env = json.loads(text)
    env["payload"]["interior_mode"] *= 1 + 1e-6
    assert "mode_slope" in wl.check(c, (0, json.dumps(env)))
    assert wl.check(c, (3, "")) == ["cli_exit_3"]


def test_reference_agrees_with_mpmath():
    for nu, lam, x in [(1.0, 5.0, 3.0), (0.3, 0.7, 1e-5), (49.0, 775.0, 8.4), (100.0, 1000.0, 1097.0)]:
        assert refcheck.spot_check_density(nu, lam, x)
    assert refcheck.spot_check_indicator(1.0, 4.2)


def test_inputs_repeat_for_a_seed_and_keep_their_quotas():
    first = list(itertools.islice(gen.draws(7, "measure"), 200))
    assert first == list(itertools.islice(gen.draws(7, "measure"), 200))
    assert first != list(itertools.islice(gen.draws(8, "measure"), 200))
    mix = gen.Mix()
    for d in first:
        mix.add(d)
    mix = mix.summary()
    assert mix["sub_two_share"] == pytest.approx(0.515)  # 10 a block, plus lam = 0 edges
    assert mix["lam_zero_count"] == 5 and mix["nu_two_count"] == 5
    warm = list(itertools.islice(gen.draws(7, "warmup", integer_nu=False), 200))
    assert not any(d.nu == 1.0 for d in warm)


def test_parse_importtime_nesting():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |        300 |       scipy",
        "import time:       400 |        700 |     scipy.special",
        "import time:        50 |        750 |   ncx2shape.density",
        "import time:        30 |         30 |     scipy.integrate",
        "import time:        20 |         50 |   ncx2shape.oracle",
        "import time:        10 |        810 | ncx2shape",
    ])
    got = procs.parse_importtime(stderr)
    assert got == {"scipy": 0.73, "ncx2shape.oracle": 0.05, "ncx2shape": 0.81}


def test_trace_reports_a_vanished_binding_as_missing(monkeypatch):
    kept = tuple(b for b in spans.BINDINGS if b[1] != "criticality_indicator")
    monkeypatch.setattr(spans, "BINDINGS", kept + (("ncx2shape.modes", "no_such_name", "modes.gone"),))
    original = modes.log_density_d1
    tracer = spans.Tracer()
    with spans.install(tracer):
        with tracer.op_span(0):
            workloads.ModesSweep(PKG).run_inproc(BIMODAL)
    assert modes.log_density_d1 is original
    assert "ncx2shape.modes.no_such_name" in tracer.missing
    got = layers.library_metrics(spans.SpanTable(tracer), bound_violations=0)
    assert got["shape.critical_lambda.iterations_per_solve"] is None
    assert got["modes.interior_mode.d1_evals_per_call"] > 0
    assert got["shape.inflection_point.calls_per_op"] == 2


def test_host_speed_scales_each_window_by_its_own_probes():
    probes = hostspeed.Probes()
    nominal = hostspeed.PROBE_NOMINAL_S
    probes.seconds.extend([nominal, nominal, 2 * nominal, 2 * nominal])
    assert probes.to_nominal() == pytest.approx([1.0, 2.0 / 3.0, 0.5])
