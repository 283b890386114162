"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Tolerances follow the package-wide convention: absolute-relative
hybrids |a - b| <= tol * max(1, |a|, |b|) unless a check is explicitly
absolute (the three-decimal table reproduction, the sign assertions).
"""

import math
import time

import numpy as np

from ncx2shape import (
    Params,
    bessel_ratio,
    classify,
    critical_lambda,
    criticality_indicator,
    density_bessel,
    interior_mode,
    log_density,
    log_density_d1,
    log_density_d2,
    log_density_d3,
    mode_report,
)
from ncx2shape.oracle import (
    GridSpec,
    adaptive_quadrature,
    density_series,
    finite_difference,
    grid_local_maxima,
)
from ncx2shape.shape import _critical_lambda_cached

TABLE = {0.25: 4.769, 0.5: 4.661, 0.75: 4.467, 1.0: 4.217,
         1.25: 3.914, 1.5: 3.548, 1.75: 3.073}

NU_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 8.0)
LAM_GRID = (0.1, 1.0, 5.0, 20.0)
X_GRID = np.geomspace(1e-3, 200.0, 9)


def report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def hybrid_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_01_critical_table_reproduction():
    _critical_lambda_cached.cache_clear()
    start = time.perf_counter()
    results = {nu: critical_lambda(nu, tol=1e-8).lambda_nu for nu in TABLE}
    elapsed = time.perf_counter() - start
    worst = max(abs(results[nu] - TABLE[nu]) for nu in TABLE)
    ok = worst < 5e-4 and elapsed < 1.0
    assert report(1, "critical noncentrality table to three decimals",
                  ok, f"worst |err| {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_endpoint_limits():
    checks = []
    for nu, target in ((1e-6, 4.0), (2.0 - 1e-6, 2.0)):
        root = critical_lambda(nu).lambda_nu
        tol = 1e-2 * max(1.0, abs(root), target)
        within = abs(root - target) <= tol
        # sign straddle at the tolerance edges, lower edge clamped into the
        # indicator's domain lam > 4 - nu (the root always sits above it)
        lower_probe = max(target - tol, (4.0 - nu) + 1e-9)
        straddle = (criticality_indicator(nu, lower_probe) < 0.0
                    and criticality_indicator(nu, target + tol) > 0.0)
        checks.append((nu, root, within, straddle))
    ok = all(w and s for _, _, w, s in checks)
    detail = ", ".join(f"nu={nu:g}: root {root:.6f}" for nu, root, _, _ in checks)
    assert report(2, "endpoint limits 4 and 2 with sign straddle", ok, detail)


def test_criterion_03_indicator_sign_pattern():
    ok = True
    details = []
    for nu in (0.1, 0.5, 1.0, 1.5, 1.9):
        lams = (4.0 - nu) + np.linspace(0.01, 100.0, 10_000)
        signs = [criticality_indicator(nu, float(lam)) > 0.0 for lam in lams]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        one_change = changes == 1 and signs[0] is False and signs[-1] is True
        scaled = 1e4 * criticality_indicator(nu, 1e4)
        in_band = 0.45 <= scaled <= 0.55
        ok = ok and one_change and in_band
        details.append(f"nu={nu:g}: changes={changes}, 1e4*g={scaled:.4f}")
    assert report(3, "single sign change and tail scaling of the indicator",
                  ok, "; ".join(details[:2]) + ", ...")


def test_criterion_04_form_equivalence():
    worst = 0.0
    for nu in NU_GRID:
        for lam in LAM_GRID:
            p = Params(nu=nu, lam=lam)
            for x in X_GRID:
                worst = max(worst, hybrid_gap(density_series(p, float(x), tol=1e-13),
                                              density_bessel(p, float(x))))
    ok = worst <= 1e-10
    assert report(4, "series and Bessel density routes agree", ok, f"worst gap {worst:.2e}")


def test_criterion_05_derivative_identities():
    worst = [0.0, 0.0, 0.0]
    for nu in NU_GRID:
        for lam in LAM_GRID:
            p = Params(nu=nu, lam=lam)
            for x in X_GRID:
                x = float(x)
                h = 1e-6 * max(1.0, x)
                fd = finite_difference(lambda y: log_density(p, y), x, 1, h)
                worst[0] = max(worst[0], hybrid_gap(log_density_d1(p, x), fd))
                fd = finite_difference(lambda y: log_density_d1(p, y), x, 1, h)
                worst[1] = max(worst[1], hybrid_gap(log_density_d2(p, x), fd))
                fd = finite_difference(lambda y: log_density_d2(p, y), x, 1, h)
                worst[2] = max(worst[2], hybrid_gap(log_density_d3(p, x), fd))
    # the dual closed forms of the second derivative are asserted to 1e-9
    # inside every log_density_d2 call above; reaching here means they agreed
    ok = worst[0] <= 1e-6 and worst[1] <= 1e-5 and worst[2] <= 1e-4
    assert report(5, "derivative identities vs finite differences", ok,
                  f"worst gaps {worst[0]:.1e}/{worst[1]:.1e}/{worst[2]:.1e}")


def test_criterion_06_classification_vs_oracle():
    grid = GridSpec(1e-4, 30.0, 20_000)
    mismatches = []
    for nu in (0.5, 1.0, 1.5, 2.0, 3.0, 6.0):
        for lam in (0.0, 0.5, 2.0, 4.5, 8.0):
            p = Params(nu=nu, lam=lam)
            found = grid_local_maxima(p, grid)
            rep = mode_report(p)
            expect_boundary = rep.zero_is_mode
            expect_interior = 0 if rep.interior_mode is None else 1
            if found.boundary_maximum != expect_boundary or len(found.maxima) != expect_interior:
                mismatches.append((nu, lam, found.boundary_maximum, len(found.maxima)))
    ok = not mismatches
    assert report(6, "shape classification matches the grid oracle in every cell",
                  ok, f"{30 - len(mismatches)}/30 cells agree")


def test_criterion_07_mode_bounds_and_edge_negativity():
    rng = np.random.default_rng(20260810)
    checked = 0
    violations = []
    while checked < 200:
        nu = float(rng.uniform(0.25, 8.0))
        lam = float(rng.uniform(0.0, 20.0))
        p = Params(nu=nu, lam=lam)
        rep = mode_report(p)
        if rep.interior_mode is None:
            continue
        m, lower, upper = rep.interior_mode, rep.bounds_lower, rep.bounds_upper
        good = lam + nu - 4.0 < m
        if nu >= 2.0:
            good = good and (nu - 2.0) * (1.0 + lam / nu) <= m + 1e-9 and m <= lam + nu - 2.0 + 1e-9
        if nu > 3.0:
            good = good and lam + nu - 3.0 < m
        if nu < 2.0:
            good = good and m < lam + nu - 3.0
        good = good and lower <= m + 1e-9 and m <= upper + 1e-9
        if not good:
            violations.append((nu, lam, m))
        checked += 1
    # The paper's edge limit r_{nu/2}(t) - (lam - 1)/t at lam = 4 - nu, with
    # t = sqrt(lam x), is (2x/t) l'(x) at x = lam + nu - 3 = 1.
    edge = [2.0 * log_density_d1(Params(nu=nu, lam=4.0 - nu), 1.0) / math.sqrt(4.0 - nu)
            for nu in np.linspace(5e-4, 2.0 - 5e-4, 2000)]
    ok = not violations and max(edge) < 0.0
    assert report(7, "mode location bounds on 200 random draws; edge limits negative",
                  ok, f"{200 - len(violations)}/200 in bounds, max edge value {max(edge):.4f}")


def test_criterion_08_mode_monotonicity_and_asymptote():
    ok = True
    for nu in (0.8, 1.0, 1.5, 3.0, 6.0):
        if nu < 2.0:
            base = critical_lambda(nu).lambda_nu
            ladder = [base + d for d in (0.1, 0.5, 1.0, 3.0, 10.0)]
        else:
            ladder = [0.0, 0.5, 2.0, 4.5, 10.0]
        modes = [interior_mode(Params(nu=nu, lam=lam)) for lam in ladder]
        ok = ok and all(a < b for a, b in zip(modes, modes[1:]))
    gap_above = (1e4 + 1.0 - 3.0) - interior_mode(Params(nu=1, lam=1e4))
    gap_below = interior_mode(Params(nu=4, lam=1e4)) - (1e4 + 4.0 - 3.0)
    asym = 0.0 < gap_above < 0.01 and 0.0 < gap_below < 0.01
    ok = ok and asym
    assert report(8, "interior mode increases with noncentrality; tail asymptote",
                  ok, f"gaps at 1e4: {gap_above:.2e} (nu=1), {gap_below:.2e} (nu=4)")


def test_criterion_09_bessel_ratio_properties():
    worst_tanh = max(abs(bessel_ratio(0.5, float(x)) - math.tanh(float(x)))
                     for x in np.geomspace(1e-4, 50.0, 400))
    monotone = True
    for mu in (0.25, 0.5, 1.0, 2.0, 5.0):
        xs = np.geomspace(1e-3, 60.0, 300)
        vals = np.array([bessel_ratio(mu, float(x)) for x in xs])
        monotone = monotone and np.all(np.diff(xs * vals) > 0.0) and np.all(np.diff(vals / xs) < 0.0)
    ok = worst_tanh <= 1e-12 and monotone
    assert report(9, "half-order ratio equals tanh; ratio monotonicity", ok,
                  f"worst |r - tanh| {worst_tanh:.2e}")


def test_criterion_10_normalization_and_mean():
    worst_mass = 0.0
    worst_mean = 0.0
    for nu in NU_GRID:
        for lam in LAM_GRID:
            p = Params(nu=nu, lam=lam)
            worst_mass = max(worst_mass, abs(adaptive_quadrature(p, 0) - 1.0))
            worst_mean = max(worst_mean, abs(adaptive_quadrature(p, 1) - (nu + lam)))
    ok = worst_mass <= 1e-8 and worst_mean <= 1e-6
    assert report(10, "unit mass and mean nu + lambda by quadrature", ok,
                  f"worst mass err {worst_mass:.2e}, worst mean err {worst_mean:.2e}")


# 40-digit mpmath roots of l' at large orders.  (50, 100) and (100, 1000)
# put t = sqrt(lam x) between 32 + nu and nu^2 / 8, where the Bessel ratio
# used to come from the large-argument expansion and was wrong.
LARGE_ORDER_MODES = {(20.0, 50.0): 67.147630277633130129,
                     (50.0, 100.0): 147.19166402046854865,
                     (100.0, 1000.0): 1097.0462996664161476}


def test_criterion_11_large_order_modes():
    tol = 1e-10
    gaps = {key: abs(mode_report(Params(*key), tol).interior_mode - ref) / ref
            for key, ref in LARGE_ORDER_MODES.items()}
    ok = max(gaps.values()) <= 0.5 * tol
    assert report(11, "interior modes at nu = 20, 50, 100 against mpmath", ok,
                  f"worst relative gap {max(gaps.values()):.2e}")


# (nu, lam, x, l, l', l'') with t = sqrt(lam x) in 30 + nu <= t < nu^2 / 8,
# where log I_{nu/2} comes from the uniform (Debye) expansion (and, at
# nu = 50 and 100, log I_{nu/2-1} too; at nu = 22 the order 10 has no such
# band).  l from mpmath.besseli at 60 digits, l' and l'' by mpmath.diff.
LARGE_ORDER_BAND = (
    (22.0, 40.0, 80.0, -4.482747853747924, -0.08150647904221342, -0.0030563059758943667),
    (22.0, 10.0, 330.0, -99.58296008189491, -0.3972387482347001, -0.00018153769501468568),
    (50.0, 100.0, 150.0, -4.0285164547530234, -0.005594848661377718, -0.0019609971315772525),
    (50.0, 30.0, 400.0, -80.96192163991691, -0.3304189471264945, -0.00025682295346010815),
    (100.0, 1000.0, 600.0, -44.4069764513231, 0.18720566344561876, -0.0006085041294168862),
    (100.0, 200.0, 150.0, -19.9370274311861, 0.2617980788541806, -0.0032275943792492642),
)


def test_criterion_12_large_order_density_band():
    worst = 0.0
    for nu, lam, x, l, d1, d2 in LARGE_ORDER_BAND:
        p = Params(nu, lam)
        got = (log_density(p, x), log_density_d1(p, x), log_density_d2(p, x))
        worst = max(worst, *(hybrid_gap(a, b) for a, b in zip(got, (l, d1, d2))))
    ok = worst <= 1e-12
    assert report(12, "l, l', l'' at nu = 22, 50, 100 in the Debye band against mpmath", ok,
                  f"worst hybrid gap {worst:.2e}")
