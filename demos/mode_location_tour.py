#!/usr/bin/env python3
"""Tour of interior mode location: bounds, monotonicity, and the tail law.

Shows the bracketing inequalities in action, the rightward drift of the
interior mode as the noncentrality grows, the mode/antimode/inflection
ordering in the bimodal regime, and how fast the mode approaches
lambda + nu - 3 for large noncentrality.
"""

from ncx2shape import (
    Params,
    antimode,
    inflection_point,
    interior_mode,
    mode_report,
)


def main():
    print("location bounds around the interior mode:")
    print(f"{'nu':>5} {'lambda':>7} {'lower':>9} {'mode':>11} {'upper':>9} {'binding rule':>12}")
    for nu, lam in [(4.0, 5.0), (2.0, 3.0), (2.5, 10.0), (6.0, 1.0), (1.0, 5.0), (0.5, 6.0)]:
        rep = mode_report(Params(nu=nu, lam=lam))
        print(f"{nu:5.1f} {lam:7.1f} {rep.bounds_lower:9.4f} {rep.interior_mode:11.6f} "
              f"{rep.bounds_upper:9.4f} {rep.bound_source:>12}")

    print("\nthe mode moves right as the noncentrality grows (nu = 4):")
    ladder = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
    modes = [interior_mode(Params(nu=4.0, lam=lam)) for lam in ladder]
    for lam, m in zip(ladder, modes):
        print(f"  lambda={lam:5.1f}  mode={m:.6f}")

    print("\nbimodal anatomy at nu = 1, lambda = 5:")
    p = Params(nu=1.0, lam=5.0)
    m_low = antimode(p)
    x_tilde = inflection_point(p)
    m_high = interior_mode(p)
    print(f"  density falls from its spike at zero to a local minimum at {m_low:.6f},")
    print(f"  the log density switches from convex to concave at {x_tilde:.6f},")
    print(f"  and the second mode sits at {m_high:.6f}")

    print("\ntail law: the interior mode approaches lambda + nu - 3")
    for nu in (1.0, 4.0):
        for lam in (1e2, 1e3, 1e4):
            m = interior_mode(Params(nu=nu, lam=lam))
            print(f"  nu={nu:3.1f} lambda={lam:<8g} mode - (lambda+nu-3) = {m - (lam + nu - 3.0):+.3e}")


if __name__ == "__main__":
    main()
