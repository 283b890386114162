#!/usr/bin/env python3
"""Scan of the critical noncentrality across the sub-two-dof range.

For each nu in (0, 2) there is a threshold noncentrality: below it the
density decreases on (0, inf), above it a second (interior) mode appears.
This script sweeps nu, prints the threshold with solver metadata, and
illustrates the two endpoint limits (4 as nu drops to 0, 2 as nu rises
to 2) together with the 1/(2 lambda) tail decay of the indicator.
"""

import numpy as np

from ncx2shape import critical_lambda, criticality_indicator

PUBLISHED = {0.25: 4.769, 0.5: 4.661, 0.75: 4.467, 1.0: 4.217,
             1.25: 3.914, 1.5: 3.548, 1.75: 3.073}


def main():
    print("threshold scan (tau solved to 1e-10 relative):")
    print(f"{'nu':>6} {'threshold':>12} {'iterations':>11} {'published':>10}")
    for nu in np.arange(0.1, 2.0, 0.1):
        res = critical_lambda(round(float(nu), 10), tol=1e-10)
        published = PUBLISHED.get(round(float(nu), 2), None)
        tail = f"{published:>10.3f}" if published is not None else f"{'':>10}"
        print(f"{nu:6.2f} {res.lambda_nu:12.8f} {res.iterations:>11d}{tail}")

    print("\nendpoint behaviour:")
    for nu in (1e-2, 1e-4, 1e-6, 1e-8):
        res = critical_lambda(nu)
        print(f"  nu={nu:<8.0e} threshold={res.lambda_nu:.8f}   gap to 4: {res.lambda_nu - 4.0:+.2e}")
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        res = critical_lambda(2.0 - eps)
        print(f"  nu=2-{eps:<6.0e} threshold={res.lambda_nu:.8f}   gap to 2: {res.lambda_nu - 2.0:+.2e}")
    print("  (the left endpoint converges like ~2.28 nu^(1/3), the right like ~2 sqrt(2-nu))")

    print("\ntail decay: lambda * indicator(nu=1, lambda) as lambda grows")
    for lam in (10.0, 100.0, 1000.0, 10000.0):
        print(f"  lambda={lam:<8g} -> {lam * criticality_indicator(1.0, lam):.6f}   (limit 1/2)")


if __name__ == "__main__":
    main()
