"""Exact certificates that no identical resonance occurs on any branch.

For each branch index n the checker enumerates in integer arithmetic all
candidate mode multisets, filters them order by order in h, and reports a
verdict.  An empty survivor set at order h^2 rules the resonance out.
The companion worst-case analysis shows how the Pythagorean structure of
the candidate weights keeps the search bounded.
"""

import math

from eternal_kit import resonance


def main():
    print("per-branch certificates (orders h^0, h^1, h^2):")
    for n in range(1, 13):
        cert = resonance.identical_resonance_check(n)
        sizes = ", ".join(f"h^{o}: {len(cert.survivors[o])}" for o in resonance.ORDERS)
        vac = " (order-1 filter vacuous)" if cert.order1_vacuous else ""
        print(f"  n={n:2d}: {cert.verdict}  survivors {sizes}{vac}")

    print("\nPell-generated worst cases (a, b, n, d) with a^2 + b^2 = n:")
    for a, b, n, d in resonance.pythagorean_worst_cases():
        print(f"  a={a:5d} b={b:5d} n={n:8d} d={d:8d}   "
              f"check: {(d - 2) ** 2} + {(d - 1) ** 2} = {n * n}")

    print("\nresonant lambda values above branch n = 1:")
    for m, lam in resonance.homogeneous_resonant_lambdas(1, 6):
        print(f"  m={m}: lambda'_{m} = {lam:.6f}")

    lam2 = resonance.homogeneous_resonant_lambdas(1, 2)[0][1]
    root = 2.0 * math.sqrt(6.0 * lam2)
    mu = [v for v in (root - (2.0 * math.pi * k) ** 2 for k in range(3))
          if v > 0]
    print("\nthe same structure in the spectrum of the upper state:")
    print(f"  at lambda'_2 = {lam2:.6f} the unstable block {mu}")
    print(f"  has mu_0 - 2 mu_1 = {mu[0] - 2.0 * mu[1]:.1e} (an exact 2:1 ladder)")


if __name__ == "__main__":
    main()
