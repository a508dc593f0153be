"""Trace complex-time rays of the PDE and watch the dichotomy at work.

Three runs from simple initial data:

1. the real ray from zero relaxes to the negative constant state,
2. the vertical (Schrodinger) ray from zero hits a pole at s = pi/12,
3. the two unstable directions at W_1(0.1) split into a monotone
   heteroclinic and a finite-time blow-up.

The last scan estimates the analyticity boundary r*(s) of the solution
started from constant data 1/2 at lambda = 0, whose corner sits on the
real axis at r = 1/3.

The demo exits with status 1 when a printed r* with a closed form (pi/12
and 1/3) misses it by more than RSTAR_TOL, so running it checks the
blow-up endgame.
"""

import math
import sys

from eternal_kit import evolve

RSTAR_TOL = 1e-8


def main():
    misses = []

    def check(label, r_star, exact):
        if not abs(r_star - exact) <= RSTAR_TOL:
            misses.append(f"{label}: r* = {r_star!r} misses {exact!r} by more than {RSTAR_TOL:g}")

    rec = evolve.detect_blowup(evolve.constant_field(0.0, N=32), 6.0, 1.0)
    print(f"real ray from 0 at lambda=6: reason {rec.reason}, "
          f"w(0) -> {rec.final_state.at_zero().real:+.9f} "
          f"(-tanh(6) = {-math.tanh(6.0):+.9f})")

    zero = evolve.constant_field(0.0, N=32).coeffs
    vert = evolve.detect_blowup(evolve.ComplexField(zero, theta=-math.pi / 2), 6.0, 1.0)
    print(f"vertical ray from 0: diverged={vert.diverged}, "
          f"r* >= {vert.r_star_lower:.6f} (pole at pi/12 = {math.pi / 12:.6f})")
    check("vertical ray", vert.r_star_lower, math.pi / 12)

    down = evolve.heteroclinic_shoot(1, 0.1, "-", N=128)
    print(f"shoot W_1(0.1) minus: {down.outcome} to {down.target:+.4f} "
          f"at r = {down.captured_r:.3f}, monotone={down.monotone}")
    up = evolve.heteroclinic_shoot(1, 0.1, "+", N=128, r_max=6.0)
    print(f"shoot W_1(0.1) plus:  {up.outcome} with "
          f"r* >= {up.record.r_star_lower:.3f}")

    scan = evolve.analyticity_boundary(
        evolve.constant_field(0.5, N=32), [-0.1, -0.05, 0.0, 0.05, 0.1], 0.0)
    print("\nanalyticity boundary of the w0 = 1/2, lambda = 0 solution:")
    for b in scan.samples:
        r = "undefined" if b.r_star is None else f"{b.r_star:.6f}"
        tag = " (censored at r_cap)" if b.censored else ""
        print(f"  s={b.s:+.2f}: r* = {r}{tag}")
    print(f"corner: r = {scan.corner[0]:.6f} at s = {scan.corner[1]:+.2f} "
          f"(exact pole of the real ray: 1/3)")
    check("corner", scan.corner[0], 1.0 / 3.0)
    for miss in misses:
        print(miss, file=sys.stderr)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
