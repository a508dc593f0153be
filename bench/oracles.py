"""Exact answers and brute-force references the benchmark checks against.

Nothing here imports eternal_kit: each function is computed apart from the
program, from a closed form, a published sequence or an exhaustive search.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

#: OEIS A002995, unlabeled plane trees with d nodes, for d = 2..12; the
#: portrait census counts rotation classes of (d - 1)-chord diagrams
A002995 = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 14, 8: 34, 9: 95, 10: 280, 11: 854, 12: 2694}


def rstar_constant(w0: float, lam: float) -> float:
    """Blow-up time of w' = 6 w^2 - lam from w(0) = w0 > sqrt(lam / 6).

    ln((w0 + a) / (w0 - a)) / (12 a) with a = sqrt(lam / 6), and its
    limit 1 / (6 w0) at lam = 0.
    """
    if lam == 0.0:
        return 1.0 / (6.0 * w0)
    a = math.sqrt(lam / 6.0)
    if not w0 > a:
        raise ValueError(f"w0 = {w0} does not blow up at lambda = {lam}")
    return math.log((w0 + a) / (w0 - a)) / (12.0 * a)


def pole_row_spacing(lam: float) -> float:
    """Imaginary spacing pi / (6 a) of the pole lattice of constant data.

    The solution is -a coth(6 a (t - r*)), periodic under t -> t + i pi / (6 a),
    so the horizontal ray at that height meets a pole at the same r* as the
    real axis.
    """
    return math.pi / (6.0 * math.sqrt(lam / 6.0))


def constant_solution(t: complex, w0: float, lam: float) -> complex:
    """Closed-form w(t) of w' = 6 w^2 - lam with w(0) = w0 > sqrt(lam / 6)."""
    if lam == 0.0:
        return w0 / (1.0 - 6.0 * w0 * t)
    a = math.sqrt(lam / 6.0)
    return -a / cmath.tanh(6.0 * a * (t - rstar_constant(w0, lam)))


def constant_w_spectrum(W: float, count: int) -> list[float]:
    """Eigenvalues 12 W - 4 pi^2 k^2 of d^2/dx^2 + 12 W with Neumann ends, descending."""
    return [12.0 * W - 4.0 * math.pi ** 2 * k * k for k in range(count)]


def mu2_exact(n: int, k: int) -> Fraction:
    """h^2 coefficient of mu_{n,k}(h) / (4 pi^2) near the onset of branch n.

    48 n^2 at the resonant mode k = n / 2, else
    24 n^2 (11 n^2 + 4 k^2) / (n^2 - 4 k^2).
    """
    if 2 * k == n:
        return Fraction(48 * n * n)
    return Fraction(24 * n * n * (11 * n * n + 4 * k * k), n * n - 4 * k * k)


def order0_resonances(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (j, m) with n^2 - j^2 = sum_k m_k (n^2 - k^2) and 2 <= |m| <= bound.

    Exhaustive over every multiset of modes k < n of size 2..bound, where
    bound = ceil(n^2 / (2 n - 1)) is forced by every unstable weight
    n^2 - k^2 being at least 2 n - 1.  Returned sorted.
    """
    weights = [n * n - k * k for k in range(n)]
    bound = math.ceil(n * n / (2 * n - 1))
    out = []
    for size in range(2, bound + 1):
        for modes in itertools.combinations_with_replacement(range(n), size):
            total = sum(weights[k] for k in modes)
            m = tuple(modes.count(k) for k in range(n))
            out.extend((j, m) for j in range(n) if n * n - j * j == total)
    return sorted(out)


def richardson_second_coefficient(f0: float, fp1: float, fm1: float, fp2: float, fm2: float, h: float) -> float:
    """h^2 coefficient of f from samples at 0, +-h and +-2h.

    The symmetric second difference (f(h) + f(-h) - 2 f(0)) / (2 h^2) equals
    the coefficient plus O(h^2); one Richardson step removes that term.
    """
    d1 = (fp1 + fm1 - 2.0 * f0) / (2.0 * h * h)
    d2 = (fp2 + fm2 - 2.0 * f0) / (8.0 * h * h)
    return (4.0 * d1 - d2) / 3.0

