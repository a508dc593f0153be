"""Exclusion of identical resonances among unstable eigenvalues.

An identical resonance at branch n would be a relation

    mu_j(h) = sum_k m_k mu_k(h)   for all small h,

with a nonnegative integer multi-index m over the n unstable modes k < n
and |m| = sum m_k >= 2.  Because each mu_k(h) is analytic in h, the relation
splits into one exact condition per order of h.  Every certificate tests the
orders h^0, h^1 and h^2 (ORDERS), each on the survivors of the one before,
using the exact rational expansion coefficients from the spectrum module:

    order 0:  n^2 - j^2 = sum m_k (n^2 - k^2)      (integers)
    order 1:  m_{n/2} = [j = n/2]                  (even n; vacuous for odd n)
    order 2:  exact Fraction identity on the mu2 coefficients

A multi-index surviving all three orders is a *witness*; if none survives
the certificate verdict is NO_IDENTICAL_RESONANCE, which is what the
connecting-orbit constructions downstream require.

At order 0 every unstable weight satisfies n^2 - k^2 >= 2n - 1, so
|m| <= ceil(n^2 / (2n - 1)) bounds the search exhaustively; the certificate
records the bound used.

When d - 1 < n / sqrt(2) (exact integer form: 2 (d-1)^2 < n^2) even the
crudest gap argument rules out order-0 solutions without any search; the
worst cases of that bound come from near-isoceles Pythagorean triples
generated by the Pell recurrence, see `pythagorean_worst_cases`.

Scope.  The certificate passes at orders h^0..h^2, in exact integers and
Fractions, for every n <= 60, not only for n <= 22.  The paper's limit
i(W_n) <= 22 therefore comes from an argument this check does not
implement.  The `fast_d_max` column of `eternal-kit resonance` is the
paper's fast-manifold limit d < 1 + i(W_n) / sqrt(2), see `fast_d_max`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


from .elliptic import _check_branch_index
from .errors import DomainError
from .spectrum import perturbation_mu_coefficients

VERDICT_NO = "NO_IDENTICAL_RESONANCE"
VERDICT_WITNESS = "WITNESS_FOUND"
#: the orders of h every certificate tests, each filtering the last one's survivors
ORDERS = (0, 1, 2)


@dataclass
class ResonanceCertificate:
    """Outcome of the order-by-order resonance search at one branch.

    survivors maps each order in ORDERS to the multi-indices (j, m) still
    alive after that order's filter (cumulatively).  The verdict refers to
    order 2.
    """

    n: int
    search_bound: int
    survivors: dict[int, list[tuple[int, tuple[int, ...]]]]
    verdict: str
    order1_vacuous: bool

    @property
    def witnesses(self) -> list[tuple[int, tuple[int, ...]]]:
        return self.survivors[ORDERS[-1]]


def _order0_solutions(weights: list[int], target: int, bound: int):
    """All m with sum m_k weights[k] = target, 2 <= |m| <= bound.

    Depth-first with the weights in decreasing order; prunes on the largest
    remaining weight.  Weights are positive and strictly decreasing.
    """
    d = len(weights)
    out: list[tuple[int, ...]] = []
    m = [0] * d

    def descend(i: int, remaining: int, used: int):
        if remaining == 0:
            if used >= 2:
                out.append(tuple(m))
            return
        if i == d:
            return
        if remaining > (bound - used) * weights[i]:
            return  # even maxing out the largest remaining weight falls short
        top = min(remaining // weights[i], bound - used)
        for c in range(top, -1, -1):
            m[i] = c
            descend(i + 1, remaining - c * weights[i], used + c)
        m[i] = 0

    descend(0, target, 0)
    return out


def identical_resonance_check(n: int) -> ResonanceCertificate:
    """Search for identical resonances among the n unstable modes of branch n,
    at orders 0, 1 and 2.

    The whole block is searched: a resonance among modes k < d < n is one
    among all n, so a NO here is a NO for every smaller block.
    """
    n = _check_branch_index(n)
    bound = math.ceil(n * n / (2 * n - 1))
    weights = [n * n - k * k for k in range(n)]
    surv0 = [(j, m) for j in range(n) for m in _order0_solutions(weights, n * n - j * j, bound)]

    vacuous = n % 2 == 1
    half = n // 2
    surv1 = [
        (j, m)
        for (j, m) in surv0
        if vacuous or m[half] == (1 if j == half else 0)
    ]

    mu2 = [perturbation_mu_coefficients(n, k)[2] for k in range(n)]
    surv2 = [
        (j, m)
        for (j, m) in surv1
        if sum((Fraction(c) * mu2[k] for k, c in enumerate(m)), Fraction(0)) == mu2[j]
    ]

    return ResonanceCertificate(
        n=n,
        search_bound=bound,
        survivors={0: surv0, 1: surv1, 2: surv2},
        verdict=VERDICT_NO if not surv2 else VERDICT_WITNESS,
        order1_vacuous=vacuous,
    )


def fast_bound_check(n: int, d: int) -> bool:
    """True when the gap argument alone excludes order-0 resonances.

    Any sum of >= 2 unstable weights is at least 2 (n^2 - (d-1)^2), which
    exceeds the largest achievable target n^2 exactly when 2 (d-1)^2 < n^2.
    Pure integer arithmetic, no search.
    """
    if n < 1 or d < 1 or d > n:
        raise DomainError(f"need 1 <= d <= n, got n = {n}, d = {d}")
    return 2 * (d - 1) * (d - 1) < n * n


def fast_d_max(n: int) -> int:
    """Largest d with 2 (d-1)^2 < n^2, the last d that fast_bound_check passes."""
    return math.isqrt((n * n - 1) // 2) + 1


def pythagorean_worst_cases() -> list[tuple[int, int, int, int]]:
    """The first five extremal (a, b, n, d), where the fast bound fails most tightly.

    Consecutive Pell pairs (a, b) (5,2), (12,5), (29,12), ... give
    near-isoceles Pythagorean triples n^2 = (a^2-b^2)^2 + (2ab)^2 with legs
    differing by 1; taking d - 1 to be the larger leg lands just outside the
    gap bound: 2 (d-1)^2 = n^2 + (2t+1) for legs t, t+1.
    """
    out = []
    a, b = 5, 2
    for _ in range(5):
        legs = (a * a - b * b, 2 * a * b)
        n = a * a + b * b
        d = max(legs) + 1
        assert abs(legs[0] - legs[1]) == 1 and legs[0] ** 2 + legs[1] ** 2 == n * n
        assert not fast_bound_check(n, d)
        out.append((a, b, n, d))
        a, b = 2 * a + b, a
    return out


def homogeneous_resonant_lambdas(n: int, m_max: int) -> list[tuple[int, float]]:
    """Parameter values with an exact mu_0 = m mu_n resonance at +sqrt(lam/6).

    Solving 2 sqrt(6 lam) = m (2 sqrt(6 lam) - (2 pi n)^2) gives

        lambda'_m = (2/3) pi^4 n^4 m^2 / (m - 1)^2,   m = 2, 3, ...

    strictly decreasing to the bifurcation value (2/3) (n pi)^4 as m grows.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"need a positive integer n, got {n!r}")
    if m_max < 2:
        raise DomainError("m_max must be at least 2")
    n = int(n)
    return [
        (m, (2.0 / 3.0) * math.pi ** 4 * n ** 4 * m * m / (m - 1) ** 2)
        for m in range(2, m_max + 1)
    ]

