"""Equilibrium branches of w_xx + 6 w^2 - lambda = 0 with Neumann ends.

The stationary problem on the half-interval (0, 1/2) with w'(0) = w'(1/2) = 0
has, besides the two homogeneous states -sqrt(lambda/6) and +sqrt(lambda/6),
countably many nonconstant branches.  Branch n bifurcates at
lambda_n0 = (2/3) (n pi)^4 and is parametrized by a modulus h in (-1, 1):

    lambda_n(h) = (2/3) (n pi)^4 (1 + 240 sum_{k>=1} sigma3(k) h^{2k})
    W_n(h)(x)   = (n pi)^2 ( eta(h)
                  + 8 sum_{k>=1} k h^k / (1 - h^{2k}) cos(2 pi n k x) )
    eta(h)      = 1/3 - 8 sum_{k>=1} k h^{2k} / (1 - h^{2k})

sigma3(k) is the sum of cubed divisors of k; the lambda series is the
classical weight-4 Eisenstein q-expansion evaluated at q = h^2.  Both series
converge geometrically for |h| < 1, with certified tail bounds below, so the
truncation order can be chosen from a requested tolerance instead of being
guessed.  The sign of h selects one of the two half-period translates of the
same profile; theta with |h| = exp(-pi * theta) is the classical modulus of
the underlying period lattice.

The scaling w -> m^2 w(m x), lambda -> m^4 lambda maps branch 1 onto branch m
exactly, which `rescale` implements on coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError

# Upper bound on Apery's constant zeta(3), used by the certified lambda tail.
_ZETA3_UPPER = 1.2020569031595943

_TWO_PI = 2.0 * math.pi


@dataclass
class CosineSeries:
    """Finite cosine series sum_{k=0}^{K} a_k cos(2 pi k x).

    Members automatically satisfy the Neumann conditions on (0, 1/2) since
    d/dx cos(2 pi k x) vanishes at x = 0 and x = 1/2.  Coefficients may be
    real or complex; the dtype is preserved.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coeffs))
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d array")
        self.coeffs = arr

    @property
    def K(self) -> int:
        """Highest retained mode number."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        k = np.arange(len(self.coeffs))
        vals = np.cos(_TWO_PI * xv[..., None] * k) @ self.coeffs
        return vals[0] if scalar else vals

    def pad(self, K: int) -> "CosineSeries":
        """Copy with zero coefficients appended up to mode K."""
        if K < self.K:
            raise DomainError(f"cannot pad down from K={self.K} to {K}")
        out = np.zeros(K + 1, dtype=self.coeffs.dtype)
        out[: len(self.coeffs)] = self.coeffs
        return CosineSeries(out)

    def l2_norm(self) -> float:
        """L2 norm on (0, 1/2): ||w||^2 = a0^2/2 + sum_{k>=1} a_k^2/4."""
        a = self.coeffs
        return math.sqrt(abs(a[0]) ** 2 / 2.0 + np.sum(np.abs(a[1:]) ** 2) / 4.0)

    def copy(self) -> "CosineSeries":
        return CosineSeries(self.coeffs.copy())


def cosine_product(a: CosineSeries, b: CosineSeries) -> CosineSeries:
    """Exact coefficient-space product of two cosine series.

    Uses 2 cos A cos B = cos(A+B) + cos(A-B): symmetrize each factor into a
    two-sided exponential spectrum (a~_0 = a_0, a~_{+-k} = a_k / 2), convolve,
    and fold back (p_0 = p~_0, p_m = 2 p~_m).  The result has K_a + K_b modes.
    """
    fa = _symmetrize(a.coeffs)
    fb = _symmetrize(b.coeffs)
    full = np.convolve(fa, fb)
    center = (len(fa) - 1) // 2 + (len(fb) - 1) // 2
    pos = full[center:]
    out = pos.copy()
    out[1:] *= 2.0
    return CosineSeries(out)


def _symmetrize(coeffs: np.ndarray) -> np.ndarray:
    half = coeffs / 2.0
    return np.concatenate([half[:0:-1], coeffs[:1], half[1:]])


def second_derivative(a: CosineSeries) -> CosineSeries:
    """d^2/dx^2 in coefficient space: a_k -> -(2 pi k)^2 a_k."""
    k = np.arange(len(a.coeffs))
    return CosineSeries(-((_TWO_PI * k) ** 2) * a.coeffs)


def sigma3(k: int) -> int:
    """Sum of the cubes of the divisors of k."""
    if k < 1 or k != int(k):
        raise DomainError(f"sigma3 needs a positive integer, got {k!r}")
    k = int(k)
    total = 0
    for d in range(1, math.isqrt(k) + 1):
        if k % d == 0:
            total += d ** 3
            q = k // d
            if q != d:
                total += q ** 3
    return total


def _check_modulus(h: float) -> float:
    h = float(h)
    if not abs(h) < 1.0:
        raise DomainError(f"modulus must satisfy |h| < 1, got {h}")
    return h


def _geometric_tail(prefactor: float, power: int, q: float, K: int) -> float:
    """Certified bound on prefactor * sum_{k > K} k^power q^k for 0 <= q < 1.

    Term ratios are ((k+1)/k)^power * q <= ((K+2)/(K+1))^power * q =: rho, so
    once rho < 1 the tail is dominated by the geometric series starting at the
    first omitted term.  Returns inf when rho >= 1 (truncation not certified).
    """
    if q == 0.0:
        return 0.0
    rho = ((K + 2) / (K + 1)) ** power * q
    if rho >= 1.0:
        return math.inf
    first = prefactor * (K + 1) ** power * q ** (K + 1)
    return first / (1.0 - rho)


def lambda_tail_bound(h: float, K: int) -> float:
    """Bound on the omitted part of the lambda bracket beyond order K.

    The bracket is 1 + 240 sum sigma3(k) h^{2k} and sigma3(k) <= zeta(3) k^3,
    so the tail is at most 240 zeta(3) sum_{k>K} k^3 (h^2)^k.  The bound is
    relative to the bifurcation value (2/3)(n pi)^4, i.e. it bounds the
    bracket itself.
    """
    h = _check_modulus(h)
    return _geometric_tail(240.0 * _ZETA3_UPPER, 3, h * h, K)


def profile_tail_bound(h: float, K: int) -> float:
    """Bound on the first omitted cosine amplitude of W_n / (n pi)^2.

    Coefficients are 8 k h^k / (1 - h^{2k}) with |.| <= 8 k |h|^k / (1 - h^2).
    """
    h = _check_modulus(h)
    if h == 0.0:
        return 0.0
    return _geometric_tail(8.0 / (1.0 - h * h), 1, abs(h), K)


def default_truncation(h: float, tail_tol: float = 1e-13, K_max: int = 4000) -> int:
    """Smallest K certifying both series tails below tail_tol."""
    h = _check_modulus(h)
    if h == 0.0:
        return 1
    for K in range(1, K_max + 1):
        if lambda_tail_bound(h, K) <= tail_tol and profile_tail_bound(h, K) <= tail_tol:
            return K
    raise TruncationError(
        f"cannot certify tail {tail_tol:g} at |h| = {abs(h):g} within K <= {K_max}"
    )


def _check_branch_index(n: int) -> int:
    if n != int(n) or n < 1:
        raise DomainError(f"branch index must be a positive integer, got {n!r}")
    return int(n)


def lambda_of_h(n: int, h: float, tail_tol: float = 1e-13) -> float:
    """Parameter value lambda_n(h) on branch n at modulus h.

    The series is cut at the smallest truncation K whose certified tail is
    below tail_tol.
    """
    n = _check_branch_index(n)
    h = _check_modulus(h)
    scale = (2.0 / 3.0) * (n * math.pi) ** 4
    if h == 0.0:
        return scale
    K = default_truncation(h, tail_tol)
    q = h * h
    bracket = 1.0 + 240.0 * math.fsum(sigma3(k) * q ** k for k in range(1, K + 1))
    return scale * bracket


def equilibrium_profile(n: int, h: float, tail_tol: float = 1e-13) -> CosineSeries:
    """Profile W_n(h) as a cosine series supported on multiples of n.

    The first omitted coefficient is below tail_tol relative to (n pi)^2.
    """
    n = _check_branch_index(n)
    h = _check_modulus(h)
    npi2 = (n * math.pi) ** 2
    if h == 0.0:
        return CosineSeries(np.array([npi2 / 3.0]))
    K = default_truncation(h, tail_tol)
    eta = 1.0 / 3.0 - 8.0 * math.fsum(
        k * h ** (2 * k) / (1.0 - h ** (2 * k)) for k in range(1, K + 1)
    )
    coeffs = np.zeros(n * K + 1)
    coeffs[0] = npi2 * eta
    for k in range(1, K + 1):
        coeffs[n * k] = npi2 * 8.0 * k * h ** k / (1.0 - h ** (2 * k))
    return CosineSeries(coeffs)


def homogeneous_equilibria(lam: float) -> tuple[float, float]:
    """The spatially constant equilibria (-sqrt(lam/6), +sqrt(lam/6))."""
    lam = float(lam)
    if lam < 0.0:
        raise DomainError(f"homogeneous equilibria need lambda >= 0, got {lam}")
    root = math.sqrt(lam / 6.0)
    return (-root, root)


def rescale(profile: CosineSeries, m: int, lam: float) -> tuple[CosineSeries, float]:
    """Apply the exact symmetry w -> m^2 w(m x), lambda -> m^4 lambda.

    Maps a branch-1 pair (profile, lambda) onto branch m: coefficients move
    from mode k to mode m k and gain a factor m^2.
    """
    if m != int(m) or m < 1:
        raise DomainError(f"rescaling factor must be a positive integer, got {m!r}")
    m = int(m)
    src = profile.coeffs
    out = np.zeros(m * (len(src) - 1) + 1, dtype=src.dtype)
    out[::m] = m * m * src
    return CosineSeries(out), float(lam) * m ** 4


def residual(profile: CosineSeries, lam: float) -> float:
    """L2 norm of W'' + 6 W^2 - lambda on (0, 1/2), exactly in coefficients.

    The square is an exact cosine convolution, so the only error sources are
    the truncation of the input series and float roundoff; for a branch
    profile the residual therefore plateaus at the tail level.
    """
    res = cosine_product(profile, profile).coeffs * 6.0
    d2 = second_derivative(profile).coeffs
    res[: len(d2)] += d2
    res[0] -= lam
    return CosineSeries(res).l2_norm()


def h_of_lambda(n: int, lam: float) -> float:
    """Inverse of lambda_of_h on h >= 0 by bracketed root finding.

    lambda_n is even in h and strictly increasing in |h|, so the nonnegative
    solution is unique.  Values of lambda requiring |h| > 0.95 (where the
    series truncation becomes impractical) raise DomainError.
    """
    h_max = 0.95
    from scipy.optimize import brentq

    n = _check_branch_index(n)
    lam = float(lam)
    lam0 = lambda_of_h(n, 0.0)
    if lam < lam0:
        raise DomainError(f"branch {n} only exists for lambda >= {lam0:.6g}")
    if lam == lam0:
        return 0.0
    if lambda_of_h(n, h_max) < lam:
        raise DomainError(f"lambda = {lam:g} needs a modulus beyond h_max = {h_max}")
    return brentq(
        lambda hh: lambda_of_h(n, hh) - lam,
        0.0,
        h_max,
        xtol=1e-15,
        rtol=8.9e-16,
    )


def theta_of_h(h: float) -> float:
    """Lattice parameter theta with |h| = exp(-pi theta); inf at h = 0."""
    h = _check_modulus(h)
    if h == 0.0:
        return math.inf
    return -math.log(abs(h)) / math.pi


@dataclass
class BranchPoint:
    """One point on a nonconstant equilibrium branch."""

    n: int
    h: float
    lam: float
    theta: float
    profile: CosineSeries

    @property
    def W_at_0(self) -> float:
        return float(np.real(self.profile(0.0)))


def branch_point(n: int, h: float, tail_tol: float = 1e-13) -> BranchPoint:
    """Assemble (lambda, profile, theta) for branch n at modulus h."""
    return BranchPoint(
        n=int(n),
        h=float(h),
        lam=lambda_of_h(n, h, tail_tol=tail_tol),
        theta=theta_of_h(h),
        profile=equilibrium_profile(n, h, tail_tol=tail_tol),
    )
