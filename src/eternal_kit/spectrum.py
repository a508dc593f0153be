"""Linearized spectra at equilibria: Galerkin matrices and expansions.

The linearization of w_t = w_xx + 6 w^2 - lambda at an equilibrium W is
L = d^2/dx^2 + 12 W, acting on (0, 1/2) with Neumann ends.  We discretize in
the orthonormal cosine basis

    e_0 = sqrt(2),   e_k = 2 cos(2 pi k x)   (k >= 1),

where <e_j, e_j> = 1 for the L2 inner product on (0, 1/2).  Multiplication by
W = sum w_l cos(2 pi l x) has the exact matrix elements

    <e_0, W e_0> = w_0                 <e_0, W e_l> = w_l / sqrt(2)
    <e_k, W e_k> = w_0 + w_{2k} / 2    <e_k, W e_l> = (w_{k+l} + w_{|k-l|}) / 2

(k, l >= 1, k != l), which follow from the product-to-sum identity, so the
only discretization error is basis truncation.  For the analytic branch
profiles the coefficients decay geometrically and eigenvalues converge
superexponentially in N; `eigen` certifies this by refining N -> 2N.  The
2N solve computes eigenvalues only, since nothing but that comparison reads
it, and the reported eigenvectors are built from the coarse solve's matrix
one at a time, when read.

At the homogeneous equilibria +-sqrt(lam/6) the matrix is diagonal with
eigenvalues +-2 sqrt(6 lam) - (2 pi k)^2, reproduced exactly.

Near the bifurcation at lambda_n0 the eigenvalue over basis mode k expands as

    mu_{n,k}(h) = 4 pi^2 ( (n^2 - k^2) + mu1 h + mu2 h^2 + O(h^3) )

with mu1 = 12 n^2 and mu2 = 48 n^2 when k = n/2 (even n only), and mu1 = 0,
mu2 = 24 n^2 (11 n^2 + 4 k^2) / (n^2 - 4 k^2) otherwise.  `perturbation_mu`
evaluates this; the exact rational coefficients feed the resonance module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .elliptic import CosineSeries
from .errors import ConvergenceError, DomainError

_TWO_PI = 2.0 * math.pi

#: default refinement certificate: doubling N must move the top eigenvalues
#: by less than this
REFINEMENT_TOL = 1e-9
#: eigenvalue gaps below this are flagged as degenerate pairs, not resolved
DEGENERACY_TOL = 1e-8


def assemble_operator(profile: CosineSeries, N: int) -> np.ndarray:
    """Dense symmetric Galerkin matrix of d^2/dx^2 + 12 W on N cosine modes.

    Requires N >= 2 K so the multiplication matrix sees every coefficient of
    W (mode sums k + l reach beyond K otherwise silently).
    """
    K = profile.K
    if N < 2 * K:
        raise DomainError(f"need N >= 2K = {2 * K} basis modes, got N = {N}")
    if N < 1:
        raise DomainError("need at least one basis mode")
    w = np.zeros(2 * N, dtype=profile.coeffs.dtype)
    w[: K + 1] = profile.coeffs
    idx = np.arange(N)
    V = (w[idx[:, None] + idx[None, :]] + w[np.abs(idx[:, None] - idx[None, :])]) / 2.0
    V[0, 1:] = w[1:N] / math.sqrt(2.0)
    V[1:, 0] = V[0, 1:]
    V[0, 0] = w[0]
    d = idx[1:]
    V[d, d] = w[0] + w[2 * d] / 2.0
    M = 12.0 * V
    M[idx, idx] -= (_TWO_PI * idx) ** 2
    return M


class Eigenvectors(Sequence):
    """Read-only sequence of eigenvectors over an orthonormal-basis matrix.

    Item i is `_to_cosine` of column i, built each time it is read; a slice
    gives a list.
    """

    def __init__(self, columns: np.ndarray):
        columns.flags.writeable = False
        self._columns = columns

    def __len__(self) -> int:
        return self._columns.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return _to_cosine(self._columns[:, i])


@dataclass
class SpectrumReport:
    """Eigenvalues (descending), eigenvectors, and quality certificates."""

    eigenvalues: np.ndarray
    eigenvectors: Eigenvectors
    morse_index: int
    N: int
    refinement_defect: float
    degenerate_pairs: list[tuple[int, int, float]] = field(default_factory=list)


def _sorted_eigh(M: np.ndarray):
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def eigen(profile: CosineSeries, N: int | None = None) -> SpectrumReport:
    """Spectrum of the linearization at `profile`.

    N defaults to 4 K + 32.  The eigenvalues alone are recomputed at 2 N and
    the top eleven must agree to REFINEMENT_TOL plus the dense-solver
    roundoff floor (a few eps times the spectral radius, which grows like
    N^2), else ConvergenceError; the achieved defect is reported.
    Eigenvalue gaps below DEGENERACY_TOL are flagged, not resolved.
    Eigenvalues, Morse index and eigenvectors all come from the N-mode
    solve; each eigenvector is built when it is read.
    """
    if N is None:
        N = 4 * profile.K + 32
    vals, vecs = _sorted_eigh(assemble_operator(profile, N))

    fine_vals = np.linalg.eigvalsh(assemble_operator(profile, 2 * N))[::-1]
    top = min(11, N)
    defect = float(np.max(np.abs(vals[:top] - fine_vals[:top])))
    noise_floor = 16.0 * np.finfo(float).eps * float(np.abs(fine_vals).max())
    if defect >= REFINEMENT_TOL + noise_floor:
        raise ConvergenceError(
            f"top eigenvalues moved by {defect:.3e} when refining "
            f"N = {N} -> {2 * N}; increase N"
        )

    gaps = np.abs(np.diff(vals))
    degenerate = [
        (i, i + 1, float(gaps[i])) for i in np.nonzero(gaps < DEGENERACY_TOL)[0]
    ]

    return SpectrumReport(
        eigenvalues=vals,
        eigenvectors=Eigenvectors(vecs),
        morse_index=int(np.count_nonzero(vals > 0.0)),
        N=N,
        degenerate_pairs=degenerate,
        refinement_defect=defect,
    )


def _to_cosine(column: np.ndarray) -> CosineSeries:
    """Orthonormal-basis eigenvector -> cosine coefficients, sign-fixed.

    a_0 = sqrt(2) v_0 and a_k = 2 v_k keep the L2 normalization.  The sign is
    fixed by making the largest-magnitude coefficient positive, which keeps
    ground states pointwise positive.
    """
    a = 2.0 * column.copy()
    a[0] = math.sqrt(2.0) * column[0]
    lead = np.argmax(np.abs(a))
    if a[lead] < 0:
        a = -a
    return CosineSeries(a)


def homogeneous_spectrum(lam: float, count: int = 8, equilibrium: str = "upper") -> np.ndarray:
    """Exact eigenvalues at a homogeneous equilibrium, descending.

    upper (+sqrt(lam/6)): mu_k = +2 sqrt(6 lam) - (2 pi k)^2;
    lower (-sqrt(lam/6)): mu_k = -2 sqrt(6 lam) - (2 pi k)^2.
    """
    lam = float(lam)
    if lam < 0.0:
        raise DomainError(f"need lambda >= 0, got {lam}")
    k = np.arange(count)
    sign = {"upper": 1.0, "lower": -1.0}.get(equilibrium)
    if sign is None:
        raise DomainError(f"equilibrium must be 'upper' or 'lower', got {equilibrium!r}")
    return sign * 2.0 * math.sqrt(6.0 * lam) - (_TWO_PI * k) ** 2


def morse_index_homogeneous(lam: float) -> int:
    """Unstable dimension of +sqrt(lam/6): #{k >= 0 : (2 pi k)^2 < 2 sqrt(6 lam)}."""
    lam = float(lam)
    if lam <= 0.0:
        raise DomainError(f"need lambda > 0, got {lam}")
    bound = 2.0 * math.sqrt(6.0 * lam)
    count = 0
    while (_TWO_PI * count) ** 2 < bound:
        count += 1
    return count


def perturbation_mu_coefficients(n: int, k: int) -> tuple[int, int, Fraction]:
    """Exact (mu0, mu1, mu2) of mu / (4 pi^2) = mu0 + mu1 h + mu2 h^2 + O(h^3).

    The resonance arithmetic consumes these as integers / Fractions; the
    k = n/2 case (even n only) is the resonant denominator n^2 - 4k^2 = 0.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"branch index must be a positive integer, got {n!r}")
    if k != int(k) or k < 0:
        raise DomainError(f"mode index must be a nonnegative integer, got {k!r}")
    n, k = int(n), int(k)
    mu0 = n * n - k * k
    if 2 * k == n:
        return mu0, 12 * n * n, Fraction(48 * n * n)
    mu2 = Fraction(24 * n * n * (11 * n * n + 4 * k * k), n * n - 4 * k * k)
    return mu0, 0, mu2


def perturbation_mu(n: int, k: int, h: float) -> float:
    """Second-order expansion of the eigenvalue over mode k near onset of branch n."""
    mu0, mu1, mu2 = perturbation_mu_coefficients(n, k)
    h = float(h)
    return 4.0 * math.pi ** 2 * (mu0 + mu1 * h + float(mu2) * h * h)
