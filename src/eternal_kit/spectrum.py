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
superexponentially in N; `eigen` certifies the top eleven, and a cluster
across the eleventh, by their Ritz residuals.  Since w_l = 0 for l > K
and N >= 2K, the N kept modes couple only to the K modes N .. N + K - 1
past them.  The leading N x N block of those N + K rows and N columns is
the N-mode matrix, and their last K rows give every residual in every
larger truncation.

If the nonzero w_l (l >= 1) all sit on multiples of g, as they do for the
branch profiles W_n = n^2 W_1(n x) with g = n, then w_{k+l} and w_{|k-l|}
vanish unless l = +-k (mod g), and the matrix splits into floor(g/2) + 1
blocks, one per class {k : k = +-r (mod g)}.  `eigen` builds each class's
n_c x n_c block, and then its K rows past N, straight from Hankel and
Toeplitz views of the coefficients, entry for entry the bytes of
`assemble_operator`, and never forms the (N + K) x N matrix: it holds
O(sum n_c^2 + K max n_c) floats, about 2 N^2 / g for W_n.  Blocks of one
size share one stacked eigh: about g/2 blocks of 2N/g modes, or 4/g^2 of
the flops of one N x N solve.  For g <= 1 the one block is the whole
N x N matrix.  The reported eigenvectors, zero off their class, are built
from their class's block one at a time, when read.

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
from numpy.lib.stride_tricks import sliding_window_view

from .elliptic import CosineSeries, _check_branch_index
from .errors import ConvergenceError, DomainError

_TWO_PI = 2.0 * math.pi

#: truncation certificate: the top eigenvalues of every larger truncation lie
#: within this of the N-mode ones
REFINEMENT_TOL = 1e-9
#: eigenvalue gaps below this are flagged as degenerate pairs, not resolved
DEGENERACY_TOL = 1e-8


def _require_modes(K: int, N: int) -> None:
    if N < 2 * K:
        raise DomainError(f"need N >= 2K = {2 * K} basis modes, got N = {N}")
    if N < 1:
        raise DomainError("need at least one basis mode")


def assemble_operator(profile: CosineSeries, N: int) -> np.ndarray:
    """Dense symmetric Galerkin matrix of d^2/dx^2 + 12 W on N cosine modes.

    Requires N >= 2 K so the multiplication matrix sees every coefficient of
    W (mode sums k + l reach beyond K otherwise silently).  The leading
    n x n block of the N-mode matrix is the n-mode matrix, byte for byte.
    """
    _require_modes(profile.K, N)
    w = np.zeros(2 * N, dtype=profile.coeffs.dtype)
    w[: profile.K + 1] = profile.coeffs
    return _blocks(_views(w, N, N), w, np.arange(N)[None])[0]


def _views(w: np.ndarray, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows x cols views hankel[i, j] = w[i + j] and
    toeplitz[i, j] = w[|i - j|]."""
    hankel = sliding_window_view(w[: rows + cols - 1], cols)
    toeplitz = sliding_window_view(np.concatenate((w[rows - 1 : 0 : -1], w[:cols])), cols)[::-1]
    return hankel, toeplitz


def _blocks(views: tuple[np.ndarray, np.ndarray], w: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The Galerkin matrix at idx[j] x idx[j] for each row j of an (m, n)
    array of ascending modes, byte for byte: views are `_views` of w, the
    zero-padded profile coefficients, and w reaches 2 idx.max()."""
    hankel, toeplitz = views
    at = idx[:, :, None], idx[:, None, :]
    M = hankel[at]
    M += toeplitz[at]
    M /= 2.0
    diag = M.reshape(len(M), -1)[:, :: idx.shape[1] + 1]
    diag[...] = w[0] + w[2 * idx] / 2.0
    for j in np.flatnonzero(idx[:, 0] == 0):     # the class of mode 0
        M[j, :, 0] = w[idx[j]] / math.sqrt(2.0)
        M[j, 0, :] = M[j, :, 0]
        M[j, 0, 0] = w[0]
    M *= 12.0
    diag -= (_TWO_PI * idx) ** 2
    return M


def _rows_past(toeplitz: np.ndarray, N: int, idx: np.ndarray) -> np.ndarray:
    """Rows N .. N + K - 1 of the Galerkin matrix at the modes idx < N, byte
    for byte, from the `_views` toeplitz of N + K rows.  With N >= 2K every
    w_{k+l} there is +0.0, and so is the mode-0 column w_k / sqrt(2), so each
    entry is (0.0 + w_{k-l}) / 2 * 12, kept row-major as the product with
    the eigenvectors needs for its bytes."""
    M = np.add(toeplitz[N:, idx], 0.0, order="C")
    M /= 2.0
    M *= 12.0
    return M


class Eigenvectors(Sequence):
    """Read-only sequence of eigenvectors, held as one orthonormal-basis block
    per class of cosine modes.

    Item i is `_to_cosine` of column order[i] of the blocks' columns taken
    class after class, on its class's modes and zero off them.  It is built
    each time it is read; a slice gives a list.
    """

    def __init__(self, classes: list[np.ndarray], blocks: list[np.ndarray], order: np.ndarray):
        for block in blocks:
            block.flags.writeable = False
        self._classes = classes
        self._blocks = blocks
        self._starts = np.cumsum([0] + [len(idx) for idx in classes])
        self._order = order

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        k = self._order[i]
        c = int(np.searchsorted(self._starts, k, side="right")) - 1
        column = np.zeros(len(self))
        column[self._classes[c]] = self._blocks[c][:, k - self._starts[c]]
        return _to_cosine(column)


@dataclass
class SpectrumReport:
    """Eigenvalues (descending), eigenvectors, and quality certificates."""

    eigenvalues: np.ndarray
    eigenvectors: Eigenvectors
    morse_index: int
    N: int
    refinement_defect: float
    degenerate_pairs: list[tuple[int, int, float]] = field(default_factory=list)


def eigen(profile: CosineSeries, N: int | None = None) -> SpectrumReport:
    """Spectrum of the linearization at `profile`.

    N defaults to 4 K + 32.  Eigenvalues, Morse index and eigenvectors all
    come from the N-mode matrix, built class by class and never whole.  With
    g the gcd of the indices l >= 1 of the nonzero profile coefficients,
    each class of modes k = +-r (mod g), r = 0 .. floor(g/2), gets its own
    block, built from the profile coefficients; blocks of one size go
    through one stacked eigh, and the pairs are merged in descending order.
    For g <= 1 (W_1, constants, generic profiles) that is one eigh of the
    whole N x N matrix.  A second pass over the classes forms each one's K
    rows past N and keeps only what the certificate below reads, so the
    peak is O(sum n_c^2 + K max n_c) floats.  On W_22(0.49) (N = 4,520),
    W_25(0.5) (5,332) and W_50(0.5) (10,632) the `spectrum` command peaks at
    66, 72 and 113 MB resident in 0.6, 0.7 and 1.4 s, where the whole
    (N + K) x N matrix took 369, 498 and 1,811 MB and 1.1, 1.1 and 3.4 s
    (2-core x86-64 host, numpy 2.4.6 with OpenBLAS).  Each eigenvector is
    built from its class's block when it is read.

    The top t Ritz pairs (theta_i, v_i) are certified against every larger
    truncation and the operator itself, with t = 11 carried on through every
    gap below DEGENERACY_TOL (W_n's n spikes at large h split its top n
    eigenvalues by less than 1e-9): Cauchy interlacing gives
    lambda_i >= theta_i, and Kahan's theorem for a Rayleigh-Ritz block
    (Parlett, The Symmetric Eigenvalue Problem, 11.5) gives
    lambda_i - theta_i <= ||R||_2 with R = fine[N:, :N] @ V[:, :t], fine
    the Galerkin matrix of the N + K truncation (formed class by class, as
    fine[N:, class] @ V[class, :]), once
    the operator restricted to the complement of those t Ritz vectors
    has no eigenvalue above theta_t.  That separation
    is checked without a solve: the modes past N lie below
    d = 12 (w_0 + sum_{l>=1} |w_l|) - (2 pi N)^2, and with c_j the coupling
    ||fine[N:, :N] v_j|| of Ritz vector j > t it suffices that
    sum_j c_j^2 / (theta_t - theta_j) <= theta_t - d.
    ||R||_2 is reported as `refinement_defect` and must stay under
    REFINEMENT_TOL plus the roundoff floor 16 eps max|diag| over the N + K
    modes, else
    ConvergenceError.  Eigenvalue gaps below DEGENERACY_TOL are flagged,
    not resolved.
    """
    if not np.isfinite(profile.coeffs).all():
        raise DomainError("profile coefficients must be finite")
    if np.iscomplexobj(profile.coeffs):
        raise DomainError("the linearization is self-adjoint only at a real profile")
    K = profile.K
    if N is None:
        N = 4 * K + 32
    _require_modes(K, N)
    w = np.zeros(2 * N + K)
    w[: K + 1] = profile.coeffs
    views = _views(w, N + K, N)
    # W on multiples of g couples cosine mode k only to the modes l = +-k
    # (mod g): one block per class, each Ritz vector zero off its class
    coeffs = profile.coeffs
    g = max(1, math.gcd(*(np.flatnonzero(coeffs[1:]) + 1).tolist()))
    modes = np.arange(N)
    residue = np.minimum(modes % g, -modes % g)
    classes = [np.flatnonzero(residue == r) for r in range(g // 2 + 1)]
    sizes = [len(idx) for idx in classes]
    vals, blocks = [None] * len(classes), [None] * len(classes)
    top_diag = 0.0
    # one eigh per block size: a stack of equal-size blocks gives each the
    # bytes of its own eigh
    for size in set(sizes):
        members = [c for c in range(len(classes)) if sizes[c] == size]
        idx = np.array([classes[c] for c in members])
        stack = _blocks(views, w, idx)
        top_diag = max(top_diag, float(np.abs(np.diagonal(stack, axis1=1, axis2=2)).max()))
        stack_vals, stack_vecs = np.linalg.eigh(stack)
        del stack     # before the sorted copies: the peak holds one stack less
        # eigh's column-major vectors stay column-major, which sets the
        # bytes of the Ritz residuals below
        for c, block_vals, block, down in zip(members, stack_vals, stack_vecs,
                                              np.argsort(stack_vals, axis=1)[:, ::-1]):
            vals[c], blocks[c] = block_vals[down], block[:, down]
    vals = np.concatenate(vals)
    order = np.argsort(vals)[::-1]
    vals = vals[order]

    gaps = np.abs(np.diff(vals))
    top = min(11, N)
    while top < N and gaps[top - 1] < DEGENERACY_TOL:     # a gap this small separates nothing
        top += 1
    # the Ritz residuals R = fine[N:, :N] @ V, class by class as
    # fine[N:, class] @ V[class, :] with fine's K rows past N kept whole, so
    # that each column has the bytes of the unsplit product: keep every
    # column's squared norm and the columns in the top block
    position = np.empty(N, dtype=int)
    position[order] = modes
    c2 = np.zeros(N)
    head = np.zeros((K, top))
    start = 0
    for idx, block in zip(classes, blocks):
        coupling = _rows_past(views[1], N, idx) @ block
        at = position[start : start + len(idx)]
        start += len(idx)
        c2[at] = np.sum(coupling ** 2, axis=0)
        kept = at < top
        head[:, at[kept]] = coupling[:, kept]
    defect = float(np.linalg.norm(head, 2)) if K else 0.0
    # past the N kept modes the diagonal of the N + K truncation is
    # 12 w_0 - (2 pi k)^2, since w_2k = 0 there
    past_diag = np.abs(12.0 * w[0] - (_TWO_PI * np.arange(N, N + K)) ** 2)
    noise_floor = 16.0 * np.finfo(float).eps * max(top_diag, float(past_diag.max(initial=0.0)))
    if defect >= REFINEMENT_TOL + noise_floor:
        raise ConvergenceError(
            f"top Ritz residual {defect:.3e} at N = {N} exceeds the "
            f"truncation tolerance; increase N"
        )
    # separation: the Ritz vectors past the top block, coupled to modes that
    # lie below fine_top, must not lift the discarded spectrum above its last
    c2 = c2[top:]
    coupled = c2 > 0.0
    with np.errstate(divide="ignore"):
        spill = float(np.sum(c2[coupled] / (vals[top - 1] - vals[top:][coupled])))
    fine_top = 12.0 * float(coeffs[0] + np.abs(coeffs[1:]).sum()) - (_TWO_PI * N) ** 2
    if not spill <= vals[top - 1] - fine_top:
        raise ConvergenceError(
            f"modes past N = {N} may hold eigenvalues above the top {top}; increase N"
        )

    degenerate = [(i, i + 1, float(gaps[i])) for i in np.nonzero(gaps < DEGENERACY_TOL)[0]]

    return SpectrumReport(
        eigenvalues=vals,
        eigenvectors=Eigenvectors(classes, blocks, order),
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
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"need finite lambda >= 0, got {lam}")
    k = np.arange(count)
    sign = {"upper": 1.0, "lower": -1.0}.get(equilibrium)
    if sign is None:
        raise DomainError(f"equilibrium must be 'upper' or 'lower', got {equilibrium!r}")
    return sign * _top_mu(lam) - (_TWO_PI * k) ** 2


def _top_mu(lam: float) -> float:
    """2 sqrt(6 lam), finite for every finite lam: past the range of 6 lam it is
    2 sqrt(6) sqrt(lam)."""
    six = 6.0 * lam
    return 2.0 * math.sqrt(six) if six < math.inf else 2.0 * math.sqrt(6.0) * math.sqrt(lam)


def morse_index_homogeneous(lam: float) -> int:
    """Unstable dimension of +sqrt(lam/6): #{k >= 0 : (2 pi k)^2 < 2 sqrt(6 lam)}, 0 at lam = 0.

    The predicate, evaluated in floating point, holds for k < count and fails
    from count on, so count is bisected for in about log2(lam) / 4 evaluations
    instead of counted rung by rung (lam^(1/4) of them).  Past about
    lam = 4e65 the count passes 2^53 rungs and is the floating-point
    predicate's answer on float(k), accurate to about 1e-16 relative: at
    lam = 1e308 a 77-digit count whose trailing digits are set by rounding.
    The eigenvalues there are all equal, since (2 pi k)^2 falls below their ulp."""
    lam = float(lam)
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"need finite lambda >= 0, got {lam}")
    bound = _top_mu(lam)
    lo, hi = 0, 2 * int(math.sqrt(bound) / _TWO_PI) + 2     # the predicate fails at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if (_TWO_PI * mid) ** 2 < bound:
            lo = mid + 1
        else:
            hi = mid
    return lo


def perturbation_mu_coefficients(n: int, k: int) -> tuple[int, int, Fraction]:
    """Exact (mu0, mu1, mu2) of mu / (4 pi^2) = mu0 + mu1 h + mu2 h^2 + O(h^3).

    The resonance arithmetic consumes these as integers / Fractions; the
    k = n/2 case (even n only) is the resonant denominator n^2 - 4k^2 = 0.
    """
    n = _check_branch_index(n)
    if k != int(k) or k < 0:
        raise DomainError(f"mode index must be a nonnegative integer, got {k!r}")
    k = int(k)
    mu0 = n * n - k * k
    if 2 * k == n:
        return mu0, 12 * n * n, Fraction(48 * n * n)
    mu2 = Fraction(24 * n * n * (11 * n * n + 4 * k * k), n * n - 4 * k * k)
    return mu0, 0, mu2


def perturbation_mu(n: int, k: int, h: float) -> float:
    """Second-order expansion of the eigenvalue over mode k near onset of branch n."""
    mu0, mu1, mu2 = perturbation_mu_coefficients(n, k)
    h = float(h)
    if not math.isfinite(h):
        raise DomainError(f"need a finite modulus, got {h}")
    return 4.0 * math.pi ** 2 * (mu0 + mu1 * h + float(mu2) * h * h)
