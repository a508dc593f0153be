"""Linearized spectra: Galerkin matrices, Morse indices, perturbation series."""

import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from eternal_kit import elliptic, spectrum
from eternal_kit.errors import ConvergenceError, DomainError


def mu_formula(lam, k, sign=+1):
    return sign * 2.0 * math.sqrt(6.0 * lam) - (2.0 * math.pi * k) ** 2


def test_homogeneous_spectrum_matches_closed_form():
    for lam in (1.0, 6.0, 64.939394022668267):
        mus = spectrum.homogeneous_spectrum(lam, count=8)
        want = sorted((mu_formula(lam, k) for k in range(8)), reverse=True)
        assert np.allclose(mus, want, atol=1e-10)


def test_homogeneous_lower_equilibrium_spectrum():
    mus = spectrum.homogeneous_spectrum(6.0, count=5, equilibrium="lower")
    want = sorted((mu_formula(6.0, k, sign=-1) for k in range(5)), reverse=True)
    assert np.allclose(mus, want, atol=1e-10)
    assert all(m < 0 for m in mus)


@pytest.mark.parametrize("n", range(1, 9))
def test_homogeneous_morse_index_counts_branch_index(n):
    lam = (2.0 / 3.0) * (n * math.pi) ** 4
    assert spectrum.morse_index_homogeneous(lam) == n


def test_homogeneous_morse_index_at_lambda_zero():
    # at lambda = 0 the spectrum is -(2 pi k)^2: mu_0 = 0 is not unstable
    assert spectrum.homogeneous_spectrum(0.0, count=3)[0] == 0.0
    assert spectrum.morse_index_homogeneous(0.0) == 0
    for lam in (-1e-300, -1.0):
        with pytest.raises(DomainError):
            spectrum.morse_index_homogeneous(lam)


def _rung_count(lam):
    """The Morse index at +sqrt(lam/6) counted one rung at a time."""
    bound, count = 2.0 * math.sqrt(6.0 * lam), 0
    while (2.0 * math.pi * count) ** 2 < bound:
        count += 1
    return count


def test_homogeneous_morse_index_matches_the_rung_count():
    # a geometric grid, and the few floats around each rung lambda_k, where
    # 2 sqrt(6 lam) equals (2 pi k)^2 exactly for some of them
    lams = [0.0, 5e-324, 1e-300] + [10.0 ** (e / 4.0) for e in range(-24, 81)]
    hits = 0
    for k in range(200):
        rung = (2.0 * math.pi * k) ** 2
        lam = (rung / 2.0) ** 2 / 6.0
        for _ in range(4):
            lam = math.nextafter(lam, 0.0)
        for _ in range(9):
            lams.append(lam)
            hits += 2.0 * math.sqrt(6.0 * lam) == rung
            lam = math.nextafter(lam, math.inf)
    assert hits > 100
    for lam in lams:
        assert spectrum.morse_index_homogeneous(lam) == _rung_count(lam), lam


@pytest.mark.parametrize("lam", [1e40, 1e308])
def test_homogeneous_state_at_a_huge_lambda(lam):
    # about lam^(1/4) rungs, so no counting; 6 lam overflows past 3e307
    t0 = time.perf_counter()
    morse = spectrum.morse_index_homogeneous(lam)
    mus = spectrum.homogeneous_spectrum(lam, count=8)
    assert time.perf_counter() - t0 < 1.0
    assert np.isfinite(mus).all() and mus[0] == pytest.approx(2.0 * math.sqrt(6.0) * math.sqrt(lam), rel=1e-15)
    assert (2.0 * math.pi * (morse - 1)) ** 2 < mus[0] <= (2.0 * math.pi * morse) ** 2
    if lam == 1e40:
        assert morse == 3522677960


def test_assemble_operator_is_symmetric():
    prof = elliptic.branch_point(2, 0.06).profile
    M = spectrum.assemble_operator(prof, 64)
    assert np.allclose(M, M.T, atol=0.0)


def test_assemble_operator_constant_profile_is_diagonal():
    prof = elliptic.CosineSeries(np.array([0.5]))
    M = spectrum.assemble_operator(prof, 6)
    off = M - np.diag(np.diag(M))
    assert np.max(np.abs(off)) == 0.0
    assert M[0, 0] == pytest.approx(6.0)
    assert M[3, 3] == pytest.approx(6.0 - (6 * math.pi) ** 2)


def test_assemble_operator_needs_room_for_products():
    prof = elliptic.branch_point(1, 0.1).profile
    with pytest.raises(DomainError):
        spectrum.assemble_operator(prof, prof.K + 1)


def test_eigen_needs_room_for_products():
    # eigen assembles only the 2N matrix, which would have room at N = 2K - 1
    prof = elliptic.branch_point(1, 0.1).profile
    with pytest.raises(DomainError, match="need N >= 2K"):
        spectrum.eigen(prof, N=2 * prof.K - 1)


def test_eigen_refuses_a_complex_profile():
    # eigh would read the complex symmetric matrix as Hermitian
    with pytest.raises(DomainError, match="real profile"):
        spectrum.eigen(elliptic.CosineSeries(np.array([1.0, 0.5j])))


def reference_operator(profile, N):
    """The Galerkin matrix gathered through N x N integer index arrays."""
    K = profile.K
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
    M[idx, idx] -= (2.0 * math.pi * idx) ** 2
    return M


@pytest.mark.parametrize("n,h", [(1, 0.05), (2, 0.1), (3, -0.08), (6, 0.05), (23, 3e-5)])
def test_assembly_is_byte_equal_to_the_index_formula(n, h):
    profile = elliptic.branch_point(n, h).profile
    K = profile.K
    for N in (2 * K, 2 * K + 1, 4 * K + 32, 8 * K + 64):
        assert spectrum.assemble_operator(profile, N).tobytes() == \
            reference_operator(profile, N).tobytes(), N


@pytest.mark.parametrize("n,h", [(1, 0.05), (2, 0.1), (6, 0.05), (20, 3e-5), (23, -6e-5)])
def test_eigen_assembly_is_the_leading_columns_of_the_index_formula(n, h):
    # eigen reads only the N kept columns of the N + K truncation, one class
    # k = +-r (mod n) at a time: its block and its K rows past N
    profile = elliptic.branch_point(n, h).profile
    K = profile.K
    for N in (2 * K, 4 * K + 32):
        fine = reference_operator(profile, N + K)
        w = np.zeros(2 * N + K)
        w[: K + 1] = profile.coeffs
        modes = np.arange(N)
        past = np.arange(N, N + K)
        views = spectrum._views(w, N + K, N)
        for r in range(n // 2 + 1):
            idx = np.flatnonzero(np.minimum(modes % n, -modes % n) == r)
            assert spectrum._blocks(views, w, idx[None])[0].tobytes() == \
                fine[np.ix_(idx, idx)].tobytes(), (N, r)
            assert spectrum._rows_past(views[1], N, idx).tobytes() == \
                fine[np.ix_(past, idx)].tobytes(), (N, r)


@pytest.mark.parametrize("n,h", [(1, 0.05), (2, 0.05), (3, 0.08), (4, 0.02),
                                 (5, 0.02), (6, 0.02)])
def test_morse_index_along_branches(n, h):
    rep = spectrum.eigen(elliptic.branch_point(n, h).profile)
    assert rep.morse_index == n


def test_eigen_report_shapes_and_refinement():
    prof = elliptic.branch_point(2, 0.05).profile
    rep = spectrum.eigen(prof)
    assert rep.eigenvalues.shape == (rep.N,)
    assert len(rep.eigenvectors) == rep.N
    assert np.all(np.diff(rep.eigenvalues) <= 0)
    assert rep.refinement_defect is not None and rep.refinement_defect < 1e-9


def test_eigenvectors_satisfy_rayleigh_quotient():
    prof = elliptic.branch_point(1, 0.08).profile
    rep = spectrum.eigen(prof)
    M = spectrum.assemble_operator(prof, rep.N)
    for j in (0, 1, 5):
        v = rep.eigenvectors[j]
        # back to orthonormal-basis coordinates
        col = v.coeffs.copy()
        col[0] /= math.sqrt(2.0)
        col[1:] /= 2.0
        col = col / np.linalg.norm(col)
        assert np.linalg.norm(M @ col - rep.eigenvalues[j] * col) < 1e-8


def test_eigenvector_sign_convention_is_deterministic():
    prof = elliptic.branch_point(1, 0.05).profile
    a = spectrum.eigen(prof).eigenvectors[0].coeffs
    b = spectrum.eigen(prof, N=64).eigenvectors[0].coeffs
    k = int(np.argmax(np.abs(a)))
    assert a[k] > 0 and b[k] > 0


def test_perturbation_coefficients_frozen_triples():
    assert spectrum.perturbation_mu_coefficients(1, 0) == (1, 0, Fraction(264))
    assert spectrum.perturbation_mu_coefficients(2, 1) == (3, 48, Fraction(192))
    assert spectrum.perturbation_mu_coefficients(1, 1) == (0, 0, Fraction(-120))


def test_perturbation_coefficients_reject_bad_indices():
    with pytest.raises(DomainError):
        spectrum.perturbation_mu_coefficients(0, 0)
    with pytest.raises(DomainError):
        spectrum.perturbation_mu_coefficients(2, -1)


def mu2_closed_form(n, k):
    """h^2 coefficient of mu_{n,k}(h) / (4 pi^2); 48 n^2 at k = n / 2."""
    if 2 * k == n:
        return Fraction(48 * n * n)
    return Fraction(24 * n * n * (11 * n * n + 4 * k * k), n * n - 4 * k * k)


def test_mu2_fractions_match_extrapolated_galerkin_spectra():
    """The resonance certificate's exact mu2 against spectra at +-h, +-2h.

    The symmetric second difference of mu / (4 pi^2) at step h is mu2 +
    O(h^2); one Richardson step against step 2h removes the h^2 term.  The
    step must be small: near-resonant denominators n^2 - 4 k^2 shrink the
    radius of the expansion, and at h = 1e-3 the estimate is off by 2%.
    At h = 3e-5 the eigenvalues' roundoff, amplified by 1 / h^2, sets the
    error; solving each class of modes alone keeps it under 1e-7.
    """
    h = 3e-5
    for n in range(1, 24):
        mus = {hh: spectrum.eigen(elliptic.branch_point(n, hh).profile).eigenvalues[:n]
               / (4.0 * math.pi ** 2)
               for hh in (h, -h, 2 * h, -2 * h)}
        for k in range(n):
            exact = mu2_closed_form(n, k)
            assert spectrum.perturbation_mu_coefficients(n, k)[2] == exact
            mu0 = n * n - k * k
            d1 = (mus[h][k] + mus[-h][k] - 2.0 * mu0) / (2.0 * h * h)
            d2 = (mus[2 * h][k] + mus[-2 * h][k] - 2.0 * mu0) / (8.0 * h * h)
            got = (4.0 * d1 - d2) / 3.0
            err = abs(got - float(exact)) / abs(float(exact))
            assert err < 1e-7, (n, k, got, exact)


def _defect_slope(n, k, hs):
    defects = []
    for h in hs:
        rep = spectrum.eigen(elliptic.branch_point(n, h).profile)
        predicted = spectrum.perturbation_mu(n, k, h)
        defects.append(abs(rep.eigenvalues[k] - predicted))
    return np.polyfit(np.log(hs), np.log(defects), 1)[0]


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (2, 1), (3, 0)])
def test_galerkin_matches_perturbation_to_cubic_order(n, k):
    """Defect between computed eigenvalue and its quadratic model decays
    like h^3, seen as a log-log slope safely above 2."""
    assert _defect_slope(n, k, np.array([0.02, 0.04, 0.08])) >= 2.7


def test_cubic_decay_holds_for_oscillatory_modes_too():
    # the h^4 term partially cancels here, dragging the finite-h slope a
    # little under 3; it still certifies cubic-order agreement
    assert _defect_slope(3, 2, np.array([0.02, 0.04, 0.08])) >= 2.5


def test_perturbation_mu_at_h_zero_is_homogeneous():
    for n, k in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        lam = (2.0 / 3.0) * (n * math.pi) ** 4
        assert spectrum.perturbation_mu(n, k, 0.0) == pytest.approx(
            mu_formula(lam, k), rel=1e-12
        )


def test_spectrum_interlaces_branch_index():
    # exactly n positive eigenvalues, and the (n+1)st is strictly negative
    rep = spectrum.eigen(elliptic.branch_point(3, 0.05).profile)
    assert rep.eigenvalues[2] > 0 > rep.eigenvalues[3]


def test_refinement_failure_surfaces_as_convergence_error():
    # a huge potential concentrated at the top mode cannot be resolved at
    # the minimal legal truncation
    coeffs = np.zeros(31)
    coeffs[30] = 1e6
    with pytest.raises(ConvergenceError):
        spectrum.eigen(elliptic.CosineSeries(coeffs), N=60)


def test_default_truncation_converges_for_moderate_moduli():
    rep = spectrum.eigen(elliptic.branch_point(4, 0.08).profile)
    assert rep.morse_index == 4


GUARD_PROFILES = [(1, 0.05), (6, 0.05), (23, 3e-5)]


def reference_spectrum(M, idx):
    """Eigenpairs of the block M[idx, idx] straight from eigh, descending,
    as N-mode cosine coefficients, sign-fixed."""
    vals, vecs = np.linalg.eigh(M[np.ix_(idx, idx)])
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    coeffs = []
    for i in range(len(idx)):
        col = np.zeros(len(M))
        col[idx] = vecs[:, i]
        a = 2.0 * col
        a[0] = math.sqrt(2.0) * col[0]
        if a[np.argmax(np.abs(a))] < 0:
            a = -a
        coeffs.append(a)
    return vals, coeffs


@pytest.mark.parametrize("n,h", GUARD_PROFILES)
def test_eigenpairs_are_byte_equal_to_the_coarse_eigh(n, h):
    # W_n lives on multiples of n, so eigen solves each class of modes
    # k = +-r (mod n) alone; at n = 1 the one class is the whole N x N matrix
    profile = elliptic.branch_point(n, h).profile
    rep = spectrum.eigen(profile)
    M = reference_operator(profile, rep.N)
    full = np.linalg.eigvalsh(M)[::-1]
    floor = 16.0 * np.finfo(float).eps * float(np.abs(full).max())
    assert np.all(np.abs(rep.eigenvalues - full) <= floor)

    modes = np.arange(rep.N)
    residue = np.minimum(modes % n, -modes % n)
    owner = []
    for v in rep.eigenvectors:
        held = set(residue[v.coeffs != 0.0].tolist())
        assert len(held) == 1, held
        owner.append(held.pop())
    owner = np.array(owner)
    assert set(owner.tolist()) == set(range(n // 2 + 1))
    for r in range(n // 2 + 1):
        vals, coeffs = reference_spectrum(M, np.flatnonzero(residue == r))
        members = np.flatnonzero(owner == r)
        assert rep.eigenvalues[members].tobytes() == vals.tobytes(), r
        assert len(members) == len(coeffs)
        for i, want in zip(members, coeffs):
            assert rep.eigenvectors[i].coeffs.tobytes() == want.tobytes(), (r, i)


@pytest.mark.parametrize("n,h", GUARD_PROFILES)
def test_refinement_defect_stays_under_tolerance_plus_noise_floor(n, h):
    # a separate 2N assembly and full solve, against the residual bound
    profile = elliptic.branch_point(n, h).profile
    rep = spectrum.eigen(profile)
    fine = np.linalg.eigvalsh(reference_operator(profile, 2 * rep.N))[::-1]
    floor = 16.0 * np.finfo(float).eps * float(np.abs(fine).max())
    assert rep.refinement_defect < spectrum.REFINEMENT_TOL + floor
    fine, theta = fine[:11], rep.eigenvalues[:11]
    assert np.all(fine >= theta - floor)
    assert np.all(np.abs(fine - theta) <= rep.refinement_defect + floor)


@pytest.mark.parametrize("W", [-2.0, 0.5, 1.7])
def test_constant_profile_certificate_is_exact(W):
    # K = 0: no mode past N couples to the kept ones
    rep = spectrum.eigen(elliptic.CosineSeries([W]))
    assert rep.refinement_defect == 0.0
    k = np.arange(rep.N)
    assert np.array_equal(rep.eigenvalues, 12.0 * W - (2.0 * math.pi * k) ** 2)


def geometric_profile(A, q, K=40):
    return elliptic.CosineSeries(A * q ** np.arange(K + 1))


def test_residual_bound_holds_against_a_4n_reference():
    profile = geometric_profile(10.0, 0.7)
    N = 80
    rep = spectrum.eigen(profile, N=N)
    assert 0.0 < rep.refinement_defect < 1e-10
    fine = np.linalg.eigvalsh(reference_operator(profile, 4 * N))[::-1]
    # both solves' roundoff floors
    floor = 16.0 * np.finfo(float).eps * (float(np.abs(fine).max())
                                          + float(np.abs(rep.eigenvalues).max()))
    fine, theta = fine[:11], rep.eigenvalues[:11]
    assert np.all(fine >= theta - floor)
    assert np.all(np.abs(fine - theta) <= rep.refinement_defect + floor)


@pytest.mark.parametrize("A,q", [(100.0, 0.8), (3e3, 0.9)])
def test_slowly_decaying_profiles_are_refused_at_the_minimal_truncation(A, q):
    with pytest.raises(ConvergenceError, match="Ritz residual"):
        spectrum.eigen(geometric_profile(A, q), N=80)


def test_unseparated_discarded_modes_are_refused(monkeypatch):
    # with the residual check lifted, the top-mode spike still fails the
    # separation check: modes past N may rise above the eleventh Ritz value
    monkeypatch.setattr(spectrum, "REFINEMENT_TOL", math.inf)
    coeffs = np.zeros(31)
    coeffs[30] = 1e6
    with pytest.raises(ConvergenceError, match="modes past N"):
        spectrum.eigen(elliptic.CosineSeries(coeffs), N=60)


EXACT_WORKLOAD_SPECTRA = (
    [(n, s * h) for n in range(1, 24) for h in (3e-5, 6e-5) for s in (1, -1)]
    + [(n, h) for n in range(1, 7) for h in (0.02, 0.06)]
)


def spectrum_digest(pairs, vectors=None):
    h = hashlib.sha256()
    for n, x in pairs:
        rep = spectrum.eigen(elliptic.branch_point(n, x).profile)
        h.update(rep.eigenvalues.tobytes())
        for v in rep.eigenvectors[:vectors]:
            h.update(v.coeffs.tobytes())
        h.update(float(rep.refinement_defect).hex().encode())
        h.update(str(rep.morse_index).encode())
    return h.hexdigest()


# every eigenpair, residual bound and Morse index of the exact workload's
# W_1 ... W_23 and of W_1 ... W_6 at h = 0.05, to the last bit
@pytest.mark.parametrize("h, n_max, want", [
    (3e-5, 23, "5ba2f6af32b60889b254ad3e510356331bbb96eea97d4409eb29d87f48b72417"),
    (-3e-5, 23, "51c7e94b5b7bbad8b4a66bab34d5781a7a5e44c1c49dd0165e921a5c336c8a02"),
    (6e-5, 23, "351a1ffa41184e921bfb9867ad93bda26c7f335c61a27998d26dbf9dd24f671e"),
    (-6e-5, 23, "005bb0d9b847c583f240bb0c04ac66b4e4a27d4b98fa99aacef3cf05cc364daa"),
    (0.05, 6, "605108185edda47886a0184450dc1977731f5329ab3a32ea5e1b11ca6858c380"),
])
def test_branch_spectra_bytes(h, n_max, want):
    assert spectrum_digest([(n, h) for n in range(1, n_max + 1)]) == want


# the high-index regime of the paper's non-resonance argument, N = 4,520 and
# 5,332: every eigenvalue, the residual bound, the Morse index and the first
# 40 eigenvectors, to the last bit
@pytest.mark.parametrize("n, h, want", [
    (22, 0.49, "63ce29406cb5d6ce94474c3b65086c456ec2b36cb19d7d1f6995c6811d24888f"),
    (25, 0.5, "9ffc07453ecd573d91e56bc11b4f903c3b34620cd7c0c85982447684e08a921a"),
])
def test_high_index_spectra_bytes(n, h, want):
    assert spectrum_digest([(n, h)], vectors=40) == want


def test_every_exact_workload_spectrum_certifies_below_1e_12():
    worst = max(
        (spectrum.eigen(elliptic.branch_point(n, h).profile).refinement_defect, n, h)
        for n, h in EXACT_WORKLOAD_SPECTRA
    )
    assert worst[0] < 1e-12, worst


def test_eigenvectors_read_like_a_sequence():
    rep = spectrum.eigen(elliptic.branch_point(1, 0.05).profile)
    vecs = rep.eigenvectors
    n = len(vecs)
    assert n == rep.N
    assert vecs[-1].coeffs.tobytes() == vecs[n - 1].coeffs.tobytes()
    assert [v.coeffs.tobytes() for v in vecs[1:4]] == \
        [vecs[i].coeffs.tobytes() for i in (1, 2, 3)]
    assert [v.coeffs.tobytes() for v in vecs] == [vecs[i].coeffs.tobytes() for i in range(n)]
    with pytest.raises(IndexError):
        vecs[n]
    with pytest.raises(TypeError):
        vecs[0] = vecs[1]


@pytest.mark.parametrize("h", [0.05, 3e-5])
@pytest.mark.parametrize("n", [2, 6, 23])
def test_rescaled_branch_spectrum_is_n_squared_times_branch_one(n, h):
    # W_n(x) = n^2 W_1(n x): on cosines of multiples of n the linearization
    # at W_n is n^2 times the one at W_1
    top = spectrum.eigen(elliptic.branch_point(1, h).profile).eigenvalues[:8]
    rep = spectrum.eigen(elliptic.branch_point(n, h).profile)
    off = np.arange(rep.N) % n != 0
    lifted = [lam for lam, v in zip(rep.eigenvalues, rep.eigenvectors)
              if np.abs(v.coeffs[off]).max() < 1e-8][:8]
    err = np.abs(np.array(lifted) - n * n * top) / np.maximum(1.0, np.abs(lifted))
    assert err.max() < 1e-11, err.max()


def test_a_degenerate_cluster_across_the_eleventh_eigenvalue_certifies():
    # the n spikes of W_25(0.5) split its top eigenvalues by less than
    # DEGENERACY_TOL: theta_11 = theta_12 to the bit, so the certified block
    # runs on through the cluster instead of dividing by a zero gap.  At
    # N = 5,332 its 13 class blocks hold 18 MB and eigen peaks at 35 MB
    # traced, where the (N + K) x N matrix alone would take 284 MB
    profile = elliptic.branch_point(25, 0.5).profile
    tracemalloc.start()
    try:
        rep = spectrum.eigen(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, peak
    assert rep.morse_index == 25
    assert rep.refinement_defect < 1e-14
    assert (10, 11) in [(i, j) for i, j, _ in rep.degenerate_pairs]
