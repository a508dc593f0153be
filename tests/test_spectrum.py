"""Linearized spectra: Galerkin matrices, Morse indices, perturbation series."""

import math
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


def test_assemble_operator_is_symmetric():
    prof = elliptic.equilibrium_profile(2, 0.06)
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
    prof = elliptic.equilibrium_profile(1, 0.1)
    with pytest.raises(DomainError):
        spectrum.assemble_operator(prof, prof.K + 1)


@pytest.mark.parametrize("n,h", [(1, 0.05), (2, 0.05), (3, 0.08), (4, 0.02),
                                 (5, 0.02), (6, 0.02)])
def test_morse_index_along_branches(n, h):
    rep = spectrum.eigen(elliptic.equilibrium_profile(n, h))
    assert rep.morse_index == n


def test_eigen_report_shapes_and_refinement():
    prof = elliptic.equilibrium_profile(2, 0.05)
    rep = spectrum.eigen(prof)
    assert rep.eigenvalues.shape == (rep.N,)
    assert len(rep.eigenvectors) == rep.N
    assert np.all(np.diff(rep.eigenvalues) <= 0)
    assert rep.refinement_defect is not None and rep.refinement_defect < 1e-9


def test_eigenvectors_satisfy_rayleigh_quotient():
    prof = elliptic.equilibrium_profile(1, 0.08)
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
    prof = elliptic.equilibrium_profile(1, 0.05)
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
            assert err < 1e-5, (n, k, got, exact)


def _defect_slope(n, k, hs):
    defects = []
    for h in hs:
        rep = spectrum.eigen(elliptic.equilibrium_profile(n, h))
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
    rep = spectrum.eigen(elliptic.equilibrium_profile(3, 0.05))
    assert rep.eigenvalues[2] > 0 > rep.eigenvalues[3]


def test_refinement_failure_surfaces_as_convergence_error():
    # a huge potential concentrated at the top mode cannot be resolved at
    # the minimal legal truncation
    coeffs = np.zeros(31)
    coeffs[30] = 1e6
    with pytest.raises(ConvergenceError):
        spectrum.eigen(elliptic.CosineSeries(coeffs), N=60)


def test_default_truncation_converges_for_moderate_moduli():
    rep = spectrum.eigen(elliptic.equilibrium_profile(4, 0.08))
    assert rep.morse_index == 4


GUARD_PROFILES = [(1, 0.05), (6, 0.05), (23, 3e-5)]


def reference_spectrum(profile, N):
    """Coarse eigenpairs straight from eigh, descending, sign-fixed."""
    vals, vecs = np.linalg.eigh(spectrum.assemble_operator(profile, N))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    coeffs = []
    for i in range(N):
        a = 2.0 * vecs[:, i].copy()
        a[0] = math.sqrt(2.0) * vecs[0, i]
        if a[np.argmax(np.abs(a))] < 0:
            a = -a
        coeffs.append(a)
    return vals, coeffs


@pytest.mark.parametrize("n,h", GUARD_PROFILES)
def test_eigenpairs_are_byte_equal_to_the_coarse_eigh(n, h):
    profile = elliptic.branch_point(n, h).profile
    rep = spectrum.eigen(profile)
    vals, coeffs = reference_spectrum(profile, rep.N)
    assert rep.eigenvalues.tobytes() == vals.tobytes()
    assert len(rep.eigenvectors) == len(coeffs)
    for i, want in enumerate(coeffs):
        assert rep.eigenvectors[i].coeffs.tobytes() == want.tobytes(), i


@pytest.mark.parametrize("n,h", GUARD_PROFILES)
def test_refinement_defect_stays_under_tolerance_plus_noise_floor(n, h):
    profile = elliptic.branch_point(n, h).profile
    rep = spectrum.eigen(profile)
    fine = np.linalg.eigvalsh(spectrum.assemble_operator(profile, 2 * rep.N))
    noise_floor = 16.0 * np.finfo(float).eps * float(np.abs(fine).max())
    assert rep.refinement_defect < spectrum.REFINEMENT_TOL + noise_floor


def test_eigenvectors_read_like_a_sequence():
    rep = spectrum.eigen(elliptic.equilibrium_profile(1, 0.05))
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
