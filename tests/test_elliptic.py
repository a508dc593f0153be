"""Equilibrium branch construction: eigenvalue series, profiles, rescaling."""

import math

import numpy as np
import pytest

from eternal_kit import elliptic
from eternal_kit.errors import DomainError, TruncationError

PI4 = math.pi ** 4


def test_sigma3_small_values():
    # sum of cubed divisors
    assert [elliptic.sigma3(k) for k in range(1, 7)] == [1, 9, 28, 73, 126, 252]


def test_sigma3_rejects_nonpositive():
    with pytest.raises(DomainError):
        elliptic.sigma3(0)


def test_lambda_at_h_zero_is_homogeneous_value():
    for n in (1, 2, 3, 5):
        assert elliptic.branch_point(n, 0.0).lam == pytest.approx(
            (2.0 / 3.0) * (n * math.pi) ** 4, rel=1e-15
        )


def test_lambda_frozen_value():
    # independently summed series, frozen
    assert elliptic.branch_point(1, 0.1, tail_tol=1e-16).lam == pytest.approx(
        235.2688192544334, rel=1e-12
    )


def test_lambda_even_in_h():
    for n in (1, 2):
        assert elliptic.branch_point(n, 0.08).lam == elliptic.branch_point(n, -0.08).lam


def test_lambda_strictly_increasing_in_modulus():
    lams = [elliptic.branch_point(1, h).lam for h in (0.0, 0.02, 0.05, 0.1, 0.2)]
    assert all(a < b for a, b in zip(lams, lams[1:]))


def test_lambda_scales_as_fourth_power_of_branch_index():
    # lambda_n(h) = n^4 lambda_1(h) follows from the series term by term
    l1 = elliptic.branch_point(1, 0.07).lam
    l3 = elliptic.branch_point(3, 0.07).lam
    assert l3 == pytest.approx(81.0 * l1, rel=1e-13)


def test_modulus_domain_is_open_unit_interval():
    with pytest.raises(DomainError):
        elliptic.branch_point(1, 1.0)
    with pytest.raises(DomainError):
        elliptic.branch_point(1, -1.2)
    with pytest.raises(DomainError):
        elliptic.branch_point(1, float("nan"))


def test_branch_index_must_be_positive_integer():
    with pytest.raises(DomainError):
        elliptic.branch_point(0, 0.1)
    with pytest.raises(DomainError):
        elliptic.branch_point(-2, 0.1)


def test_truncation_cap_raises_when_tail_cannot_certify():
    with pytest.raises(TruncationError, match=f"within K <= {elliptic.K_MAX}"):
        elliptic.default_truncation(0.999, tail_tol=1e-13)


@pytest.mark.parametrize("tail_tol", [0.0, -1e-13, float("nan"), float("inf")])
def test_truncation_needs_a_finite_positive_tolerance(tail_tol):
    # a tolerance of 0 was "certified" once the geometric bound underflowed
    for h in (0.1, 0.0):
        with pytest.raises(DomainError):
            elliptic.default_truncation(h, tail_tol)


def test_profile_frozen_coefficients():
    prof = elliptic.branch_point(1, 0.1, tail_tol=1e-16).profile
    assert prof.coeffs[1] == pytest.approx(7.9754378998701885, rel=1e-12)
    assert prof(0.0) == pytest.approx(12.303961307223076, rel=1e-12)


def test_profile_mean_coefficient_matches_eta():
    prof = elliptic.branch_point(1, 0.1, tail_tol=1e-16).profile
    eta = 0.2509007684366812  # 1/3 - 8 sum k h^(2k) / (1 - h^(2k)) at h = 0.1
    assert prof.coeffs[0] == pytest.approx(math.pi ** 2 * eta, rel=1e-12)


def test_profile_h_zero_is_constant():
    prof = elliptic.branch_point(2, 0.0).profile
    assert prof.K == 0
    assert prof.coeffs[0] == pytest.approx((2 * math.pi) ** 2 / 3.0, rel=1e-15)


def test_profile_modes_live_on_multiples_of_n():
    prof = elliptic.branch_point(3, 0.1).profile
    nz = np.nonzero(np.abs(prof.coeffs) > 0)[0]
    assert len(nz) > 3
    assert all(j % 3 == 0 for j in nz[1:])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("h", [0.0, 0.05, -0.05, 0.1, -0.1])
def test_equilibrium_residual_small(n, h):
    bp = elliptic.branch_point(n, h, tail_tol=1e-16)
    assert elliptic.residual(bp.profile, bp.lam) < 1e-9


def test_residual_detects_wrong_lambda():
    bp = elliptic.branch_point(1, 0.05)
    good = elliptic.residual(bp.profile, bp.lam)
    bad = elliptic.residual(bp.profile, bp.lam * 1.01)
    assert bad > 100 * good


def test_rescale_maps_branch_to_branch():
    """Rescaling by m sends the branch-1 profile onto branch m."""
    bp1 = elliptic.branch_point(1, 0.08, tail_tol=1e-15)
    scaled, lam_scaled = elliptic.rescale(bp1.profile, 3, bp1.lam)
    bp3 = elliptic.branch_point(3, 0.08, tail_tol=1e-15)
    assert lam_scaled == pytest.approx(bp3.lam, rel=1e-13)
    assert scaled.K == bp3.profile.K
    assert np.allclose(scaled.coeffs, bp3.profile.coeffs, rtol=1e-12, atol=1e-10)


def test_homogeneous_equilibria_signs():
    lo, hi = elliptic.homogeneous_equilibria(6.0)
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(1.0)
    with pytest.raises(DomainError):
        elliptic.homogeneous_equilibria(-1.0)


def test_theta_of_h_inverts_modulus():
    theta = elliptic.branch_point(1, 0.1).theta
    assert math.exp(-math.pi * theta) == pytest.approx(0.1, rel=1e-15)
    assert elliptic.branch_point(1, 0.0).theta == math.inf


def test_branch_point_theta_sign_blind():
    assert elliptic.branch_point(1, -0.1).theta == elliptic.branch_point(1, 0.1).theta


def test_branch_sweep_preserves_order():
    hs = [-0.1, 0.0, 0.1]
    pts = [elliptic.branch_point(1, h) for h in hs]
    assert [p.h for p in pts] == hs
    assert pts[1].lam < pts[0].lam == pts[2].lam


class TestCosineSeries:
    def test_evaluation_matches_direct_sum(self):
        s = elliptic.CosineSeries(np.array([1.0, 0.5, -0.25]))
        x = 0.3
        direct = 1.0 + 0.5 * math.cos(2 * math.pi * x) - 0.25 * math.cos(4 * math.pi * x)
        assert s(x) == pytest.approx(direct, rel=1e-15)

    def test_product_matches_pointwise(self):
        rng = np.random.default_rng(7)
        a = elliptic.CosineSeries(rng.normal(size=4))
        b = elliptic.CosineSeries(rng.normal(size=3))
        prod = elliptic.cosine_product(a, b)
        xs = np.linspace(0.0, 0.5, 17)
        assert np.allclose(prod(xs), a(xs) * b(xs), atol=1e-14)

    def test_l2_norm_matches_quadrature(self):
        s = elliptic.CosineSeries(np.array([0.3, -1.1, 0.0, 0.7]))
        xs = np.linspace(0.0, 0.5, 20001)
        quad = math.sqrt(np.trapezoid(s(xs) ** 2, xs))
        assert s.l2_norm() == pytest.approx(quad, rel=1e-7)

    def test_second_derivative(self):
        s = elliptic.CosineSeries(np.array([2.0, 1.0]))
        d2 = elliptic.second_derivative(s)
        assert d2.coeffs[0] == 0.0
        assert d2.coeffs[1] == pytest.approx(-((2 * math.pi) ** 2), rel=1e-15)


def test_branch_point_certifies_one_truncation(monkeypatch):
    # lambda and the profile are cut at the same K, searched once per point
    calls, search = [], elliptic.default_truncation
    monkeypatch.setattr(elliptic, "default_truncation", lambda h, tol: calls.append(h) or search(h, tol))
    bp = elliptic.branch_point(2, 0.1)
    assert calls == [0.1]
    assert bp.profile.K == 2 * search(0.1)
