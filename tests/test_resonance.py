"""Exact Diophantine resonance certificates and worst-case geometry."""

import math

import pytest

from eternal_kit import resonance
from eternal_kit.errors import DomainError


@pytest.mark.parametrize("n", range(1, 23))
def test_no_identical_resonance_through_n_22(n):
    cert = resonance.identical_resonance_check(n)
    assert cert.verdict == resonance.VERDICT_NO
    assert cert.witnesses == []


def test_search_bound_formula():
    for n in (1, 2, 3, 4, 5, 22):
        cert = resonance.identical_resonance_check(n)
        assert cert.search_bound == math.ceil(n * n / (2 * n - 1))


def test_order_filters_shrink_survivors_monotonically():
    cert = resonance.identical_resonance_check(5)
    s0, s1, s2 = cert.survivors[0], cert.survivors[1], cert.survivors[2]
    assert set(s2) <= set(s1) <= set(s0)
    # at n = 5 the order-0 stage has live candidates which order 2 kills
    assert len(s0) > 0
    assert s2 == []


def test_order1_filter_vacuous_exactly_for_odd_n():
    for n in range(1, 9):
        cert = resonance.identical_resonance_check(n)
        assert cert.order1_vacuous == (n % 2 == 1)
        if cert.order1_vacuous:
            assert cert.survivors[1] == cert.survivors[0]


def test_order0_survivors_satisfy_weight_equation():
    cert = resonance.identical_resonance_check(6)
    for j, m in cert.survivors[0]:
        assert sum(c * (36 - k * k) for k, c in enumerate(m)) == 36 - j * j
        assert sum(m) >= 2


def test_enlarged_bound_finds_nothing_new():
    """Soundness of the certified |m| bound: a search 3 past it finds the same order-0 set."""
    for n in (2, 3, 5, 8):
        cert = resonance.identical_resonance_check(n)
        weights = [n * n - k * k for k in range(n)]
        wide = [(j, m) for j in range(n)
                for m in resonance._order0_solutions(weights, n * n - j * j, cert.search_bound + 3)]
        assert wide == cert.survivors[0]


def test_every_certificate_holds_all_three_orders():
    for n in (1, 4, 5, 8):
        cert = resonance.identical_resonance_check(n)
        assert sorted(cert.survivors) == list(resonance.ORDERS) == [0, 1, 2]
        assert cert.witnesses is cert.survivors[2]


def test_block_size_validation():
    # the block is the whole unstable block of branch n, so n alone is checked
    with pytest.raises(DomainError):
        resonance.identical_resonance_check(0)


def test_fast_bound_gap_argument():
    assert resonance.fast_bound_check(5, 3)
    assert not resonance.fast_bound_check(29, 22)
    assert resonance.fast_bound_check(22, 16)
    assert not resonance.fast_bound_check(22, 17)
    # boundary: 2 (d-1)^2 < n^2 with d - 1 = floor(n / sqrt 2)
    assert resonance.fast_bound_check(10, 8)
    assert not resonance.fast_bound_check(10, 9)


def test_pythagorean_worst_cases_first_tuples():
    cases = resonance.pythagorean_worst_cases(3)
    assert cases[0] == (5, 2, 29, 22)
    assert cases[1] == (12, 5, 169, 121)
    assert cases[2] == (29, 12, 985, 698)


@pytest.mark.parametrize("count", [1, 4])
def test_pythagorean_identity_and_tightness(count):
    for a, b, n, d in resonance.pythagorean_worst_cases(count):
        assert (d - 2) ** 2 + (d - 1) ** 2 == n * n
        assert d >= 1 + n / math.sqrt(2.0)
        # just past the gap bound, by exactly one odd integer
        assert 2 * (d - 1) ** 2 - n * n == 2 * (d - 2) + 1
        assert a * a + b * b == n


def test_resonant_lambda_sequence():
    pairs = resonance.homogeneous_resonant_lambdas(1, 5)
    assert [m for m, _ in pairs] == [2, 3, 4, 5]
    assert pairs[0][1] == pytest.approx((8.0 / 3.0) * math.pi ** 4, rel=1e-15)
    lams = [lam for _, lam in pairs]
    assert all(x > y for x, y in zip(lams, lams[1:]))
    assert lams[-1] > (2.0 / 3.0) * math.pi ** 4


def test_resonant_lambda_scales_with_n_fourth():
    l1 = dict(resonance.homogeneous_resonant_lambdas(1, 4))
    l3 = dict(resonance.homogeneous_resonant_lambdas(3, 4))
    assert l3[2] == pytest.approx(81.0 * l1[2], rel=1e-15)
