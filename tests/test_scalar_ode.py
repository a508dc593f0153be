"""Complex-time scalar ODE integration, period lattices, closure classification."""

import hashlib
import math

import numpy as np
import pytest

from eternal_kit import scalar_ode as so
from eternal_kit.errors import DomainError, PoleSignal

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_quadratic_orbit_is_minus_tanh():
    ts = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(so.quadratic_orbit(ts), -np.tanh(ts), atol=1e-15)
    assert isinstance(so.quadratic_orbit(0.5), float)


def test_quadratic_orbit_complex_and_pole_guard():
    val = so.quadratic_orbit(0.25j)
    assert val == pytest.approx(-1j * math.tan(0.25), abs=1e-15)
    with pytest.raises(PoleSignal):
        so.quadratic_orbit(1j * math.pi / 2)
    with pytest.raises(PoleSignal):
        so.quadratic_orbit(1j * (math.pi / 2 + math.pi))


class TestPolyField:
    def test_rejects_near_duplicate_roots(self):
        with pytest.raises(DomainError):
            so.PolyField(np.array([1.0, 1.0 + 1e-10]))

    def test_coeffs_match_numpy_poly(self):
        fld = so.PolyField.cyclotomic(3)
        assert np.allclose(fld.coeffs, [1, 0, 0, -1], atol=1e-14)

    def test_evaluation(self):
        fld = so.PolyField.quadratic()
        assert fld(3.0) == pytest.approx(8.0)
        assert np.allclose(fld(np.array([0.0, 2.0])), [-1.0, 3.0])

    def test_residues_sum_to_zero(self):
        for fld in (so.PolyField.quadratic(),
                    so.PolyField.cyclotomic(3),
                    so.PolyField(np.array([0.3, 1.7 + 0.2j, -2.0 - 1j]))):
            assert abs(fld.eta.sum()) < 1e-14

    def test_cyclotomic_residues_are_roots_over_d(self):
        fld = so.PolyField.cyclotomic(5)
        assert np.allclose(fld.eta, fld.roots / 5.0, atol=1e-14)


def test_integrate_real_time_matches_tanh():
    traj = so.integrate(so.PolyField.quadratic(), 0.0, [5.0], t_eval_per_unit=40)
    assert not traj.diverged
    assert np.abs(traj.w - (-np.tanh(traj.sigma))).max() < 1e-9


def test_integrate_tilted_segment_matches_continuation():
    target = 1.0 + 0.5j
    traj = so.integrate(so.PolyField.quadratic(), 0.0, [target])
    assert abs(traj.w[-1] - so.quadratic_orbit(target)) < 1e-9
    assert traj.t[-1] == pytest.approx(target, abs=1e-12)


def test_imaginary_time_from_zero_passes_pole_at_half_pi():
    traj = so.integrate(so.PolyField.quadratic(), 0.0, [1j * math.pi],
                        t_eval_per_unit=40)
    assert not traj.diverged
    assert traj.chart_swaps == 2
    crossings = [s for s, _ in traj.sup_crossings]
    assert len(crossings) == 1
    assert crossings[0] == pytest.approx(math.pi / 2, abs=1e-3)
    assert abs(traj.w[-1] - 0.0) < 1e-7


def test_imaginary_time_circle_from_i():
    traj = so.integrate(so.PolyField.quadratic(), 1j, [1j * math.pi],
                        t_eval_per_unit=40)
    crossings = [s for s, _ in traj.sup_crossings]
    assert crossings == [pytest.approx(3 * math.pi / 4, abs=1e-6)]
    assert abs(traj.w[-1] - 1j) < 1e-7


def test_real_time_pole_passage_is_regularized_on_sphere():
    # from w0 = 1.5 the orbit reaches infinity at atanh(2/3) and comes back
    traj = so.integrate(so.PolyField.quadratic(), 1.5, [2.0], t_eval_per_unit=40)
    assert not traj.diverged
    exact = math.atanh(1.0 / 1.5)
    assert [s for s, _ in traj.sup_crossings] == [pytest.approx(exact, abs=1e-6)]
    # continuation beyond the pole: -coth branch
    assert traj.w[-1] == pytest.approx(-1.0 / math.tanh(2.0 - exact), abs=1e-9)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_higher_degree_blowup_is_reported_finite(d):
    fld = so.PolyField.cyclotomic(d)
    traj = so.integrate(fld, fld.roots[0] + 0.25, [3.0], t_eval_per_unit=50)
    assert traj.diverged
    assert traj.blowup_sigma is not None and 0.0 < traj.blowup_sigma < 1.0
    assert traj.blowup_t is not None


def test_cubic_blowup_time_against_quadrature():
    # dw/dt = w^3 - 1 from 1.3: t* = integral of dw/(w^3-1)
    from scipy.integrate import quad
    t_star = quad(lambda w: 1.0 / (w ** 3 - 1.0), 1.3, np.inf)[0]
    traj = so.integrate(so.PolyField.cyclotomic(3), 1.3, [2.0])
    assert traj.diverged
    assert traj.blowup_sigma == pytest.approx(t_star, abs=1e-4)



@pytest.mark.parametrize("d, w0", [(3, 1.3), (5, 1.25)])
@pytest.mark.parametrize("per_unit", [0, 5, 50])
def test_sampled_blowup_time_is_the_solvers_last_step(d, w0, per_unit):
    # samples stop short of a min-step failure; the blow-up time is the
    # solver's own last step whether or not samples are asked for
    from scipy.integrate import quad
    t_star = quad(lambda w: 1.0 / (w ** d - 1.0), w0, np.inf)[0]
    traj = so.integrate(so.PolyField.cyclotomic(d), w0, [2.0], t_eval_per_unit=per_unit)
    assert traj.diverged
    assert traj.blowup_sigma == pytest.approx(t_star, abs=1e-5)
    assert traj.blowup_sigma == so.integrate(so.PolyField.cyclotomic(d), w0, [2.0]).blowup_sigma


@pytest.mark.parametrize("per_unit", [0, 10])
def test_start_beyond_the_far_field_blows_up(per_unit):
    # |w0| = 100 is past the far-field radius 20, so that event never fires
    traj = so.integrate(so.PolyField.cyclotomic(3), 100.0, [1.0], t_eval_per_unit=per_unit)
    assert traj.diverged
    # the pole of w^3 - 1 from 100 is about 1 / (2 * 100^2) away
    assert traj.blowup_sigma == pytest.approx(5e-5, rel=1e-4)


@pytest.mark.parametrize("w0, path, per_unit", [
    (math.nan, [1.0], 0),
    (complex(0.0, math.inf), [1.0], 0),
    (0.0, [1.0, complex(math.nan, 0.0)], 0),
    (0.0, [complex(math.inf, 0.0)], 0),
    (0.0, [1.0], -1),
], ids=["nan-start", "infinite-start", "nan-waypoint", "infinite-waypoint",
        "negative-samples"])
def test_integrate_refuses_non_finite_input(w0, path, per_unit):
    with pytest.raises(DomainError):
        so.integrate(so.PolyField.quadratic(), w0, path, t_eval_per_unit=per_unit)

def _hex(z):
    """Bit-exact text of a float, a complex or None."""
    if z is None:
        return "None"
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


class TestIntegrateBytes:
    # Every sample, event and end state of `integrate` to the last bit, over
    # each of its paths: the w chart alone, swaps into the v chart and back,
    # a start in the v chart, several segments, escape past ESCAPE_RADIUS,
    # a min-step failure that only the far-field event witnesses, and a quartic
    # run whose rejected trial step overflows: under the suite's warnings-as-errors
    # filter it ends undiverged, with the bytes it has when warnings are ignored.

    @staticmethod
    def _digest(traj):
        h = hashlib.sha256()
        for arr in (traj.t, traj.w, traj.sigma):
            h.update(arr.tobytes())
        h.update(repr((_hex(traj.final), traj.diverged, _hex(traj.blowup_sigma),
                       _hex(traj.blowup_t), traj.chart_swaps)).encode())
        for s, t in traj.sup_crossings:
            h.update(f"{_hex(s)};{_hex(t)}".encode())
        return h.hexdigest()

    QUADRATIC = so.PolyField.quadratic()
    CUBIC = so.PolyField.cyclotomic(3)
    QUARTIC = so.PolyField.cyclotomic(4)
    QUINTIC = so.PolyField.cyclotomic(5)

    @pytest.mark.parametrize("fld, w0, path, per_unit, want", [
        (QUADRATIC, 0.0, [5.0], 40,
         "6139000dc7cdd25162008ba542df43c0f553af53b4796b03e18dd70d5cea1381"),
        (QUADRATIC, 0.0, [1.0 + 0.5j], 0,
         "9ceeecdd40c18c49e3efe4e6c62706456eecef906772902bf092418b0072e1bf"),
        (QUADRATIC, 1.5, [2.0], 0,
         "fc801b30feb15dfca285e1432ea0c4dbad80a0ef4ae8a156cc2b0c1ef1a198a4"),
        (QUADRATIC, 0.0, [1j * math.pi], 40,
         "68f2b0d66f59353a0c932083ae9eecbaddfae47fb899fb1b08d6a2a91f42839c"),
        (QUADRATIC, 1j, [1j * math.pi], 0,
         "3d13f1bdad0483130f257fbc52872d493dbc92caab1d0e882c75e174e42eb60a"),
        (QUADRATIC, 5.0 + 1j, [1.0, 1.0 + 2j], 0,
         "412f70378a3c0aca365d9db3388ae86d711468ccefec2117bc74424f88dd9d0d"),
        (QUADRATIC, 0.0, [1j, 2j, 2j, 0.05 + 4.5j, 4.5j], 10,
         "b21f923c2954312e9b11b4431a848d04e57c29ccb7b8bd538acd7e46cdb9ca3e"),
        (CUBIC, 1e7, [1.0], 0,
         "64e9ad865cc0a036f9b22d5d1fc63dbcec366befb810d8442c4d5b452b7e5169"),
        (CUBIC, 1.3, [2.0], 0,
         "cdec2c72e91aa009f6cea87af8d1df2f43a898e621d69085acecfabd3be95c42"),
        (QUINTIC, QUINTIC.roots[0] + 0.25, [3.0], 50,
         "2e6321326c8b19a03adadda8cd7927f3aa275b7fbef8ea4319a27360a87a92cb"),
        (QUARTIC, -5.94 + 1.01j, [-1.79 - 1.06j], 0,
         "93ffe7d50d85ffe0968744ec235cd77a8ff8b19c30b55962b3f4c2dbde46efbf"),
    ], ids=["real-sampled", "tilted", "real-pole", "imag-sampled", "imag",
            "v-start", "segments", "cubic-escape", "cubic-min-step",
            "quintic-far-field", "quartic-overflowing-trial-step"])
    def test_trajectory(self, fld, w0, path, per_unit, want):
        traj = so.integrate(fld, w0, path, t_eval_per_unit=per_unit)
        assert self._digest(traj) == want


def test_period_lattice_quadratic_is_rank_one():
    lat = so.period_lattice(so.PolyField.quadratic())
    assert lat.closure == "Z"
    assert np.allclose(sorted(g.imag for g in lat.generators), [-math.pi, math.pi])
    assert all(abs(g.real) < 1e-14 for g in lat.generators)
    assert lat.degenerate_subsets == []


def test_period_lattice_cyclotomic():
    lat3 = so.period_lattice(so.PolyField.cyclotomic(3))
    assert lat3.closure == "Z2"
    assert lat3.degenerate_subsets == []
    lat4 = so.period_lattice(so.PolyField.cyclotomic(4))
    assert lat4.closure == "Z2"
    assert set(lat4.degenerate_subsets) == {(0, 2), (1, 3)}
    mags = sorted(abs(g) for g in lat4.generators)
    assert mags[0] == pytest.approx(math.pi / 2, rel=1e-12)


def test_degeneracy_scan_cyclotomic_examples():
    assert so.degeneracy_scan(so.PolyField.quadratic()) == []
    assert so.degeneracy_scan(so.PolyField.cyclotomic(3)) == []
    subsets = so.degeneracy_scan(so.PolyField.cyclotomic(4))
    assert set(subsets) == {(1,), (3,), (0, 2), (1, 3), (0, 1, 2), (0, 2, 3)}


def test_degeneracy_scan_pairs_complements():
    subsets = so.degeneracy_scan(so.PolyField.cyclotomic(4))
    full = frozenset(range(4))
    family = {frozenset(J) for J in subsets}
    assert all(full - J in family for J in family)


CENTERLESS_DEGENERATE_ROOTS = np.array([
    0.2928180327734897 - 1.904270412342163j,
    -1.6441335387075102 - 0.5038359357635982j,
    1.3732652974638344 + 0.45894352067964594j,
    1.4914185952804557 - 0.9248174112872558j,
])


def test_degeneracy_scan_catches_centerless_pairs():
    fld = so.PolyField(CENTERLESS_DEGENERATE_ROOTS)
    assert np.abs(fld.eta.real).min() > 0.03   # no center anywhere
    assert set(so.degeneracy_scan(fld)) == {(0, 1), (2, 3)}


class TestClosureClassifier:
    @pytest.mark.parametrize("gens,want", [
        ([2j], "Z"),
        ([1.0, 0.5], "Z"),
        ([1.0, 7.0 / 3.0], "Z"),
        ([1j * math.pi, -math.pi], "Z2"),
        ([1 + 1j, 2 - 1j], "Z2"),
        ([1.0, 1j * math.e], "Z2"),
        ([1.0, math.sqrt(2.0)], "R"),
        ([1.0, GOLDEN], "R"),
        ([1.0, math.sqrt(2.0), 1j], "RxZ"),
        ([1.0, math.sqrt(2.0), 1j, 1j * math.sqrt(3.0)], "R2"),
    ])
    def test_exact_families(self, gens, want):
        assert so.classify_subgroup_closure(gens) == want

    @pytest.mark.parametrize("gens", [
        [1.0, 355.0 / 113.0 + 1e-9],
        [1.0, (1.0 + 1e-9) / 3.0],
    ])
    def test_near_rational_is_ambiguous(self, gens):
        """A ratio within working precision of a low rational gets flagged,
        not guessed."""
        assert so.classify_subgroup_closure(gens) == "AMBIGUOUS"

    def test_quadratic_irrational_survives_good_convergents(self):
        # golden ratio convergents approach like 1/q^2; the classifier must
        # not mistake that for rationality at any height
        assert so.classify_subgroup_closure([2.0, 2.0 * GOLDEN]) == "R"
