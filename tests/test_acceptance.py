"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Each test is independent and self-contained; the terminal summary prints one
PASS/FAIL line per criterion (see conftest.py).
"""

import math
import time

import numpy as np
import pytest

from eternal_kit import (
    elliptic,
    evolve,
    portraits,
    resonance,
    scalar_ode,
    spectrum,
    waves,
)
from tests.test_cli import parse_csv, run_cli

TREE_COUNTS = [1, 1, 2, 3, 6, 14, 34, 95, 280, 854, 2694, 8714, 28640,
               95640, 323396]  # d = 2 .. 16


def test_c01_no_identical_resonance():
    """resonance --n-max 22 certifies every n in under a minute."""
    t0 = time.time()
    rc, out, _ = run_cli(["resonance", "--n-max", "22"])
    elapsed = time.time() - t0
    assert rc == 0
    _, rows = parse_csv(out)
    assert len(rows) == 23
    for row in rows[:22]:
        assert row["verdict"] == resonance.VERDICT_NO
        assert row["orders"] == "0+1+2"
        assert row["witnesses"] == ""
    # n = 23 is reported for context, one past --n-max.
    assert rows[22]["n"] == "23"
    for row in rows:
        n, d = int(row["n"]), int(row["fast_d_max"])
        assert resonance.fast_bound_check(n, d)
        assert d == n or not resonance.fast_bound_check(n, d + 1)
    assert elapsed < 60.0


def test_c02_pythagorean_worst_cases():
    """First worst-case tuples are exact and obey the defining identity."""
    cases = resonance.pythagorean_worst_cases(3)
    assert cases[0] == (5, 2, 29, 22)
    assert cases[1] == (12, 5, 169, 121)
    for a, b, n, d in cases:
        assert a * a + b * b == n
        assert (d - 2) ** 2 + (d - 1) ** 2 == n * n
        assert d >= 1 + n / math.sqrt(2.0)


def test_c03_tree_census():
    """Counts for d = 2..16 match and agree with enumeration for d <= 12."""
    t0 = time.time()
    counts = [portraits.count_portraits(d) for d in range(2, 17)]
    assert counts == TREE_COUNTS
    for d in range(2, 13):
        assert len(portraits.enumerate_diagrams(d)) == TREE_COUNTS[d - 2]
    assert time.time() - t0 < 30.0


def test_c04_branch_correctness():
    """Branch profiles solve the equilibrium equation to 1e-9 above onset."""
    for n in (1, 2, 3):
        lam_onset = (2.0 / 3.0) * (n * math.pi) ** 4
        for h in (0.0, 0.05, -0.05, 0.1, -0.1):
            bp = elliptic.branch_point(n, h, tail_tol=1e-16)
            assert elliptic.residual(bp.profile, bp.lam) < 1e-9
            if h == 0.0:
                assert bp.lam == pytest.approx(lam_onset, rel=1e-14)
            else:
                assert bp.lam > lam_onset
        # lambda returns to the onset value quadratically as h -> 0.
        gaps = [elliptic.branch_point(n, h, tail_tol=1e-16).lam - lam_onset
                for h in (0.04, 0.02, 0.01)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert gaps[1] / gaps[0] == pytest.approx(0.25, rel=0.05)
        assert gaps[2] / gaps[1] == pytest.approx(0.25, rel=0.05)


def test_c05_spectral_agreement():
    """Galerkin spectra match closed forms, perturbation theory, and the
    n-fold Morse index."""
    # Homogeneous equilibria: discretized operator vs the exact formula.
    for lam in (6.0, 100.0, (2.0 / 3.0) * math.pi ** 4):
        for sign, eq in ((1.0, "upper"), (-1.0, "lower")):
            prof = elliptic.CosineSeries([sign * math.sqrt(lam / 6.0)])
            rep = spectrum.eigen(prof, N=48)
            exact = spectrum.homogeneous_spectrum(lam, count=8, equilibrium=eq)
            assert np.max(np.abs(rep.eigenvalues[:8] - exact)) < 1e-10

    # Along the branches the defect against the quadratic model decays
    # like h^3.
    hs = np.array([0.02, 0.04, 0.08])
    for n, k in ((1, 0), (2, 0), (2, 1), (3, 0)):
        defects = []
        for h in hs:
            rep = spectrum.eigen(elliptic.branch_point(n, h).profile)
            defects.append(abs(rep.eigenvalues[k] - spectrum.perturbation_mu(n, k, h)))
        slope = np.polyfit(np.log(hs), np.log(defects), 1)[0]
        assert slope >= 2.7

    # Morse index of W_n is n.
    for n in range(1, 7):
        rep = spectrum.eigen(elliptic.branch_point(n, 0.02).profile)
        assert rep.morse_index == n


def test_c06_scalar_ode_closed_forms():
    """Quadratic flow reproduces -tanh, its vertical pole, and the
    imaginary-time period."""
    fld = scalar_ode.PolyField.quadratic()

    traj = scalar_ode.integrate(fld, 0.0, [5.0], t_eval_per_unit=40)
    err = np.max(np.abs(traj.w - (-np.tanh(traj.sigma))))
    assert err < 1e-8

    vert = scalar_ode.integrate(fld, 0.0, [2.0j], t_eval_per_unit=40)
    assert vert.sup_crossings
    s_cross = vert.sup_crossings[0][0]
    assert math.pi / 2.0 - 1e-3 < s_cross < math.pi / 2.0 + 1e-3

    for u in (0.0, 0.3, 1.5):
        loop = scalar_ode.integrate(fld, u, [1j * math.pi], t_eval_per_unit=8)
        assert abs(loop.final - u) < 1e-7


def test_c07_blowup_heteroclinic_dichotomy():
    """The two unstable directions at W_1(0.1) split into a monotone
    heteroclinic and a finite-time blow-up."""
    down = evolve.heteroclinic_shoot(1, 0.1, "-", N=128, err_target=1e-8)
    assert down.outcome == "converged"
    assert down.final_distance < 1e-6
    assert down.monotone

    up = evolve.heteroclinic_shoot(1, 0.1, "+", N=128, r_max=6.0,
                                   err_target=1e-8)
    assert up.outcome == "blowup"
    assert up.record is not None and up.record.diverged
    assert math.isfinite(up.record.r_star_lower)
    assert 0.0 < up.record.r_star_lower < 6.0


def test_c08_schrodinger_structure():
    """Vertical rays are conjugate-reversible and monochromatic data is
    1/(2 pi) periodic."""
    psi0 = evolve.cosine_field([0.3, 0.2 + 0.1j, 0.05j], N=64)
    fwd = evolve.schrodinger_evolve(psi0.conjugate(), [0.05], 3.0,
                                    err_target=1e-9)
    bwd = evolve.schrodinger_evolve(psi0, [-0.05], 3.0, err_target=1e-9)
    diff = fwd.fields[0].coeffs - bwd.fields[0].conjugate().coeffs
    assert evolve.ComplexField(diff, psi0.basis).h1_norm() < 1e-7

    amp = math.pi ** 2
    period = 1.0 / (2.0 * math.pi)
    mono = evolve.monochromatic_field(amp, N=64)
    run = evolve.schrodinger_evolve(mono, [period], 0.0, err_target=1e-8)
    assert run.status == evolve.REASON_HORIZON
    back = run.fields[0].coeffs - mono.coeffs
    assert evolve.ComplexField(back, mono.basis).h1_norm() < 1e-6


@pytest.mark.filterwarnings("ignore:root .* linearly degenerate")
def test_c09_cyclotomic_portraits():
    """Cube roots give a Morse path portrait; fourth roots a non-Morse
    portrait with two centers."""
    g3 = portraits.trace_and_extract(scalar_ode.PolyField.cyclotomic(3))
    assert g3.classes.count(portraits.SOURCE) == 1
    assert g3.classes.count(portraits.SINK) == 2
    assert len(g3.saddle_angles) == 4
    assert not g3.non_morse
    assert g3.tree is not None
    degrees = sorted(len(v) for v in g3.tree.neighbors.values())
    assert degrees == [1, 1, 2]

    g4 = portraits.trace_and_extract(scalar_ode.PolyField.cyclotomic(4))
    assert g4.classes.count(portraits.SOURCE) == 1
    assert g4.classes.count(portraits.SINK) == 1
    assert g4.classes.count(portraits.CENTER) == 2
    assert len(g4.saddle_angles) == 6
    assert g4.non_morse


def test_c10_traveling_waves():
    """Standing parameters, resonant speeds, and the soliton profile."""
    wp = waves.wave_params(0.0)
    assert abs(wp.mu_minus - math.sqrt(2.0)) < 1e-12
    assert abs(wp.p - math.pi * math.sqrt(2.0)) < 1e-12

    speeds = waves.resonant_speeds(1)
    assert speeds == [(1, pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15))]

    # Residual of the profile equation at a thousand real offsets, with the
    # second derivative taken from the Cauchy integral formula on a circle
    # well inside the pole-free strip.
    xi = np.linspace(-8.0, 8.0, 1000)
    nodes = np.exp(2j * math.pi * (np.arange(64) + 0.5) / 64.0)
    vals = np.array([[waves.soliton(x + z) for z in nodes] for x in xi])
    second = np.real(2.0 * np.mean(vals / nodes ** 2, axis=1))
    W = np.array([waves.soliton(x) for x in xi])
    assert np.max(np.abs(second + W ** 2 - 1.0)) < 1e-11
