"""Traveling-wave closed forms: soliton, decay rates, resonant speeds."""

import cmath
import math

import numpy as np
import pytest

from eternal_kit import waves
from eternal_kit.errors import DomainError, PoleSignal

SQRT2 = math.sqrt(2.0)


def cauchy_derivative(f, x, order, radius=1.0, nodes=64):
    """k-th derivative of an analytic function from a circle of samples."""
    phis = 2.0 * math.pi * (np.arange(nodes) + 0.5) / nodes
    ring = f(x + radius * np.exp(1j * phis)[:, None])
    weights = np.exp(-1j * order * phis)[:, None]
    return (math.factorial(order) / radius ** order) * (weights * ring).mean(axis=0)


def test_soliton_peak_and_tails():
    assert waves.soliton(0.0) == pytest.approx(2.0, rel=1e-15)
    assert waves.soliton(40.0) == pytest.approx(-1.0, abs=1e-15)
    assert waves.soliton(-40.0) == pytest.approx(-1.0, abs=1e-15)


def test_soliton_profile_equation_residual():
    xs = np.linspace(-8.0, 8.0, 1000)
    W = waves.soliton(xs)
    W2 = cauchy_derivative(waves.soliton, xs, 2).real
    residual = np.abs(W2 + W * W - 1.0)
    assert residual.max() < 1e-11


def test_soliton_first_integral():
    # W'^2 / 2 = W - W^3/3 + 2/3 along the homoclinic orbit
    xs = np.linspace(-5.0, 5.0, 301)
    W = waves.soliton(xs)
    W1 = cauchy_derivative(waves.soliton, xs, 1).real
    lhs = W1 ** 2 / 2.0
    rhs = W - W ** 3 / 3.0 + 2.0 / 3.0
    assert np.abs(lhs - rhs).max() < 1e-11


def test_soliton_complex_evaluation_grows_near_pole():
    pole = waves.soliton_poles()[0]
    val = waves.soliton(pole + 0.3)
    assert abs(val) > 50


def test_soliton_pole_guard():
    with pytest.raises(PoleSignal):
        waves.soliton(waves.soliton_poles()[0])


def test_soliton_poles_locations():
    poles = waves.soliton_poles()
    assert poles[0] == pytest.approx(1j * math.pi / SQRT2)
    for p in poles:
        assert abs(cmath.cosh(p / SQRT2)) < 1e-12


def test_wave_params_standing():
    wp = waves.wave_params(0.0)
    assert wp.mu_minus == pytest.approx(SQRT2, abs=1e-12)
    assert wp.p == pytest.approx(math.pi * SQRT2, abs=1e-12)
    assert wp.oscillatory


def test_wave_params_unit_speed_period():
    assert waves.wave_params(1.0).p == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_wave_params_characteristic_products():
    for c in np.linspace(0.0, 4.0, 9):
        wp = waves.wave_params(float(c))
        # at W = -1 the rates solve mu^2 + c mu - 2 = 0
        assert wp.mu_minus ** 2 + c * wp.mu_minus - 2.0 == pytest.approx(0.0, abs=1e-12)
        # at W = +1 the pair solves mu^2 + c mu + 2 = 0 (product +2, sum -c)
        prod = wp.mu_plus[0] * wp.mu_plus[1]
        assert prod == pytest.approx(2.0, abs=1e-12)
        assert wp.mu_plus[0] + wp.mu_plus[1] == pytest.approx(-c, abs=1e-12)
        assert wp.p == pytest.approx(2.0 * math.pi / wp.mu_minus, rel=1e-15)


def test_oscillatory_flag_switches_at_critical_speed():
    assert waves.wave_params(waves.C_CRITICAL - 1e-9).oscillatory
    assert not waves.wave_params(waves.C_CRITICAL).oscillatory
    wp = waves.wave_params(waves.C_CRITICAL)
    # double root: sqrt(c^2 - 8) amplifies the rounding of c^2 to ~5e-8
    assert wp.mu_plus[0] == pytest.approx(-SQRT2, abs=1e-7)
    assert wp.mu_plus[1] == pytest.approx(-SQRT2, abs=1e-7)


def test_resonant_speed_values():
    speeds = dict(waves.resonant_speeds(4))
    assert speeds[1] == pytest.approx(2.0 * SQRT2, rel=1e-15)
    assert speeds[2] == pytest.approx(3.0, rel=1e-15)
    assert speeds[4] == pytest.approx(2.5 * SQRT2, rel=1e-15)
    vals = [c for _, c in waves.resonant_speeds(8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_resonant_speeds_give_integer_rate_ratio():
    for m, cm in waves.resonant_speeds(5):
        wp = waves.wave_params(cm)
        rates = sorted((r.real for r in wp.mu_plus), reverse=True)
        assert abs(wp.mu_plus[0].imag) < 1e-12
        # m = 1 sits at the double root where the ratio is ill-conditioned
        rel = 1e-6 if m == 1 else 1e-9
        assert rates[1] / rates[0] == pytest.approx(m, rel=rel)


def test_resonance_order_detection():
    assert waves.resonance_order(3.0) == 2
    assert waves.resonance_order(2.0 * SQRT2) == 1
    assert waves.resonance_order(3.1) is None
    assert waves.resonance_order(0.0) is None


def test_resonant_speeds_validates_input():
    with pytest.raises(DomainError):
        waves.resonant_speeds(0)
