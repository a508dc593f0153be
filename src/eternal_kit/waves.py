"""Traveling-wave quantities for the rescaled profile equation.

In the frame xi = x - c t the normalized profile equation is

    W'' + c W' + W^2 - 1 = 0,

whose standing (c = 0) homoclinic solution is the soliton

    Gamma(xi) = -1 + 3 / cosh^2(xi / sqrt 2),

with complex poles at xi = i pi sqrt(2)/2 modulo i pi sqrt(2).  Linearizing
at the constant states gives the characteristic polynomials

    at W = -1:  mu^2 + c mu - 2   (roots of product -2, one positive)
    at W = +1:  mu^2 + c mu + 2   (roots of product +2, complex for c < 2 sqrt 2)

The positive rate mu_- = (-c + sqrt(c^2 + 8)) / 2 at W = -1 sets the spatial
period scale p = 2 pi / mu_-; the decaying pair mu_+ at W = +1 is oscillatory
below c = 2 sqrt 2 and resonates with ratio 1 : m exactly at

    c_m = sqrt(2) (sqrt(m) + 1 / sqrt(m)),

where the two decay rates are -sqrt(2) sqrt(m) and -sqrt(2) / sqrt(m).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleSignal

#: speed above which the decay at W = +1 stops being oscillatory
C_CRITICAL = 2.0 * math.sqrt(2.0)


def soliton(xi):
    """Standing soliton Gamma(xi) = -1 + 3 / cosh^2(xi / sqrt 2).

    Accepts finite real or complex scalars and arrays; nan or inf anywhere is
    a DomainError.  Evaluation where |cosh| is below 1e-12, next to a pole,
    raises PoleSignal instead of returning a huge number of unknowable
    accuracy.
    """
    z = np.asarray(xi, dtype=complex)
    if not np.isfinite(z).all():
        raise DomainError("soliton argument must be finite")
    c = np.cosh(z / math.sqrt(2.0))
    if np.any(np.abs(c) < 1e-12):
        raise PoleSignal("soliton evaluated within 1e-12 of a pole")
    vals = -1.0 + 3.0 / (c * c)
    if np.ndim(xi) == 0:
        v = complex(vals)
        return v.real if v.imag == 0.0 else v
    if np.isrealobj(np.asarray(xi)):
        return vals.real
    return vals


def soliton_poles() -> list[complex]:
    """First three poles on the positive imaginary axis: i pi sqrt2 (m + 1/2)."""
    return [1j * math.pi * math.sqrt(2.0) * (m + 0.5) for m in range(3)]


@dataclass
class WaveParams:
    """Linearization data of the traveling-wave profile equation at speed c."""

    c: float
    mu_minus: float          # positive rate at W = -1
    p: float                 # period scale 2 pi / mu_minus
    mu_plus: tuple[complex, complex]  # decaying pair at W = +1
    oscillatory: bool        # True iff c < 2 sqrt 2


def wave_params(c: float) -> WaveParams:
    """Exact rates and period scale at speed c (closed forms, no iteration)."""
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"need a finite speed, got {c}")
    mu_minus = (-c + math.sqrt(c * c + 8.0)) / 2.0
    disc = cmath.sqrt(c * c - 8.0)
    mu_plus = ((-c + disc) / 2.0, (-c - disc) / 2.0)
    return WaveParams(
        c=c,
        mu_minus=mu_minus,
        p=2.0 * math.pi / mu_minus,
        mu_plus=mu_plus,
        oscillatory=c < C_CRITICAL,
    )


def resonant_speeds(m_max: int) -> list[tuple[int, float]]:
    """Speeds c_m with integer 1 : m decay-rate ratio at W = +1, m = 1..m_max."""
    if m_max < 1:
        raise DomainError("m_max must be at least 1")
    return [
        (m, math.sqrt(2.0) * (math.sqrt(m) + 1.0 / math.sqrt(m)))
        for m in range(1, m_max + 1)
    ]


def resonance_order(c: float) -> int | None:
    """m if c is within 1e-9 of a resonant speed c_m with m <= 64, else None.

    This is the rational-dependence test on the mu_+ pair: the decay-rate
    ratio is m exactly at c_m and irrational generically.
    """
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"need a finite speed, got {c}")
    for m, cm in resonant_speeds(64):
        if abs(c - cm) <= 1e-9:
            return m
    return None
