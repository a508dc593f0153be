"""Complex-time evolution of w_t = w_xx + 6 w^2 - lambda by spectral ETDRK4.

A time ray at angle theta (|theta| <= pi/2) means integrating

    dw/dr = e^(i theta) (w_xx + 6 w^2 - lambda),   r >= 0,

so theta = 0 is the parabolic flow and theta = -pi/2 advances the nonlinear
Schrodinger evolution i psi_s = psi_xx + 6 psi^2 - lambda forward in s
(theta = +pi/2 runs it backward).  States live in one of two spectral bases:

    NEUMANN_HALF   cosine coefficients a_k, k = 0..N-1, on (0, 1/2)
    PERIODIC_UNIT  FFT-ordered exponential coefficients on the unit circle

with complex coefficients in both (no reality constraint anywhere: complex
data is the whole point).  Both bases go to a uniform grid and back by
slices and unnormalized in-place calls of c2c from scipy's pocketfft extension
(loaded alone, not the scipy.fft package) along the last axis: a stack of rays
goes in one call and each row gets the bytes of its own transform.  The
quadratic product is formed exactly on the smallest grid that holds its N
kept modes, 3N points for cosines and 2N on the circle, and one cached
per-mode scale applies every normalization, the 6 and e^(i theta) at once.

The stepper is the standard fourth-order exponential time differencing
Runge-Kutta scheme; its phi-function coefficients are evaluated by contour
averaging over 32 roots of unity for |z| < 1 (entire functions: the mean
over a circle equals the center value) and by the closed forms otherwise.
The averages stay complex because the linear symbol e^(i theta)(-(2 pi k)^2)
is complex off the parabolic ray.  Each dr's tables are built once, scaled
by dr, and stacked per tuple of drs (a stack of one is its dr's own
tables); the f2 table holds 2 f2, the factor the scheme uses.  Step size
is adapted by step doubling: one full step against two half steps, local
error estimated as their H^1 distance over 2^4 - 1; a step that left the
floating-point range has a non-finite estimate and is rejected like any
other.  That step control is written once, for one ray (_control); the
scheduler _advance only batches steps: rays that share basis, N, theta and
lambda go through each step as one stack, a single ray as a stack of one,
and no ray waits for another at its stops.

Blow-up is reported, never guessed: a run ends with NORM_THRESHOLD when the
H^1 norm passes the threshold (NORM_THRESHOLD = 1e8, the largest a caller
may set: see _advance), STEP_COLLAPSE when the step would have to fall
below DR_MIN = 1e-12, CAPTURED when the caller's on_accept hook stops it,
or HORIZON when the requested arclength is reached.  Every ray driver
returns a RayRun holding the final state, that reason and the history of
accepted steps; its r_star_lower is the arclength reached with finite norm.
The step tolerance never falls below the roundoff of its own estimate, and
once a ray's H^1 norm has grown ENDGAME_GROWTH-fold its budget grows with
it (the endgame, see _control): each e-fold of growth then costs a bounded
number of steps, and a ray near a singularity ends by NORM_THRESHOLD where
the singularity is, at any err_target.  r_star_lower bounds the existence
time along that ray from below only as far as the accepted steps are
accurate: their error is controlled to err_target, not certified, and in
the endgame it is controlled in the blow-up time the state implies, not in
the state.  At a loose err_target the last steps before a pole can step
past it.  Constant data 1.5 at lambda = 6 (pole at ln 5 / 12, N = 16) ends
1.1e-9 short of the pole at the default err_target 1e-9, but 7.6e-9 past
it at 1e-7 and 1.4e-6 past it at 1e-5.
Non-finite lambda or initial data is a DomainError, not a blow-up at r = 0.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np
import scipy

from . import elliptic, spectrum
from .elliptic import CosineSeries
from .errors import DomainError


def _pocketfft():
    name, where = "scipy.fft._pocketfft.pypocketfft", f"{scipy.__path__[0]}/fft/_pocketfft"
    if name in sys.modules:
        return sys.modules[name]
    if (spec := importlib.machinery.PathFinder.find_spec(name, [where])) is None:
        raise ImportError(f"scipy's pypocketfft extension is not in {where}")
    spec.loader.exec_module(module := importlib.util.module_from_spec(spec))
    return module


NEUMANN_HALF = "NEUMANN_HALF"
PERIODIC_UNIT = "PERIODIC_UNIT"

REASON_NORM = "NORM_THRESHOLD"
REASON_STEP = "STEP_COLLAPSE"
REASON_HORIZON = "HORIZON"
REASON_CAPTURED = "CAPTURED"

#: smallest step; the dr ladder is DR_MIN * 2^j and a run whose step must
#: shrink below it ends with STEP_COLLAPSE
DR_MIN = 1e-12
#: default H^1 norm at which a ray is declared divergent
NORM_THRESHOLD = 1e8
#: cosine_field drops the coefficients past N when their L^2 norm is at most
#: this times the series' L^2 norm, and refuses the series otherwise
EMBED_TAIL_TOL = 1e-13
#: a run's history computes the sup norms of up to this many accepted states in one transform
SUP_BATCH = 64
#: H^1 growth over a ray's start (at least 1) past which its step budget grows
#: with it (see _control); above the largest excursion of a bounded run in the
#: tests and the benchmark, 5.6 on the vertical rays from Gamma(0.115)
ENDGAME_GROWTH = 8.0

_TWO_PI = 2.0 * math.pi
_LAST = (-1,)           # the axis every transform runs along
_c2c = _pocketfft().c2c  # alone: importing the scipy.fft package would double a cold start


def _wavenumbers(basis: str, N: int) -> np.ndarray:
    """Wavenumber of each coefficient: 0..N-1 (cosine) or FFT order (circle)."""
    if basis == NEUMANN_HALF:
        return np.arange(N, dtype=float)
    return np.fft.fftfreq(N, d=1.0 / N)


@lru_cache(maxsize=32)
def _omega2(basis: str, N: int) -> np.ndarray:
    """Read-only (2 pi k)^2 of each coefficient: minus the Laplacian's symbol."""
    om = (_TWO_PI * _wavenumbers(basis, N)) ** 2
    om.setflags(write=False)
    return om


def _to_grid(coeffs: np.ndarray, basis: str, M: int) -> np.ndarray:
    """Values at x_j = j / M of the series along the last axis, by one unnormalized
    inverse transform: cosine k >= 1, the pair e^(+-2 pi i k x), goes whole to grid
    modes k and M - k and 2 c_0 to mode 0, so the grid holds 2w; the circle's
    negative modes sit at the top end.  M >= 2N for cosines, M >= N + 2 on the circle."""
    N = coeffs.shape[-1]
    full = np.zeros(coeffs.shape[:-1] + (M,), dtype=complex)
    if basis == NEUMANN_HALF:
        full[..., 0] = coeffs[..., 0] * 2.0
        full[..., 1:N] = full[..., : M - N : -1] = coeffs[..., 1:]
    else:
        pos = (N + 1) // 2
        full[..., :pos] = coeffs[..., :pos]
        full[..., M - N + pos :] = coeffs[..., pos:]
    return _c2c(full, _LAST, False, 0, full)       # in place


@dataclass
class ComplexField:
    """Spectral state on a complex time ray."""

    coeffs: np.ndarray
    basis: str = NEUMANN_HALF
    r: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size < 2:
            raise DomainError("need a 1-d coefficient array with at least 2 modes")
        if self.basis not in (NEUMANN_HALF, PERIODIC_UNIT):
            raise DomainError(f"unknown basis {self.basis!r}")
        if not abs(self.theta) <= math.pi / 2 + 1e-12:
            raise DomainError(f"ray angle must satisfy |theta| <= pi/2, got {self.theta}")
        self.coeffs = c

    @property
    def N(self) -> int:
        return len(self.coeffs)

    @property
    def sectorial(self) -> bool:
        """True away from the vertical rays, where the linear part still damps."""
        return abs(math.cos(self.theta)) > 1e-8

    def values(self, M: int | None = None) -> np.ndarray:
        """Complex point values on the uniform grid x_j = j / M."""
        if M is None:
            M = 4 * self.N
        top = self.N - 1 if self.basis == NEUMANN_HALF else self.N // 2     # largest |wavenumber|
        if M < 2 * top + 2:
            raise DomainError(f"grid of {M} points too coarse for {self.N} modes of {self.basis}")
        return _to_grid(self.coeffs, self.basis, M) * (0.5 if self.basis == NEUMANN_HALF else 1.0)

    def at_zero(self) -> complex:
        return complex(np.add.reduce(self.coeffs))

    def h1_norm(self) -> float:
        """H^1 norm, from one |c|^2 for both of its parts."""
        (l2,), (grad,) = _norms(self.coeffs[None], self.basis)
        return math.hypot(l2, grad)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values())))

    def conjugate(self) -> "ComplexField":
        """Pointwise complex conjugate in x, as a new field."""
        if self.basis == NEUMANN_HALF:
            c = np.conj(self.coeffs)
        else:
            n = self.N
            c = np.conj(self.coeffs[(n - np.arange(n)) % n])
        return ComplexField(c, self.basis, self.r, self.theta)

    def copy(self) -> "ComplexField":
        return ComplexField(self.coeffs.copy(), self.basis, self.r, self.theta)


def _norms(coeffs: np.ndarray, basis: str) -> tuple[list, list]:
    """L^2 norms and L^2 norms of w_x of the rows of a stack, from one |c|^2."""
    a = np.abs(coeffs) ** 2
    om = _omega2(basis, a.shape[1])[None]
    total = np.add.reduce           # the sum of np.sum, without its wrappers
    if basis == NEUMANN_HALF:
        sums = zip(a[:, 0].tolist(), total(a[:, 1:], 1).tolist())
        return ([math.sqrt(a0 / 2.0 + rest / 4.0) for a0, rest in sums],
                [math.sqrt(g / 4.0) for g in total(om[:, 1:] * a[:, 1:], 1).tolist()])
    return ([math.sqrt(x) for x in total(a, 1).tolist()],
            [math.sqrt(g) for g in total(om * a, 1).tolist()])


def _state(coeffs: np.ndarray, basis: str, r: float, theta: float) -> ComplexField:
    """A ComplexField of one ray from parts that are already valid, without re-checking them."""
    f = object.__new__(ComplexField)
    f.coeffs, f.basis, f.r, f.theta = coeffs, basis, r, theta
    return f


def _check_modes(N: int) -> None:
    if N < 2:
        raise DomainError(f"need N >= 2 modes, got N = {N}")


def constant_field(value, basis: str = NEUMANN_HALF, N: int = 256, theta: float = 0.0) -> ComplexField:
    """Spatially constant state w(x) = value."""
    _check_modes(N)
    c = np.zeros(N, dtype=complex)
    c[0] = value
    return ComplexField(c, basis, 0.0, theta)


def cosine_field(series, N: int = 256, theta: float = 0.0) -> ComplexField:
    """Embed a CosineSeries (or raw cosine coefficients) in an N-mode state,
    dropping a negligible tail past N (see EMBED_TAIL_TOL)."""
    _check_modes(N)
    coeffs = series.coeffs if isinstance(series, CosineSeries) else np.asarray(series)
    if len(coeffs) > N:
        # past mode 0 each cosine mode weighs 1/4 in the L^2 norm on (0, 1/2)
        tail = math.sqrt(np.sum(np.abs(coeffs[N:]) ** 2) / 4.0)
        whole = _norms(coeffs[None], NEUMANN_HALF)[0][0]
        if not tail <= EMBED_TAIL_TOL * whole:
            raise DomainError(f"profile has {len(coeffs)} modes, state only {N}, "
                              f"and the rest has relative L^2 norm {tail / whole:.3g} > {EMBED_TAIL_TOL:g}")
        coeffs = coeffs[:N]
    c = np.zeros(N, dtype=complex)
    c[: len(coeffs)] = coeffs
    return ComplexField(c, NEUMANN_HALF, 0.0, theta)


def monochromatic_field(amplitude: complex, N: int = 256) -> ComplexField:
    """Single positive mode a e^(2 pi i x) on the circle (genuinely complex data)."""
    _check_modes(N)
    if N < 3:       # at N = 2 the FFT index 1 is the wavenumber -1
        raise DomainError(f"the mode e^(2 pi i x) needs N >= 3 on the circle, got N = {N}")
    c = np.zeros(N, dtype=complex)
    c[1] = amplitude
    return ComplexField(c, PERIODIC_UNIT, 0.0, -math.pi / 2)


# ---------------------------------------------------------------------------
# ETDRK4 machinery

_CONTOUR = np.exp(2j * math.pi * (np.arange(32) + 0.5) / 32.0)


@lru_cache(maxsize=256)
def _etdrk4_row(basis: str, N: int, theta: float, dr: float):
    """(E, E2, dr Q, dr f1, 2 dr f2, dr f3) of one step length, each shaped (1, N)."""
    rot = np.exp(1j * theta)
    dr = np.array([[dr]])
    z = dr * (rot * (-_omega2(basis, N)))
    E = np.exp(z)
    E2 = np.exp(z / 2.0)

    def tables(zz):
        # ez times a temporary by np.multiply: on a large temporary * swaps the
        # operands to work in place, and complex products do not commute bitwise
        ez = np.exp(zz)
        q = (np.exp(zz / 2.0) - 1.0) / zz
        f1 = (-4.0 - zz + np.multiply(ez, 4.0 - 3.0 * zz + zz * zz)) / zz ** 3
        f2 = (2.0 + zz + np.multiply(ez, zz - 2.0)) / zz ** 3
        f3 = (-4.0 - 3.0 * zz - zz * zz + np.multiply(ez, 4.0 - zz)) / zz ** 3
        return q, f1, f2, f3

    # contour means where |z| < 1, the closed forms elsewhere
    small = np.abs(z) < 1.0
    Q, F1, F2, F3 = np.empty((4,) + z.shape, dtype=complex)
    Q[small], F1[small], F2[small], F3[small] = (t.mean(1) for t in tables(z[small][:, None] + _CONTOUR))
    Q[~small], F1[~small], F2[~small], F3[~small] = tables(z[~small])
    return E, E2, dr * Q, dr * F1, 2.0 * (dr * F2), dr * F3


@lru_cache(maxsize=64)
def _etdrk4_tables(basis: str, N: int, theta: float, drs: tuple):
    """(e^(i theta), E, E2, dr Q, dr f1, 2 dr f2, dr f3) for a stack of rays whose row i
    steps by drs[i]: read-only (rows, N) stacks of each dr's row, built once; a stack
    of one is that row's own arrays."""
    rows = [_etdrk4_row(basis, N, theta, dr) for dr in drs]
    out = rows[0] if len(rows) == 1 else tuple(map(np.concatenate, zip(*rows)))
    for arr in out:
        arr.setflags(write=False)
    return (np.exp(1j * theta),) + out


@lru_cache(maxsize=32)
def _fold(basis: str, N: int, factor: complex) -> np.ndarray:
    """Read-only per-mode scale of _square: factor / M on the circle; for cosines,
    whose grid squares to 4 w^2, factor / 4M at mode 0 and factor / 2M past it."""
    cosine = basis == NEUMANN_HALF
    scale = np.full(N, factor / (3 * N if cosine else 2 * N), dtype=complex)
    scale *= np.where(np.arange(N) == 0, 0.25, 0.5) if cosine else 1.0
    scale.setflags(write=False)
    return scale


def _square(coeffs: np.ndarray, basis: str, scale: np.ndarray | None = None) -> np.ndarray:
    """scale (by default _fold(basis, N, 1)) times the coefficients of w^2 for each row.

    Exact on the smallest grid: cosine product modes reach 2N - 2 and so, on M = 3N
    points, alias only onto grid modes from M - 2N + 2 = N + 2 up, past the N kept
    (M >= 3N - 2 is enough); on the circle all 2N - 1 product wavenumbers fit on
    M = 2N.  Both transforms are unnormalized: scale applies every factor at once."""
    N = coeffs.shape[-1]
    u = _to_grid(coeffs, basis, 3 * N if basis == NEUMANN_HALF else 2 * N)
    spec = _c2c(np.multiply(u, u, u), _LAST, True, 0, u)
    scale = _fold(basis, N, 1.0) if scale is None else scale
    if basis == NEUMANN_HALF:
        return spec[..., :N] * scale
    pos = (N + 1) // 2
    return np.multiply(np.concatenate((spec[..., :pos], spec[..., pos - N :]), axis=-1), scale)


def _nonlinear(coeffs: np.ndarray, basis: str, fold: np.ndarray, rot_lam: complex) -> np.ndarray:
    """e^(i theta) (6 w^2 - lam) for each row from fold = _fold(basis, N, 6 e^(i theta))
    and rot_lam = e^(i theta) lam, taken from mode 0 only; the caller holds the errstate."""
    out = _square(coeffs, basis, fold)
    for i in range(len(out)):   # scalar updates: numpy's strided column update costs more on few rows
        out[i, 0] -= rot_lam
    return out


def step(u: np.ndarray, basis: str, theta: float, dr: tuple, lam: float) -> np.ndarray:
    """One fixed ETDRK4 step of a stack of rays (rows x modes), row i by dr[i];
    a row that leaves the floating-point range comes back non-finite, and so
    does its error estimate.  The caller holds the errstate."""
    if min(dr) <= 0.0:
        raise DomainError("step length must be positive")
    rot, E, E2, Q, f1, f2x2, f3 = _etdrk4_tables(basis, u.shape[1], theta, dr)
    fold, rot_lam = _fold(basis, u.shape[1], 6.0 * rot), rot * lam
    # in place where a temporary allows it, with every product's operands in
    # the order of the textbook formulas: complex multiplication is not
    # bitwise commutative
    Nu = _nonlinear(u, basis, fold, rot_lam)
    E2u = E2 * u
    a = Q * Nu
    a += E2u
    Na = _nonlinear(a, basis, fold, rot_lam)
    b = Q * Na
    b += E2u
    Nb = _nonlinear(b, basis, fold, rot_lam)
    c = np.multiply(2.0, Nb, b)
    c -= Nu
    np.multiply(Q, c, c)
    c += np.multiply(E2, a, a)                      # E2 a + Q (2 Nb - Nu)
    Nc = _nonlinear(c, basis, fold, rot_lam)
    unew = E * u
    unew += np.multiply(f1, Nu, Nu)
    Na += Nb
    unew += np.multiply(f2x2, Na, Na)
    unew += np.multiply(f3, Nc, Nc)                 # E u + f1 Nu + 2 f2 (Na + Nb) + f3 Nc
    return unew


@lru_cache(maxsize=32)
def _roundoff_weight(basis: str, N: int) -> float:
    """H^1 norm of a perturbation of unit L^2 norm spread evenly over the N modes:
    the root mean of 1 + (2 pi k)^2 over them."""
    return math.sqrt(float(np.mean(1.0 + _omega2(basis, N))))


def _h1_diff(u1: np.ndarray, u2: np.ndarray, basis: str) -> list:
    """H^1 distance of each row of two stacks."""
    l2, grads = _norms(u1 - u2, basis)
    return [math.hypot(x, y) for x, y in zip(l2, grads)]


class _History:
    """The start and every accepted step of one run, and its rejected attempts.

    r, h1, grad and sup are flat float64 buffers and w0 interleaves its real
    and imaginary parts, so the record costs 48 bytes per accepted step;
    arrays() views them as float64 and complex128 without a copy.  w0 and sup
    are computed SUP_BATCH states at a time.
    """

    def __init__(self):
        self.r, self.h1, self.sup, self.grad, self.w0 = (array("d") for _ in range(5))
        self.queued = []            # accepted states whose w0 and sup norm are pending
        self.rejected = 0

    def push(self, state: ComplexField, h1: float, grad: float):
        self.r.append(state.r)
        self.h1.append(h1)
        self.grad.append(grad)
        self.queued.append(state)
        if len(self.queued) == SUP_BATCH:
            self._flush()

    def _flush(self):
        """Each queued state's at_zero and sup_norm, all from one stack."""
        if self.queued:
            basis, N = self.queued[0].basis, self.queued[0].N
            coeffs = np.array([s.coeffs for s in self.queued])
            self.w0.frombytes(np.add.reduce(coeffs, 1).tobytes())
            grid = _to_grid(coeffs, basis, 4 * N)
            sup = np.max(np.abs(grid), 1) * (0.5 if basis == NEUMANN_HALF else 1.0)
            self.sup.frombytes(sup.tobytes())
            self.queued.clear()

    def arrays(self) -> dict:
        self._flush()
        out = {name: np.frombuffer(getattr(self, name)) for name in ("r", "h1", "sup", "grad")}
        out["w0"] = np.frombuffer(self.w0, dtype=complex)
        return out


def _control(state, stops, err_target, norm_threshold, history, fields, on_accept):
    """One ray's step control through its ascending stops, as a generator.

    It yields (state, dr) for each step it wants tried and is sent back
    (err, coeffs, l2, grad): the step-doubling H^1 distance, then the
    two-half-step result and its norms.  A step that left the floating-point
    range has a non-finite err and is rejected with dr / 4, one whose
    estimate is over tol with dr / 2.  At each stop dr restarts on the
    ladder and a copy of the state goes to fields; history gets the start,
    every accepted step and the count of rejected ones.  Returns (state, status).

    A step is accepted when its estimate e = err / 15 is at most

        tol = max(err_target * dr * g^2 * max(1, h1),  eps * ||u||_L2 * W_N),

    with h1 and ||u||_L2 the norms of the two-half-step result.

    The second term is the roundoff floor.  The transforms leave a rounding
    error of relative size eps = 2^-52 in the state's L^2 norm, spread evenly
    over its N modes rather than in proportion to each coefficient.  Such a
    perturbation puts eps^2 ||u||^2 / N of the squared L^2 norm in each mode,
    and the H^1 norm weights mode k by 1 + (2 pi k)^2.  So its H^1 norm is
    eps ||u|| W_N, where W_N^2 is the mean of 1 + (2 pi k)^2 over the N
    modes (_roundoff_weight).  The doubling difference of two such states,
    over 15, is at most 2/15 of that.  So no step is asked for an error that
    roundoff alone could exceed, and a run near a singularity does not fail
    every step until STEP_COLLAPSE.

    The factor g = max(1, h1 / (ENDGAME_GROWTH * max(1, h1 at the start)))
    is the blow-up endgame.  It is 1 until the ray's H^1 norm has grown past
    ENDGAME_GROWTH times its start, which no bounded run does.  Past that,
    err_target * dr * g is the budget per unit of the rescaled time
    dtau = g dr, in which each e-fold of growth takes about the same time
    (Berger & Kohn, CPAM 41, 1988).  The second g scales that budget with the
    growth: the error that shifts a blow-up time r* is relative error times
    r* - r, and r* - r falls as 1 / g.  So every unit of rescaled time may
    move r* by about the same amount, and each e-fold of growth costs a
    bounded number of steps.
    """
    (l2,), (grad,) = _norms(state.coeffs[None], state.basis)
    h1 = math.hypot(l2, grad)
    history.push(state, h1, grad)
    onset = ENDGAME_GROWTH * max(1.0, h1)
    roundoff = sys.float_info.epsilon * _roundoff_weight(state.basis, state.N)
    dr_init = 1e-2 if state.sectorial else 2e-3
    for stop in stops:
        # keep dr on the binary ladder DR_MIN * 2^j: the phi-function tables for
        # dr and dr/2 are then reused across steps instead of rebuilt
        dr = DR_MIN * 2.0 ** max(0, math.floor(math.log2(min(dr_init, max(stop - state.r, DR_MIN)) / DR_MIN)))
        while state.r < stop * (1.0 - 1e-15) and stop > state.r:
            dr_try = min(dr, stop - state.r)
            err, coeffs, l2, grad = yield state, dr_try
            e = err / 15.0
            if math.isfinite(e):
                h1 = math.hypot(l2, grad)
                growth = max(1.0, h1 / onset)
                tol = max(err_target * dr_try * growth * growth * max(1.0, h1), roundoff * l2)
                if e <= tol:
                    r = state.r + dr_try / 2.0 + dr_try / 2.0     # the clock of two half steps
                    prev, state = state, _state(coeffs, state.basis, r, state.theta)
                    history.push(state, h1, grad)
                    if on_accept is not None and on_accept(prev, state) is False:
                        return state, REASON_CAPTURED
                    if h1 >= norm_threshold:
                        return state, REASON_NORM
                    # doubling is taken only when the fifth-order estimate
                    # predicts the doubled step still passes with a 20% margin
                    if e == 0.0 or tol / e > 40.0:
                        dr *= 2.0
                    continue
            history.rejected += 1
            dr /= 2.0 if math.isfinite(e) else 4.0
            if dr < DR_MIN:
                return state, REASON_STEP
        fields.append(state.copy())
    return state, REASON_HORIZON


def _advance(
    state,
    stops,
    lam: float,
    *,
    history,
    fields,
    err_target: float = 1e-9,
    norm_threshold: float = NORM_THRESHOLD,
    on_accept=None,
):
    """Adaptive ETDRK4 through the ascending arclengths in stops (one float
    or several); returns (state, status).

    err_target is the relative H^1 error budget per unit ray length,
    estimated by step doubling, with a roundoff floor under it and a
    blow-up endgame past ENDGAME_GROWTH (see _control), which is why
    norm_threshold may not exceed NORM_THRESHOLD.  The first step is 1e-2 on sectorial rays
    and 2e-3 on vertical ones.  on_accept(prev, new) may return False to
    stop the run early (status CAPTURED).  history and fields hold one
    _History and one list per ray, which every run fills; see _control.

    state may also be a list of rays that share basis, N and theta; then
    the lists of final states and statuses come back.  Each ray keeps its
    own step control (_control); this scheduler only batches the steps:
    each round it makes one stacked step triple, one _h1_diff and one
    _norms call for every ray still running, so each row ends with the
    bytes it would reach alone.
    """
    one = isinstance(state, ComplexField)
    rays = [state] if one else list(state)
    stops = np.atleast_1d(np.asarray(stops, dtype=float)).tolist()
    if not (err_target > 0.0 and norm_threshold > 0.0):
        raise DomainError(f"need err_target > 0 and norm_threshold > 0, got {err_target}, {norm_threshold}")
    if norm_threshold > NORM_THRESHOLD:
        raise DomainError(f"norm_threshold {norm_threshold:g} > NORM_THRESHOLD {NORM_THRESHOLD:g}: past it the "
                          "endgame's budget, scaled by the step's own norm, lets one step cross the pole")
    if not all(map(math.isfinite, stops)):
        raise DomainError(f"stops must be finite, got {stops}")
    if any(b < a for a, b in zip([max(ray.r for ray in rays)] + stops, stops)):
        raise DomainError("stops must ascend from the current position")
    basis, theta, N = rays[0].basis, rays[0].theta, rays[0].N
    if any((ray.basis, ray.theta, ray.N) != (basis, theta, N) for ray in rays):
        raise DomainError("a stack of rays must share basis, N and theta")
    if not (np.isfinite(lam) and all(np.isfinite(ray.coeffs).all() for ray in rays)):
        raise DomainError(f"need finite lambda and initial coefficients, got lambda = {lam}")

    ends = [None] * len(rays)
    # (index, controller, what to send it next) for each ray still running
    pending = [(i, _control(ray, stops, err_target, norm_threshold, hist, fs, on_accept), None)
               for i, (ray, hist, fs) in enumerate(zip(rays, history, fields))]
    with np.errstate(over="ignore", invalid="ignore"):
        while pending:
            live, asks = [], []     # (index, controller) and its (state, dr to try)
            for i, ctrl, result in pending:
                try:
                    asks.append(ctrl.send(result))
                    live.append((i, ctrl))
                except StopIteration as done:
                    ends[i] = done.value
            if not live:
                break
            states, full = zip(*asks)
            half = tuple(dr / 2.0 for dr in full)
            # the tables get one row per ray, even when all drs agree: numpy
            # broadcasts one row over many slowly
            u = np.array([s.coeffs for s in states])
            u_full = step(u, basis, theta, full, lam)
            u_half = step(step(u, basis, theta, half, lam), basis, theta, half, lam)
            results = zip(_h1_diff(u_full, u_half, basis), u_half, *_norms(u_half, basis))
            pending = [(i, ctrl, res) for (i, ctrl), res in zip(live, results)]
    return ends[0] if one else tuple(map(list, zip(*ends)))


# ---------------------------------------------------------------------------
# ray runs


@dataclass
class RayRun:
    """One ray advanced through ascending stops: where it ended and why.

    history holds r, h1, sup, grad and w0 of the start and of every accepted
    step, as float64 arrays and a complex128 one viewing _History's flat
    buffers: 48 bytes per accepted step.  fields holds a copy of the state at
    each stop reached.
    """

    final_state: ComplexField
    reason: str               # NORM_THRESHOLD | STEP_COLLAPSE | CAPTURED | HORIZON
    history: dict
    fields: list[ComplexField]
    rejected: int             # step attempts turned down: over tol or not finite

    @property
    def r_star_lower(self) -> float:
        """Arclength reached with finite H^1 norm: a lower bound for the existence
        time as far as the accepted steps meet err_target (a loose one can pass a pole)."""
        return float(self.final_state.r)

    @property
    def diverged(self) -> bool:
        return self.reason in (REASON_NORM, REASON_STEP)

    @property
    def sectorial(self) -> bool:
        return self.final_state.sectorial

    @property
    def final_h1(self) -> float:
        return float(self.history["h1"][-1])

    @property
    def h1_growth_ok(self) -> bool:
        """Check ||w_x(r)|| <= ||w_x(0)|| exp(12 C r) with 10% slack.

        C is the largest sup norm observed on the run; the bound is the
        Gronwall envelope for the gradient of solutions bounded by C.
        """
        r, grad = self.history["r"], self.history["grad"]
        C = float(np.max(self.history["sup"]))
        envelope = grad[0] * np.exp(np.minimum(12.0 * C * (r - r[0]), 700.0)) * 1.1 + 1e-12
        return bool(np.all(grad <= envelope))

    @property
    def status(self) -> str:
        """Same as reason."""
        return self.reason

    @property
    def s_reached(self) -> float:
        """Signed s reached on a vertical ray (theta = -pi/2 runs s forward)."""
        return math.copysign(self.final_state.r, -self.final_state.theta)


def _run(state, stops, lam: float, **advance_kw):
    """Advance state through the ascending arclengths in stops with one history.

    The state at each stop reached is copied into fields; the run ends at the
    first status other than HORIZON.  state may also be a list of rays that
    share basis, N and theta, whose steps _advance batches as one stack; one
    RayRun per ray comes back.
    """
    one = isinstance(state, ComplexField)
    hists = [_History() for _ in ([state] if one else state)]
    fields = [[] for _ in hists]
    ends, whys = _advance(state, stops, lam, history=hists, fields=fields, **advance_kw)
    if one:
        ends, whys = [ends], [whys]
    runs = [RayRun(end, why, hist.arrays(), fs, hist.rejected)
            for end, why, hist, fs in zip(ends, whys, hists, fields)]
    return runs[0] if one else runs


def detect_blowup(
    w0: ComplexField,
    lam: float,
    r_max: float,
    *,
    norm_threshold: float = NORM_THRESHOLD,
    err_target: float = 1e-9,
) -> RayRun:
    """Integrate along the ray of w0 until r_max, the norm threshold, or
    step collapse, and report which came first.

    r_star_lower is the largest arclength reached with H^1 norm still finite
    and below threshold at every accepted step before the final one.
    """
    return _run(
        w0.copy(), [w0.r + float(r_max)], lam,
        err_target=err_target, norm_threshold=norm_threshold,
    )


def schrodinger_evolve(
    psi0: ComplexField,
    s_points,
    lam: float,
    *,
    err_target: float = 1e-10,
) -> RayRun:
    """Evolve the Schrodinger flow to each s in s_points (one sign, ascending |s|).

    Positive s means theta = -pi/2, negative s theta = +pi/2; the returned
    fields carry |s| in their r slot and s_reached is signed.
    The vertical rays are non-sectorial (no smoothing), hence the smaller
    default error target and initial step.
    """
    pts = np.atleast_1d(np.asarray(s_points, dtype=float))
    if pts.size == 0:
        raise DomainError("need at least one s value")
    if np.any(pts == 0.0):
        raise DomainError("s = 0 is the initial state; request nonzero s")
    if not (np.all(pts > 0.0) or np.all(pts < 0.0)):
        raise DomainError("one run handles one sign of s; split the request")
    mags = np.abs(pts)
    if np.any(np.diff(mags) <= 0.0):
        raise DomainError("request s values with strictly increasing magnitude")

    theta = -math.pi / 2 if pts[0] > 0 else math.pi / 2
    state = ComplexField(psi0.coeffs.copy(), psi0.basis, 0.0, theta)
    return _run(state, mags, lam, err_target=err_target)


# ---------------------------------------------------------------------------
# heteroclinic shooting


@dataclass
class ShootResult:
    direction: int
    outcome: str              # 'converged' | 'blowup' | 'unresolved'
    target: float             # the constant state -sqrt(lam/6)
    captured_r: float | None
    final_distance: float
    monotone: bool | None     # pointwise decay in r (minus direction only)
    max_increase: float | None
    record: RayRun


def heteroclinic_shoot(
    n: int,
    h: float,
    direction,
    *,
    N: int = 256,
    r_max: float = 20.0,
    err_target: float = 1e-9,
) -> ShootResult:
    """Shoot from W_n(h) along its fastest unstable direction "+" or "-".

    Launch data is W_n +- eps phi_0 with phi_0 the positive ground state of
    the linearization and eps = 1e-5 ||W_n||.  The minus sign flows
    monotonically down to the constant state -sqrt(lam/6) (the parabolic
    comparison principle preserves the initial pointwise ordering) and is
    captured once within H^1 distance 1e-6 of it; the plus sign blows up in
    finite time.  For the minus run the pointwise decrease is monitored on a
    129-point grid with 1e-8 absolute tolerance.
    """
    if not (isinstance(direction, str) and direction in ("+", "-")):
        raise DomainError(f"direction must be '+' or '-' (got {direction!r})")
    sign = 1 if direction == "+" else -1

    bp = elliptic.branch_point(n, h)
    rep = spectrum.eigen(bp.profile)
    phi0 = rep.eigenvectors[0]
    eps = 1e-5 * bp.profile.l2_norm()

    w0 = cosine_field(bp.profile, N=N)
    w0.coeffs += sign * eps * cosine_field(phi0, N=N).coeffs
    target = elliptic.homogeneous_equilibria(bp.lam)[0]
    target_coeffs = constant_field(target, N=N).coeffs
    minus = sign < 0
    capture = max_increase = None
    if minus:
        # cast once: matmul with the complex coefficients would cast the
        # table again on every accepted step
        grid = np.outer(np.linspace(0.0, 0.5, 129), np.arange(N))
        cos_table = np.cos(_TWO_PI * grid).astype(complex)
        max_increase = -math.inf

        def capture(prev: ComplexField, new: ComplexField) -> bool:
            nonlocal max_increase
            inc = float(np.max((cos_table @ (new.coeffs - prev.coeffs)).real))
            max_increase = max(max_increase, inc)
            dist = ComplexField(new.coeffs - target_coeffs, new.basis).h1_norm()
            return not dist < 1e-6

    record = _run(w0, [r_max], bp.lam, err_target=err_target, on_accept=capture)
    final = record.final_state
    captured = record.reason == REASON_CAPTURED
    if minus:
        outcome = "converged" if captured else "unresolved"
        distance = ComplexField(final.coeffs - target_coeffs, final.basis).h1_norm()
    else:
        outcome = "blowup" if record.diverged else "unresolved"
        distance = math.inf
    return ShootResult(direction=sign, outcome=outcome, target=target,
                       captured_r=record.r_star_lower if captured else None,
                       final_distance=distance,
                       monotone=None if max_increase is None else max_increase <= 1e-8,
                       max_increase=max_increase, record=record)


# ---------------------------------------------------------------------------
# analyticity boundary of the complexified solution


@dataclass
class BoundarySample:
    s: float
    r_star: float | None      # None when undefined at this s
    censored: bool            # True when the heat leg reached r_cap intact
    reason: str

    @property
    def defined(self) -> bool:
        return self.r_star is not None


@dataclass
class BoundaryScan:
    samples: list[BoundarySample]
    corner: tuple[float, float] | None   # (r0, s0) minimizing r_star


def analyticity_boundary(
    gamma0: ComplexField,
    s_values,
    lam: float,
    *,
    r_cap: float = 2.0,
    err_target: float = 1e-9,
) -> BoundaryScan:
    """Estimate r*(s): existence length of the theta = 0 ray started at i s.

    For each s the run goes up the vertical (Schrodinger) ray to i s and then
    along the horizontal ray; r*(s) is where the horizontal leg diverges
    (censored at r_cap when it does not).  Each side's vertical leg is one
    Schrodinger run through that side's |s| values, reused across the grid;
    the s = 0 leg starts from gamma0 itself.  The horizontal legs advance
    together as one stack of rays.  When the vertical leg diverges
    before reaching s, that sample and the more distant ones on the same side
    are recorded as undefined.  A divergent horizontal leg, the s = 0 one
    included, reports the last arclength its own record reached with H^1
    norm below NORM_THRESHOLD / 4 (see _refine_crossing); no leg is re-run.

    The reported corner (r0, s0) is the sample minimizing r_star; it is
    descriptive (a rectangle certificate corner), not asserted against any
    theory.
    """
    svals = np.atleast_1d(np.asarray(s_values, dtype=float))
    # where each horizontal leg starts: the vertical-leg state at s (None when
    # that leg diverged first), and gamma0 itself at s = 0
    tops: dict[float, ComplexField | None] = {}
    for sign in (1.0, -1.0):
        group = sorted({float(s) for s in svals if math.copysign(1.0, s) == sign and s != 0.0}, key=abs)
        if group:
            leg = schrodinger_evolve(gamma0, group, lam, err_target=err_target / 10.0)
            tops.update(zip_longest(group, leg.fields))
    if np.any(svals == 0.0):
        tops[0.0] = gamma0

    # the horizontal legs share basis, N, theta = 0 and lam: one stack
    stack = [ComplexField(top.coeffs.copy(), top.basis) for top in tops.values() if top is not None]
    legs = iter(_run(stack, [float(r_cap)], lam, err_target=err_target) if stack else ())
    samples: dict[float, BoundarySample] = {}
    for s, top in tops.items():
        if top is None:
            samples[s] = BoundarySample(s=s, r_star=None, censored=False,
                                        reason="vertical leg diverged before reaching s")
            continue
        rec = next(legs)
        r_star = _refine_crossing(rec, NORM_THRESHOLD) if rec.diverged else rec.r_star_lower
        samples[s] = BoundarySample(s=s, r_star=r_star, censored=not rec.diverged, reason=rec.reason)

    ordered = [samples[float(s)] for s in svals]
    divergent = [b for b in ordered if b.defined and not b.censored]
    corner = None
    if divergent:
        best = min(divergent, key=lambda b: (b.r_star, abs(b.s)))
        corner = (best.r_star, best.s)
    return BoundaryScan(samples=ordered, corner=corner)


def _refine_crossing(rec: RayRun, norm_threshold: float) -> float:
    """The crossing arclength of a divergent leg, read from its own record.

    It is the last accepted r with H^1 norm below norm_threshold / 4: a lower
    bound that does not rest on the endgame's last steps, which at a loose
    err_target can pass the pole.  A leg whose last entry is still below
    norm_threshold / 4 never rose past it, and one that started above it has
    no such r; both return r_star_lower.
    """
    below = rec.history["h1"] < norm_threshold / 4.0
    if not below.any() or below[-1]:
        return rec.r_star_lower
    return float(rec.history["r"][np.flatnonzero(below)[-1]])
