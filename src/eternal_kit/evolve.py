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
slices and scipy.fftpack, which calls the same pocketfft as numpy.fft and
gives the same bytes with less overhead per call.  Transforms run along the
last axis, so a stack of rays (rows x modes) goes in one call and each row
gets the bytes of its own transform.  Quadratic products are computed on a
4N grid, which represents the product exactly, so there is no aliasing.

The stepper is the standard fourth-order exponential time differencing
Runge-Kutta scheme; its phi-function coefficients are evaluated by contour
averaging over 32 roots of unity for |z| < 1 (entire functions: the mean
over a circle equals the center value) and by the closed forms otherwise.
The averages stay complex because the linear symbol e^(i theta)(-(2 pi k)^2)
is complex off the parabolic ray.  The tables are cached per (basis, N,
theta, dr) and already scaled by dr; the f2 table holds 2 f2, the factor
with which the scheme uses it.  Step size is adapted by step doubling:
one full step against two half steps, local error estimated as their
H^1 distance over 2^4 - 1.  That step control is written once, for one
ray (_control); the scheduler _advance only batches steps: rays that share
basis, N, theta and lambda go through each step as one stack, a single ray
as a stack of one, and no ray waits for another at its stops.

Blow-up is reported, never guessed: a run ends with NORM_THRESHOLD when the
H^1 norm passes the threshold (NORM_THRESHOLD = 1e8 unless the caller sets
one), STEP_COLLAPSE when the step would have to fall below the constant
DR_MIN = 1e-12, CAPTURED when the caller's on_accept hook stops it, or
HORIZON when the requested arclength is reached.  Every ray driver returns
a RayRun holding the final state, that reason and the history of accepted
steps.  Its r_star_lower is the arclength actually reached with finite
norm, a certified lower bound for the existence time along that ray.
Non-finite lambda or initial data is a DomainError, not a blow-up at r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import zip_longest

import numpy as np
import scipy.fftpack

from . import elliptic, spectrum
from .elliptic import CosineSeries
from .errors import BlowupSignal, DomainError

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

_TWO_PI = 2.0 * math.pi


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
    """Point values at x_j = j / M of the series whose coefficients run along the last axis.

    Cosine coefficient k >= 1 is the pair e^(+-2 pi i k x), half of it at grid
    mode k and half at M - k; the circle's negative modes sit at the top end.
    M must hold every mode: M >= 2N for cosines, M >= N + 2 on the circle.
    """
    N = coeffs.shape[-1]
    full = np.zeros(coeffs.shape[:-1] + (M,), dtype=complex)
    if basis == NEUMANN_HALF:
        full[..., 0] = coeffs[..., 0]
        full[..., 1:N] = full[..., : M - N : -1] = coeffs[..., 1:] / 2.0
    else:
        pos = (N + 1) // 2
        full[..., :pos] = coeffs[..., :pos]
        full[..., M - N + pos :] = coeffs[..., pos:]
    grid = scipy.fftpack.ifft(full, axis=-1, overwrite_x=True)
    return np.multiply(grid, M, grid)


def _from_grid(values: np.ndarray, basis: str, N: int) -> np.ndarray:
    """The N coefficients of the grid function along the last axis (assumed even for cosines)."""
    M = values.shape[-1]
    spec = scipy.fftpack.fft(values, axis=-1)
    if basis == NEUMANN_HALF:
        out = spec[..., :N] / M
        out[..., 1:] *= 2.0
        return out
    pos = (N + 1) // 2
    return np.concatenate((spec[..., :pos], spec[..., M - N + pos :]), axis=-1) / M


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
        return _to_grid(self.coeffs, self.basis, M)

    def at_zero(self) -> complex:
        return complex(np.sum(self.coeffs))

    def l2_norm(self) -> float:
        return _norms(self.coeffs[None], self.basis)[0][0]

    def grad_norm(self) -> float:
        return _norms(self.coeffs[None], self.basis)[1][0]

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


def _state(coeffs: np.ndarray, basis: str, r, theta: float) -> ComplexField:
    """A ComplexField from parts that are already valid, without re-checking them.

    The scheduler in _advance also builds the stack of rays that step takes
    this way (rows x modes, one r per row); everything else holds one ray.
    """
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
    """Embed a CosineSeries (or raw cosine coefficients) in an N-mode state."""
    coeffs = series.coeffs if isinstance(series, CosineSeries) else np.asarray(series)
    if len(coeffs) > N:
        raise DomainError(f"profile has {len(coeffs)} modes, state only {N}")
    c = np.zeros(N, dtype=complex)
    c[: len(coeffs)] = coeffs
    return ComplexField(c, NEUMANN_HALF, 0.0, theta)


def monochromatic_field(amplitude: complex, N: int = 256) -> ComplexField:
    """Single positive mode a e^(2 pi i x) on the circle (genuinely complex data)."""
    _check_modes(N)
    c = np.zeros(N, dtype=complex)
    c[1] = amplitude
    return ComplexField(c, PERIODIC_UNIT, 0.0, -math.pi / 2)


# ---------------------------------------------------------------------------
# ETDRK4 machinery

_CONTOUR = np.exp(2j * math.pi * (np.arange(32) + 0.5) / 32.0)


@lru_cache(maxsize=64)
def _etdrk4_tables(basis: str, N: int, theta: float, dr: float):
    """(e^(i theta), E, E2, dr Q, dr f1, 2 dr f2, dr f3) for one step of dr.

    The arrays are read-only and shaped (1, N): one row of a stack of rays.
    """
    rot = np.exp(1j * theta)
    L = rot * (-_omega2(basis, N))
    z = dr * L
    E = np.exp(z)
    E2 = np.exp(z / 2.0)

    def tables(zz):
        ez = np.exp(zz)
        q = (np.exp(zz / 2.0) - 1.0) / zz
        f1 = (-4.0 - zz + ez * (4.0 - 3.0 * zz + zz * zz)) / zz ** 3
        f2 = (2.0 + zz + ez * (zz - 2.0)) / zz ** 3
        f3 = (-4.0 - 3.0 * zz - zz * zz + ez * (4.0 - zz)) / zz ** 3
        return q, f1, f2, f3

    small = np.abs(z) < 1.0
    Q = np.empty(N, dtype=complex)
    F1 = np.empty(N, dtype=complex)
    F2 = np.empty(N, dtype=complex)
    F3 = np.empty(N, dtype=complex)
    if np.any(small):
        zs = z[small][:, None] + _CONTOUR[None, :]
        q, f1, f2, f3 = tables(zs)
        Q[small], F1[small], F2[small], F3[small] = (
            q.mean(1), f1.mean(1), f2.mean(1), f3.mean(1),
        )
    if np.any(~small):
        q, f1, f2, f3 = tables(z[~small])
        Q[~small], F1[~small], F2[~small], F3[~small] = q, f1, f2, f3

    out = tuple(t[None] for t in (E, E2, dr * Q, dr * F1, 2.0 * (dr * F2), dr * F3))
    for arr in out:
        arr.setflags(write=False)
    return (rot,) + out


@lru_cache(maxsize=16)
def _stacked_tables(basis: str, N: int, theta: float, drs: tuple):
    """_etdrk4_tables with one row per step length in drs; arrays read-only."""
    rows = [_etdrk4_tables(basis, N, theta, dr) for dr in drs]
    out = tuple(np.concatenate(t) for t in list(zip(*rows))[1:])
    for arr in out:
        arr.setflags(write=False)
    return (rows[0][0],) + out


def _square(coeffs: np.ndarray, basis: str) -> np.ndarray:
    """Coefficients of w^2 for each row, exactly (4N grid holds every product mode)."""
    N = coeffs.shape[-1]
    u = _to_grid(coeffs, basis, 4 * N)
    return _from_grid(np.multiply(u, u, u), basis, N)


def _nonlinear(coeffs: np.ndarray, basis: str, rot: complex, lam0: np.ndarray) -> np.ndarray:
    """rot (6 w^2 - lam) with rot = e^(i theta) and lam0 = lam at mode 0, zero
    elsewhere (x - 0 is x, bit for bit); the caller holds the errstate."""
    out = _square(coeffs, basis)
    np.multiply(6.0, out, out)
    out -= lam0
    return np.multiply(rot, out, out)


def step(state: ComplexField, dr, lam: float) -> ComplexField:
    """One fixed ETDRK4 step of length dr along the state's ray.

    Raises BlowupSignal (carrying the input state) when the update stops
    being finite; callers turn that into a divergence report.  On a stack
    of rays dr is one float for every row or a tuple with one per row, and
    the signal comes only when no row stays finite: a row that leaves the
    floating-point range alone shows up in its error estimate instead.
    """
    if (min(dr) if isinstance(dr, tuple) else dr) <= 0.0:
        raise DomainError("step length must be positive")
    basis, u = state.basis, state.coeffs
    one = u.ndim == 1
    if one:
        u = u[None]            # one ray is a stack of one
    N = u.shape[1]
    tables = _stacked_tables if isinstance(dr, tuple) else _etdrk4_tables
    rot, E, E2, Q, f1, f2x2, f3 = tables(basis, N, state.theta, dr)
    lam0 = np.zeros((1, N), dtype=complex)
    lam0[0, 0] = lam
    # in place where a temporary allows it, with every product's operands in
    # the order of the textbook formulas: complex multiplication is not
    # bitwise commutative
    with np.errstate(over="ignore", invalid="ignore"):
        Nu = _nonlinear(u, basis, rot, lam0)
        E2u = E2 * u
        a = Q * Nu
        a += E2u
        Na = _nonlinear(a, basis, rot, lam0)
        b = Q * Na
        b += E2u
        Nb = _nonlinear(b, basis, rot, lam0)
        c = 2.0 * Nb
        c -= Nu
        np.multiply(Q, c, c)
        c += E2 * a                                     # E2 a + Q (2 Nb - Nu)
        Nc = _nonlinear(c, basis, rot, lam0)
        unew = E * u
        unew += np.multiply(f1, Nu, Nu)
        Na += Nb
        unew += np.multiply(f2x2, Na, Na)
        unew += np.multiply(f3, Nc, Nc)                 # E u + f1 Nu + 2 f2 (Na + Nb) + f3 Nc
    if not np.isfinite(unew.view(float)).all(1).any():
        raise BlowupSignal("update left floating-point range", state)
    r = state.r + (np.array(dr) if isinstance(dr, tuple) else dr)
    return _state(unew[0] if one else unew, basis, r, state.theta)


def _h1_diff(u1: ComplexField, u2: ComplexField) -> list:
    """H^1 distance of each row of two stacks."""
    l2, grads = _norms(u1.coeffs - u2.coeffs, u1.basis)
    return [math.hypot(x, y) for x, y in zip(l2, grads)]


@dataclass
class _History:
    r: list = dc_field(default_factory=list)
    h1: list = dc_field(default_factory=list)
    sup: list = dc_field(default_factory=list)
    grad: list = dc_field(default_factory=list)
    w0: list = dc_field(default_factory=list)

    def push(self, state: ComplexField, h1: float, grad: float):
        self.r.append(state.r)
        self.h1.append(h1)
        self.sup.append(state.sup_norm())
        self.grad.append(grad)
        self.w0.append(state.at_zero())

    def arrays(self) -> dict:
        return {name: np.array(values) for name, values in vars(self).items()}


def _control(state, stops, err_target, norm_threshold, history, fields, on_accept):
    """One ray's step control through its ascending stops, as a generator.

    It yields (state, dr) for each step it wants tried and is sent back
    (err, coeffs, r, l2, grad): the step-doubling H^1 distance, then the
    two-half-step result with its arclength and norms (all nan when the
    step left floating-point range).  At each stop dr restarts on the
    ladder and a copy of the state goes to fields; history gets the start
    and every accepted step.  It returns (state, status).
    """
    if history is not None:
        (l2,), (grad,) = _norms(state.coeffs[None], state.basis)
        history.push(state, math.hypot(l2, grad), grad)
    dr_init = 1e-2 if state.sectorial else 2e-3
    for stop in stops:
        # keep dr on the binary ladder DR_MIN * 2^j: the phi-function tables for
        # dr and dr/2 are then reused across steps instead of rebuilt
        dr = DR_MIN * 2.0 ** max(0, math.floor(math.log2(min(dr_init, max(stop - state.r, DR_MIN)) / DR_MIN)))
        while state.r < stop * (1.0 - 1e-15) and stop > state.r:
            dr_try = min(dr, stop - state.r)
            err, coeffs, r, l2, grad = yield state, dr_try
            e = err / 15.0
            if math.isfinite(e):
                h1 = math.hypot(l2, grad)
                tol = err_target * dr_try * max(1.0, h1)
                if e <= tol:
                    prev, state = state, _state(coeffs, state.basis, r, state.theta)
                    if history is not None:
                        history.push(state, h1, grad)
                    if on_accept is not None and on_accept(prev, state) is False:
                        return state, REASON_CAPTURED
                    if norm_threshold is not None and h1 >= norm_threshold:
                        return state, REASON_NORM
                    # doubling is taken only when the fifth-order estimate
                    # predicts the doubled step still passes with a 20% margin
                    if e == 0.0 or tol / e > 40.0:
                        dr *= 2.0
                    continue
            # a rejected step: a non-finite estimate (a BlowupSignal
            # included) quarters dr, an estimate over tol halves it
            dr /= 2.0 if math.isfinite(e) else 4.0
            if dr < DR_MIN:
                return state, REASON_STEP
        if fields is not None:
            fields.append(state.copy())
    return state, REASON_HORIZON


def _advance(
    state,
    stops,
    lam: float,
    *,
    err_target: float = 1e-9,
    norm_threshold: float | None = None,
    history=None,
    fields=None,
    on_accept=None,
):
    """Adaptive ETDRK4 through the ascending arclengths in stops (one float
    or several); returns (state, status).

    err_target is the relative H^1 error budget per unit ray length,
    estimated by step doubling.  The first step is 1e-2 on sectorial rays
    and 2e-3 on vertical ones.  on_accept(prev, new) may return False to
    stop the run early (status CAPTURED).  history and fields, when given,
    hold one _History and one list per ray; see _control.

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
    if not (err_target > 0.0 and (norm_threshold is None or norm_threshold > 0.0)):
        raise DomainError(f"need err_target > 0 and norm_threshold > 0, got {err_target}, {norm_threshold}")
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
               for i, (ray, hist, fs) in enumerate(zip_longest(rays, history or (), fields or ()))]
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
            states, drs = zip(*asks)
            # a stack of one steps a view of its row with a float dr; a larger
            # stack gets tables with one row per ray, because numpy broadcasts
            # one row over many slowly
            if len(live) == 1:
                u, full, half = states[0].coeffs[None], drs[0], drs[0] / 2.0
            else:
                u, full, half = np.array([s.coeffs for s in states]), drs, tuple(dr / 2.0 for dr in drs)
            stack = _state(u, basis, np.array([s.r for s in states]), theta)
            try:
                u_full = step(stack, full, lam)
                u_half = step(step(stack, half, lam), half, lam)
                results = zip(_h1_diff(u_full, u_half), u_half.coeffs, u_half.r.tolist(),
                              *_norms(u_half.coeffs, basis))
            except BlowupSignal:        # no row stayed finite
                results = [(math.nan,) * 5] * len(live)
            pending = [(i, ctrl, res) for (i, ctrl), res in zip(live, results)]
    return ends[0] if one else tuple(map(list, zip(*ends)))


# ---------------------------------------------------------------------------
# ray runs


@dataclass
class RayRun:
    """One ray advanced through ascending stops: where it ended and why.

    history holds r, h1, sup, grad and w0 of the start and of every accepted
    step; fields holds a copy of the state at each stop reached.
    """

    final_state: ComplexField
    reason: str               # NORM_THRESHOLD | STEP_COLLAPSE | CAPTURED | HORIZON
    lam: float
    history: dict
    fields: list[ComplexField]

    @property
    def r_star_lower(self) -> float:
        """Arclength certified with finite H^1 norm."""
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
    def near_resonant_lambda(self) -> bool:
        """True when lam is within 1e-9 (relative) of a homogeneous resonance, n <= 3, m <= 40."""
        from .resonance import homogeneous_resonant_lambdas

        return any(abs(self.lam - lp) <= 1e-9 * lp
                   for n in (1, 2, 3) for _m, lp in homogeneous_resonant_lambdas(n, 40))

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
    runs = [RayRun(end, why, float(lam), hist.arrays(), fs)
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
    return _run(state, mags, lam, err_target=err_target, norm_threshold=NORM_THRESHOLD)


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
    sign = {"+": 1, "-": -1}.get(direction)
    if sign is None:
        raise DomainError(f"direction must be '+' or '-' (got {direction!r})")

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
        cos_table = np.cos(_TWO_PI * np.outer(np.linspace(0.0, 0.5, 129), np.arange(N)))
        max_increase = -math.inf

        def capture(prev: ComplexField, new: ComplexField) -> bool:
            nonlocal max_increase
            inc = float(np.max((cos_table @ (new.coeffs - prev.coeffs)).real))
            max_increase = max(max_increase, inc)
            dist = ComplexField(new.coeffs - target_coeffs, new.basis).h1_norm()
            return not dist < 1e-6

    record = _run(w0, [r_max], bp.lam, err_target=err_target, norm_threshold=NORM_THRESHOLD,
                  on_accept=capture)
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
    defined: bool
    censored: bool            # True when the heat leg reached r_cap intact
    reason: str


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
    are recorded as undefined.  Every divergent horizontal leg, the s = 0
    one included, that passed NORM_THRESHOLD / 4 is refined by bisection on
    the crossing arclength (see _refine_crossing).

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
    starts = {s: ComplexField(top.coeffs.copy(), top.basis, 0.0, 0.0)
              for s, top in tops.items() if top is not None}
    legs = dict(zip(starts, _run(list(starts.values()), [float(r_cap)], lam, err_target=err_target,
                                 norm_threshold=NORM_THRESHOLD))) if starts else {}
    samples: dict[float, BoundarySample] = {}
    for s, top in tops.items():
        if top is None:
            samples[s] = BoundarySample(s=s, r_star=None, defined=False, censored=False,
                                        reason="vertical leg diverged before reaching s")
            continue
        start, rec = starts[s], legs[s]
        r_star = rec.r_star_lower
        if rec.diverged:
            r_star = _refine_crossing(start, lam, rec, NORM_THRESHOLD, err_target)
        samples[s] = BoundarySample(s=s, r_star=float(r_star), defined=True,
                                    censored=not rec.diverged, reason=rec.reason)

    ordered = [samples[float(s)] for s in svals]
    divergent = [b for b in ordered if b.defined and not b.censored]
    corner = None
    if divergent:
        best = min(divergent, key=lambda b: (b.r_star, abs(b.s)))
        corner = (best.r_star, best.s)
    return BoundaryScan(samples=ordered, corner=corner)


_REFINE_ITERS = 30
_REFINE_WIDTH = 1e-6   # relative width at which the crossing bisection stops


def _refine_crossing(start, lam, rec, norm_threshold, err_target):
    """Bisection sharpening of the threshold-crossing arclength.

    Restarts from the last recorded state below norm_threshold / 4 (re-run
    cheaply to that checkpoint) and bisects on the crossing radius.  A leg
    that ended below norm_threshold / 4 never crossed and is returned as is.
    """
    below = np.nonzero(rec.history["h1"] < norm_threshold / 4.0)[0]
    if len(below) == 0 or below[-1] == len(rec.history["r"]) - 1:
        return rec.r_star_lower
    lo, hi = float(rec.history["r"][below[-1]]), float(rec.r_star_lower)
    ck, status = _advance(start.copy(), lo, lam, err_target=err_target)
    if status != REASON_HORIZON:
        return rec.r_star_lower
    for _ in range(_REFINE_ITERS):
        if hi - lo < _REFINE_WIDTH * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        probe, status = _advance(
            ck.copy(), mid, lam,
            err_target=err_target, norm_threshold=norm_threshold,
        )
        if status == REASON_HORIZON and probe.h1_norm() < norm_threshold:
            lo = mid
        else:
            hi = mid
    return lo
