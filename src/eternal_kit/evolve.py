"""Complex-time evolution of w_t = w_xx + 6 w^2 - lambda by spectral ETDRK4.

A time ray at angle theta (|theta| <= pi/2) means integrating

    dw/dr = e^(i theta) (w_xx + 6 w^2 - lambda),   r >= 0,

so theta = 0 is the parabolic flow and theta = -pi/2 advances the nonlinear
Schrodinger evolution i psi_s = psi_xx + 6 psi^2 - lambda forward in s
(theta = +pi/2 runs it backward).  States live in one of two spectral bases:

    NEUMANN_HALF   cosine coefficients a_k, k = 0..N-1, on (0, 1/2)
    PERIODIC_UNIT  FFT-ordered exponential coefficients on the unit circle

with complex coefficients in both (no reality constraint anywhere: complex
data is the whole point).  Both bases go to a uniform grid and back through
one cached index map (`_grid_map`).  Quadratic products are computed on a
4N grid, which represents the product exactly, so there is no aliasing.

The stepper is the standard fourth-order exponential time differencing
Runge-Kutta scheme; its phi-function coefficients are evaluated by contour
averaging over 32 roots of unity for |z| < 1 (entire functions: the mean
over a circle equals the center value) and by the closed forms otherwise.
The averages stay complex because the linear symbol e^(i theta)(-(2 pi k)^2)
is complex off the parabolic ray.  Step size is adapted by step doubling:
one full step against two half steps, local error estimated as their
H^1 distance over 2^4 - 1.

Blow-up is reported, never guessed: a run ends with NORM_THRESHOLD when the
H^1 norm passes the threshold (NORM_THRESHOLD = 1e8 unless the caller sets
one), STEP_COLLAPSE when the step would have to fall below the constant
DR_MIN = 1e-12, CAPTURED when the caller's on_accept hook stops it, or
HORIZON when the requested arclength is reached.  Every ray driver returns
a RayRun holding the final state, that reason and the history of accepted
steps.  Its r_star_lower is the arclength actually reached with finite
norm, a certified lower bound for the existence time along that ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import zip_longest

import numpy as np

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
def _grid_map(basis: str, N: int, M: int):
    """Read-only grid modes of N coefficients on M points: (modes, mirror).

    Cosine coefficient k >= 1 is the pair e^(+-2 pi i k x), half of it at
    modes[k] = k and half at mirror[k - 1] = M - k; the circle has no mirror.
    """
    k = _wavenumbers(basis, N).astype(int)
    if M < 2 * np.max(np.abs(k)) + 2:
        raise DomainError(f"grid of {M} points too coarse for {N} modes of {basis}")
    modes = np.mod(k, M)
    mirror = M - modes[1:] if basis == NEUMANN_HALF else modes[:0]
    for arr in (modes, mirror):
        arr.setflags(write=False)
    return modes, mirror


def _to_grid(coeffs: np.ndarray, basis: str, M: int) -> np.ndarray:
    """Point values at x_j = j / M of the series with these coefficients."""
    modes, mirror = _grid_map(basis, len(coeffs), M)
    full = np.zeros(M, dtype=complex)
    full[modes] = coeffs
    if mirror.size:
        full[modes[1:]] = full[mirror] = coeffs[1:] / 2.0
    return np.fft.ifft(full) * M


def _from_grid(values: np.ndarray, basis: str, N: int) -> np.ndarray:
    """The N coefficients of the grid function `values` (assumed even for cosines)."""
    M = len(values)
    modes, mirror = _grid_map(basis, N, M)
    out = (np.fft.fft(values) / M)[modes]
    if mirror.size:
        out[1:] *= 2.0
    return out


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

    def wavenumbers(self) -> np.ndarray:
        return _wavenumbers(self.basis, self.N)

    @property
    def sectorial(self) -> bool:
        """True away from the vertical rays, where the linear part still damps."""
        return abs(math.cos(self.theta)) > 1e-8

    def values(self, M: int | None = None) -> np.ndarray:
        """Complex point values on the uniform grid x_j = j / M."""
        return _to_grid(self.coeffs, self.basis, 4 * self.N if M is None else M)

    def at_zero(self) -> complex:
        return complex(np.sum(self.coeffs))

    def l2_norm(self) -> float:
        a = np.abs(self.coeffs) ** 2
        if self.basis == NEUMANN_HALF:
            return math.sqrt(a[0] / 2.0 + np.sum(a[1:]) / 4.0)
        return math.sqrt(float(np.sum(a)))

    def grad_norm(self) -> float:
        a = np.abs(self.coeffs) ** 2
        om = (_TWO_PI * self.wavenumbers()) ** 2
        if self.basis == NEUMANN_HALF:
            return math.sqrt(float(np.sum(om[1:] * a[1:])) / 4.0)
        return math.sqrt(float(np.sum(om * a)))

    def h1_norm(self) -> float:
        return math.hypot(self.l2_norm(), self.grad_norm())

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
    L = np.exp(1j * theta) * (-((_TWO_PI * _wavenumbers(basis, N)) ** 2))
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

    for arr in (E, E2, Q, F1, F2, F3):
        arr.setflags(write=False)
    return E, E2, dr * Q, dr * F1, dr * F2, dr * F3


def _square(coeffs: np.ndarray, basis: str) -> np.ndarray:
    """Coefficients of w^2, exactly (4N grid holds every product mode)."""
    u = _to_grid(coeffs, basis, 4 * len(coeffs))
    return _from_grid(u * u, basis, len(coeffs))


def _nonlinear(coeffs: np.ndarray, basis: str, theta: float, lam: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        out = 6.0 * _square(coeffs, basis)
        out[0] -= lam
        return np.exp(1j * theta) * out


def step(state: ComplexField, dr: float, lam: float) -> ComplexField:
    """One fixed ETDRK4 step of length dr along the state's ray.

    Raises BlowupSignal (carrying the input state) when the update stops
    being finite; callers turn that into a divergence report.
    """
    if dr <= 0.0:
        raise DomainError("step length must be positive")
    E, E2, Q, f1, f2, f3 = _etdrk4_tables(state.basis, state.N, state.theta, dr)
    u = state.coeffs
    th, lam = state.theta, float(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        Nu = _nonlinear(u, state.basis, th, lam)
        a = E2 * u + Q * Nu
        Na = _nonlinear(a, state.basis, th, lam)
        b = E2 * u + Q * Na
        Nb = _nonlinear(b, state.basis, th, lam)
        c = E2 * a + Q * (2.0 * Nb - Nu)
        Nc = _nonlinear(c, state.basis, th, lam)
        unew = E * u + f1 * Nu + 2.0 * f2 * (Na + Nb) + f3 * Nc
    if not np.all(np.isfinite(unew.view(float))):
        raise BlowupSignal("update left floating-point range", state)
    return ComplexField(unew, state.basis, state.r + dr, state.theta)


def _h1_diff(u1: ComplexField, u2: ComplexField) -> float:
    return ComplexField(u1.coeffs - u2.coeffs, u1.basis, u1.r, u1.theta).h1_norm()


@dataclass
class _History:
    r: list = dc_field(default_factory=list)
    h1: list = dc_field(default_factory=list)
    sup: list = dc_field(default_factory=list)
    grad: list = dc_field(default_factory=list)
    w0: list = dc_field(default_factory=list)

    def push(self, state: ComplexField, h1: float):
        self.r.append(state.r)
        self.h1.append(h1)
        self.sup.append(state.sup_norm())
        self.grad.append(state.grad_norm())
        self.w0.append(state.at_zero())

    def arrays(self) -> dict:
        return {name: np.array(values) for name, values in vars(self).items()}


def _advance(
    state: ComplexField,
    r_target: float,
    lam: float,
    *,
    err_target: float = 1e-9,
    norm_threshold: float | None = None,
    history: _History | None = None,
    on_accept=None,
):
    """Adaptive ETDRK4 from state.r to r_target; returns (state, status).

    err_target is the relative H^1 error budget per unit ray length,
    estimated by step doubling.  The first step is 1e-2 on sectorial rays
    and 2e-3 on vertical ones.  on_accept(prev, new) may return False to
    stop the run early (status CAPTURED).
    """
    if not math.isfinite(r_target):
        raise DomainError(f"r_target must be finite, got {r_target}")
    if r_target < state.r:
        raise DomainError("r_target must lie ahead of the current position")
    u = state
    dr_init = 1e-2 if u.sectorial else 2e-3
    # keep dr on the binary ladder DR_MIN * 2^j: the phi-function tables for
    # dr and dr/2 are then reused across steps instead of rebuilt
    span = max(r_target - u.r, DR_MIN)
    dr = DR_MIN * 2.0 ** max(0, math.floor(math.log2(min(dr_init, span) / DR_MIN)))

    while u.r < r_target * (1.0 - 1e-15) and r_target > u.r:
        dr_try = min(dr, r_target - u.r)
        try:
            u_full = step(u, dr_try, lam)
            u_half = step(step(u, dr_try / 2.0, lam), dr_try / 2.0, lam)
        except BlowupSignal:
            dr /= 4.0
            if dr < DR_MIN:
                return u, REASON_STEP
            continue
        err = _h1_diff(u_full, u_half) / 15.0
        h1 = u_half.h1_norm()
        scale = max(1.0, h1)
        tol = err_target * dr_try * scale
        if not math.isfinite(err):
            dr /= 4.0
            if dr < DR_MIN:
                return u, REASON_STEP
            continue
        if err <= tol:
            prev, u = u, u_half
            if history is not None:
                history.push(u, h1)
            if on_accept is not None and on_accept(prev, u) is False:
                return u, REASON_CAPTURED
            if norm_threshold is not None and h1 >= norm_threshold:
                return u, REASON_NORM
            # doubling is taken only when the fifth-order estimate predicts
            # the doubled step still passes with a 20% margin
            if err == 0.0 or tol / err > 40.0:
                dr *= 2.0
        else:
            dr /= 2.0
            if dr < DR_MIN:
                return u, REASON_STEP
    return u, REASON_HORIZON


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


def _run(state: ComplexField, stops, lam: float, **advance_kw) -> RayRun:
    """Advance state through the ascending arclengths in stops with one history.

    The state at each stop reached is copied into fields; the run ends at the
    first status other than HORIZON.
    """
    hist = _History()
    hist.push(state, state.h1_norm())
    fields: list[ComplexField] = []
    status = REASON_HORIZON
    for stop in stops:
        state, status = _advance(state, float(stop), lam, history=hist, **advance_kw)
        if status != REASON_HORIZON:
            break
        fields.append(state.copy())
    return RayRun(state, status, float(lam), hist.arrays(), fields)


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
    norm_threshold: float = NORM_THRESHOLD,
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
    return _run(state, mags, lam, err_target=err_target, norm_threshold=norm_threshold)


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

    if sign > 0:
        record = detect_blowup(w0, bp.lam, r_max, err_target=err_target)
        return ShootResult(
            direction=sign,
            outcome="blowup" if record.diverged else "unresolved",
            target=target,
            captured_r=None,
            final_distance=math.inf,
            monotone=None,
            max_increase=None,
            record=record,
        )

    target_coeffs = np.zeros(N, dtype=complex)
    target_coeffs[0] = target
    xs = np.linspace(0.0, 0.5, 129)
    cos_table = np.cos(_TWO_PI * np.outer(xs, np.arange(N)))

    max_increase = -math.inf

    def on_accept(prev: ComplexField, new: ComplexField) -> bool:
        nonlocal max_increase
        inc = float(np.max((cos_table @ (new.coeffs - prev.coeffs)).real))
        max_increase = max(max_increase, inc)
        dist = ComplexField(new.coeffs - target_coeffs, new.basis).h1_norm()
        return not dist < 1e-6

    record = _run(w0, [r_max], bp.lam, err_target=err_target, norm_threshold=NORM_THRESHOLD,
                  on_accept=on_accept)
    final = record.final_state
    captured = record.reason == REASON_CAPTURED
    return ShootResult(
        direction=sign,
        outcome="converged" if captured else "unresolved",
        target=target,
        captured_r=record.r_star_lower if captured else None,
        final_distance=ComplexField(final.coeffs - target_coeffs, final.basis).h1_norm(),
        monotone=max_increase <= 1e-8,
        max_increase=max_increase,
        record=record,
    )


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
    Schrodinger run through that side's |s| values, reused across the grid.
    When the vertical leg itself diverges before reaching s, that sample and
    the more distant ones on the same side are recorded as undefined.  A
    divergent horizontal leg that passed NORM_THRESHOLD / 4 is refined by
    bisection on the crossing arclength (see _refine_crossing); the s = 0 leg
    is not refined.

    The reported corner (r0, s0) is the sample minimizing r_star; it is
    descriptive (a rectangle certificate corner), not asserted against any
    theory.
    """
    svals = np.atleast_1d(np.asarray(s_values, dtype=float))
    samples: dict[float, BoundarySample] = {}

    for sign in (1.0, -1.0):
        group = sorted({float(s) for s in svals if math.copysign(1.0, s) == sign and s != 0.0}, key=abs)
        if not group:
            continue
        leg = schrodinger_evolve(gamma0, group, lam, err_target=err_target / 10.0)
        for s, top in zip_longest(group, leg.fields):
            if top is None:
                samples[s] = BoundarySample(
                    s=s, r_star=None, defined=False, censored=False,
                    reason="vertical leg diverged before reaching s",
                )
                continue
            start = ComplexField(top.coeffs.copy(), top.basis, 0.0, 0.0)
            rec = detect_blowup(start, lam, r_cap, err_target=err_target)
            r_star = rec.r_star_lower
            if rec.diverged:
                r_star = _refine_crossing(start, lam, rec, NORM_THRESHOLD, err_target)
            samples[s] = BoundarySample(
                s=s, r_star=float(r_star), defined=True,
                censored=not rec.diverged,
                reason=rec.reason,
            )

    if np.any(svals == 0.0):
        start = ComplexField(gamma0.coeffs.copy(), gamma0.basis, 0.0, 0.0)
        rec = detect_blowup(start, lam, r_cap, err_target=err_target)
        samples[0.0] = BoundarySample(
            s=0.0, r_star=float(rec.r_star_lower), defined=True,
            censored=not rec.diverged, reason=rec.reason,
        )

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
