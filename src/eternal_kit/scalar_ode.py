"""Spatially homogeneous dynamics in complex time: dw/dt = f(w).

Constant-in-x solutions of the PDE family reduce to scalar ODEs with a monic
polynomial right-hand side f(w) = prod_j (w - e_j).  This module integrates
such fields along polylines in complex time, computes the residue data

    eta_j = 1 / f'(e_j),     sum_j eta_j = 0   (degree >= 2),

whose scaled values 2 pi i eta_j are the imaginary periods around each
equilibrium, and classifies the closure of the subgroup of complex time
shifts they generate (Z, Z^2, R, R x Z, or R^2, with an AMBIGUOUS verdict
when the decision would rest on a near-rational ratio).

For the normalized quadratic f(w) = w^2 - 1 the real-time orbit through 0 is
the explicit kink Gamma(t) = -tanh(t), with poles at t = i pi (k + 1/2); in
imaginary time every non-equilibrium orbit is periodic with period pi, some
passing through w = infinity.  Degree 2 is special in that the chart v = 1/w
pulls the field back to another polynomial, so `integrate` can continue
orbits across infinity on the Riemann sphere; for other degrees leaving
|w| = ESCAPE_RADIUS is reported as blow-up instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConvergenceError, DomainError, PoleSignal

#: |w| at which `integrate` ends a run without the 1/w chart as blow-up
ESCAPE_RADIUS = 1e12
#: rising crossings of this |w| are recorded as sup_crossings
SUP_THRESHOLD = 1e6
#: a degree-2 run moves to the chart v = 1/w when |w| rises past _SWAP_OUT,
#: and back when |w| falls below _SWAP_IN
_SWAP_OUT, _SWAP_IN = 4.0, 2.0


def quadratic_orbit(t):
    """The explicit orbit Gamma(t) = -tanh(t) of dw/dt = w^2 - 1 through 0.

    Accepts real or complex input; raises PoleSignal within 1e-12 of the
    poles t = i pi (k + 1/2).
    """
    tv = np.asarray(t, dtype=complex)
    k = np.round(tv.imag / math.pi - 0.5)
    dist = np.hypot(tv.real, tv.imag - math.pi * (k + 0.5))
    if np.any(dist < 1e-12):
        raise PoleSignal("quadratic orbit evaluated within 1e-12 of a pole")
    vals = -np.tanh(tv)
    if np.ndim(t) == 0:
        v = complex(vals)
        return v.real if v.imag == 0.0 else v
    if np.isrealobj(np.asarray(t)):
        return vals.real
    return vals


@dataclass
class PolyField:
    """Monic polynomial vector field f(w) = prod_j (w - e_j) with simple roots."""

    roots: np.ndarray

    def __post_init__(self):
        r = np.atleast_1d(np.asarray(self.roots, dtype=complex))
        if r.ndim != 1 or r.size == 0:
            raise DomainError("need a nonempty 1-d array of roots")
        scale = max(1.0, float(np.max(np.abs(r))))
        for i, j in itertools.combinations(range(len(r)), 2):
            if abs(r[i] - r[j]) < 1e-8 * scale:
                raise DomainError(
                    f"roots {i} and {j} closer than 1e-8 relative: {r[i]} ~ {r[j]}"
                )
        self.roots = r

    @classmethod
    def quadratic(cls) -> "PolyField":
        """The normalized field w^2 - 1."""
        return cls(np.array([1.0 + 0j, -1.0 + 0j]))

    @classmethod
    def cyclotomic(cls, d: int) -> "PolyField":
        """f(w) = w^d - 1 via its root set, the d-th roots of unity."""
        if d < 1:
            raise DomainError("degree must be positive")
        return cls(np.exp(2j * math.pi * np.arange(d) / d))

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def coeffs(self) -> np.ndarray:
        """Monic coefficients, highest power first (np.poly convention)."""
        return np.poly(self.roots)

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        return np.prod(w[..., None] - self.roots, axis=-1)

    def fprime_at_roots(self) -> np.ndarray:
        """f'(e_j) = prod_{k != j} (e_j - e_k), exactly the residue inverses."""
        diff = self.roots[:, None] - self.roots[None, :]
        np.fill_diagonal(diff, 1.0)
        return np.prod(diff, axis=1)

    @property
    def eta(self) -> np.ndarray:
        """Residues eta_j = 1 / f'(e_j); they sum to zero for degree >= 2."""
        return 1.0 / self.fprime_at_roots()


@dataclass
class OdeTrajectory:
    """Samples of one complex-time integration (concatenated over segments)."""

    t: np.ndarray            # positions in complex time
    w: np.ndarray            # solution values (inf where passing through infinity)
    sigma: np.ndarray        # cumulative arclength parameter along the path
    final: complex | None
    diverged: bool = False
    blowup_sigma: float | None = None
    blowup_t: complex | None = None
    sup_crossings: list = dc_field(default_factory=list)  # (sigma, t) with |w| rising past threshold
    chart_swaps: int = 0


def integrate(
    fld: PolyField,
    w0: complex,
    path,
    *,
    t_eval_per_unit: int = 0,
) -> OdeTrajectory:
    """Integrate dw/dt = f(w) from w0 along the polyline 0 -> path[0] -> ...

    Each segment is parametrized by arclength sigma with dw/dsigma equal to
    the segment direction times f(w).  For degree-2 fields the integration
    swaps to the v = 1/w chart when |w| grows past _SWAP_OUT = 4 and back
    when it falls below _SWAP_IN = 2, so orbits continue regularly through
    infinity; otherwise crossing ESCAPE_RADIUS terminates the run as
    blow-up.  Crossings of SUP_THRESHOLD (rising |w|) are recorded with
    their path position.  t_eval_per_unit > 0 adds that many uniform samples
    per unit arclength on top of the solver's own steps.  A non-finite w0 or
    path point, or a negative t_eval_per_unit, raises DomainError.
    """
    from scipy.integrate import solve_ivp

    waypoints = [complex(p) for p in np.atleast_1d(np.asarray(path, dtype=complex))]
    if not (np.isfinite(w0) and np.all(np.isfinite(waypoints))):
        raise DomainError("w0 and every path point must be finite")
    if t_eval_per_unit < 0:
        raise DomainError(f"samples per unit arclength must be >= 0, got {t_eval_per_unit}")
    sphere_chart = fld.degree == 2
    sup = _radius_event(SUP_THRESHOLD, terminal=False)
    if sphere_chart:
        _, c1, c0 = fld.coeffs
        w_events = [sup, _radius_event(_SWAP_OUT, terminal=True)]
        back = _radius_event(1.0 / _SWAP_IN, terminal=True)  # |w| falling below _SWAP_IN
    else:
        # A steep pole stalls the solver while |w| is still far below
        # ESCAPE_RADIUS, so record entry into the far field (vector field
        # dominated by the leading power) as a blow-up witness for min-step
        # failures.
        far_field = 10.0 * (1.0 + float(np.max(np.abs(fld.roots))))
        w_events = [sup, _radius_event(ESCAPE_RADIUS, terminal=True),
                    _radius_event(far_field, terminal=False)]

    ts, ws, sigmas = [np.empty(0, dtype=complex)], [np.empty(0, dtype=complex)], [np.empty(0)]
    crossings: list[tuple[float, complex]] = []
    swaps = 0
    in_v = sphere_chart and abs(w0) > _SWAP_OUT
    z = 1.0 / w0 if in_v else w0
    y = np.array([z.real, z.imag])
    t_here = 0.0 + 0.0j
    sigma0 = 0.0
    diverged = False
    blow_sigma = blow_t = None

    for target in waypoints:
        seg = target - t_here
        seg_len = abs(seg)
        if seg_len == 0.0:
            continue
        direction = seg / seg_len

        def w_rhs(_s, yy):
            w = complex(yy[0], yy[1])
            dw = direction * np.prod(w - fld.roots)
            return [dw.real, dw.imag]
        w_chart = (w_rhs, w_events)

        if sphere_chart:
            def v_rhs(_s, yy):
                v = complex(yy[0], yy[1])
                dv = -direction * (1.0 + c1 * v + c0 * v * v)
                return [dv.real, dv.imag]

            # |v| can dip under any fixed threshold within one solver step,
            # so detect closest approach to v = 0 (radial speed changing
            # sign) and filter by |v| afterwards.
            def v_sup(s, yy):
                d = v_rhs(s, yy)
                return yy[0] * d[0] + yy[1] * d[1]
            v_sup.direction = 1.0   # minimum of |v| = maximum of |w|
            v_sup.terminal = False
            v_chart = (v_rhs, [v_sup, back])

        s_local = 0.0
        while s_local < seg_len and not diverged:
            rhs, events = v_chart if in_v else w_chart
            t_eval = None
            if t_eval_per_unit > 0:
                n_ev = max(2, int((seg_len - s_local) * t_eval_per_unit))
                t_eval = np.linspace(s_local, seg_len, n_ev)

            sol = solve_ivp(rhs, (s_local, seg_len), y, method="DOP853",
                            rtol=1e-11, atol=1e-13, events=events, t_eval=t_eval)
            vals = sol.y[0] + 1j * sol.y[1]
            ts.append(t_here + direction * sol.t)
            ws.append(_invert_chart(vals) if in_v else vals)
            sigmas.append(sigma0 + sol.t)
            for s_ev, y_ev in zip(sol.t_events[0], sol.y_events[0]):
                if in_v and np.hypot(*y_ev) * SUP_THRESHOLD > 1.0:
                    continue   # closest approach to infinity was not close
                crossings.append((sigma0 + float(s_ev), t_here + direction * s_ev))

            if sol.status == 0:
                s_local = seg_len
                y = sol.y[:, -1].copy()
                continue
            if sol.status == 1:  # terminal event: chart swap or escape
                s_end = float(sol.t_events[1][0])
                if sphere_chart:
                    s_local = s_end
                    z = 1.0 / complex(*sol.y_events[1][0])
                    y = np.array([z.real, z.imag])
                    in_v = not in_v
                    swaps += 1
                    continue
            else:
                # min-step failure: legitimate only as a pole approach.  With
                # t_eval the reported tail can sit well before the failure
                # point, so trust the far-field crossing event as witness.
                far_hits = () if sphere_chart else sol.t_events[2]
                tail_big = (sol.y.size > 0
                            and sol.y[0, -1] ** 2 + sol.y[1, -1] ** 2
                            >= SUP_THRESHOLD ** 2)
                if in_v or not (len(far_hits) or tail_big):
                    raise ConvergenceError(f"integrator failed: {sol.message}")
                s_end = float(sol.t[-1]) if sol.t.size else s_local
                if len(far_hits):
                    s_end = max(s_end, float(far_hits[-1]))
            diverged = True
            blow_sigma = sigma0 + s_end
            blow_t = t_here + direction * s_end

        t_here = target
        sigma0 += seg_len
        if diverged:
            break

    final = None
    if not diverged:
        z = complex(y[0], y[1])
        if in_v:
            z = 1.0 / z if z != 0.0 else complex(math.inf, 0.0)
        final = z

    return OdeTrajectory(
        t=np.concatenate(ts),
        w=np.concatenate(ws),
        sigma=np.concatenate(sigmas),
        final=final,
        diverged=diverged,
        blowup_sigma=blow_sigma,
        blowup_t=blow_t,
        sup_crossings=crossings,
        chart_swaps=swaps,
    )


def _radius_event(radius: float, *, terminal: bool):
    """solve_ivp event for |y| rising past radius, as y0^2 + y1^2 - radius^2."""
    def ev(_s, yy):
        return yy[0] ** 2 + yy[1] ** 2 - radius ** 2
    ev.direction = 1.0
    ev.terminal = terminal
    return ev


def _invert_chart(v: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / v
    w[v == 0.0] = complex(math.inf, 0.0)
    return w


# ---------------------------------------------------------------------------
# imaginary periods and their subgroup closure


@dataclass
class PeriodLattice:
    """Imaginary periods 2 pi i eta_j and the closure of the group they generate."""

    generators: list[complex]
    eta: np.ndarray
    closure: str
    degenerate_subsets: list[tuple[int, ...]]  # complex sums near zero


def period_lattice(fld: PolyField) -> PeriodLattice:
    """Period generators 2 pi i / f'(e_j) and their closure classification.

    Also reports proper index subsets whose residue sums nearly vanish (below
    1e-9 relative) in the full complex sense; each such subset gives a
    closed complex-time loop.
    """
    if fld.degree < 2:
        raise DomainError("period lattice needs degree >= 2")
    eta = fld.eta
    gens = [2j * math.pi * e for e in eta]
    scale = float(np.max(np.abs(eta)))
    subsets = _small_subsets(eta, 1e-9 * scale, key=lambda s: abs(s))
    return PeriodLattice(
        generators=gens,
        eta=eta,
        closure=classify_subgroup_closure(gens),
        degenerate_subsets=subsets,
    )


def _small_subsets(eta: np.ndarray, threshold: float, key) -> list[tuple[int, ...]]:
    d = len(eta)
    if d > 20:
        raise DomainError(f"subset scan limited to degree <= 20, got {d}")
    out = []
    for size in range(1, d):
        for J in itertools.combinations(range(d), size):
            if key(sum(eta[j] for j in J)) < threshold:
                out.append(J)
    return out


def degeneracy_scan(fld: PolyField) -> list[tuple[int, ...]]:
    """Proper nonempty subsets J with |sum_{j in J} Re eta_j| below 1e-8 (relative).

    These are exactly the degeneracies that produce heteroclinic
    saddle-to-saddle connections in the compactified phase portrait; the
    complement of a listed subset is always listed too since the full real
    parts sum to zero.
    """
    eta = fld.eta
    scale = float(np.max(np.abs(eta)))
    return _small_subsets(eta, 1e-8 * scale, key=lambda s: abs(s.real))


#: the thresholds of `_ratio_class`, as `classify_subgroup_closure` describes
_RATIONAL_TOL, _HEIGHT = 1e-12, 10 ** 6
_AMBIGUOUS_TOL, _SMALL_HEIGHT = 1e-8, 1000


def classify_subgroup_closure(generators) -> str:
    """Closure in C of the additive group generated by the given complex numbers.

    Returns one of "Z", "Z2", "R", "RxZ", "R2", "AMBIGUOUS".  Ratios are
    declared rational when a continued-fraction convergent p/q with
    q <= 10^6 matches to 1e-12 (relative); declared AMBIGUOUS when they
    merely come within 1e-8 of a low (q <= 1000) rational, since then the
    verdict would hinge on digits we do not have.
    The names mean: discrete rank 1 / rank 2 lattice, dense line, dense line
    plus transverse lattice, dense plane.
    """
    gens = [complex(g) for g in np.atleast_1d(np.asarray(generators, dtype=complex))]
    if not gens:
        return "Z"
    scale = max(abs(g) for g in gens)
    if scale == 0.0:
        return "Z"
    gens = [g for g in gens if abs(g) > 1e-14 * scale]

    # span test: largest parallelogram area over generator pairs
    pairs = list(itertools.combinations(range(len(gens)), 2))
    best_area, basis = 0.0, None
    for i, j in pairs:
        area = abs((gens[i].conjugate() * gens[j]).imag)
        if area > best_area:
            best_area, basis = area, (gens[i], gens[j])

    if best_area <= 1e-12 * scale * scale:
        base = min(gens, key=abs)
        verdicts = {_ratio_class((g / base).real) for g in gens}
        if "ambiguous" in verdicts:
            return "AMBIGUOUS"
        return "Z" if verdicts <= {"rational"} else "R"

    ga, gb = basis
    det = ga.real * gb.imag - ga.imag * gb.real
    verdicts = set()
    for g in gens:
        x = (g.real * gb.imag - g.imag * gb.real) / det
        y = (ga.real * g.imag - ga.imag * g.real) / det
        verdicts.add(_ratio_class(x))
        verdicts.add(_ratio_class(y))
    if "ambiguous" in verdicts:
        return "AMBIGUOUS"
    if verdicts <= {"rational"}:
        return "Z2"

    return _dense_directions(gens, scale)


def _ratio_class(r: float) -> str:
    """Continued-fraction classification of a real ratio.

    A convergent p/q counts as an exact rational only when its error also
    beats the generic 1/q^2 floor by three orders of magnitude: quadratic
    irrationals dip under any fixed tolerance once q is large (the golden
    ratio reaches 7e-13 within q < 10^6), but never under eps * q^2.
    """
    ref = max(1.0, abs(r))
    x = r
    p_prev, q_prev, p, q = 1, 0, int(math.floor(r)), 1
    err = abs(r - p)
    best_small = err
    while True:
        if err < _RATIONAL_TOL * ref and q <= _HEIGHT and err * q * q < 1e-3 * ref:
            return "rational"
        if q <= _SMALL_HEIGHT:
            best_small = min(best_small, err)
        if q > _HEIGHT:
            break
        frac = x - math.floor(x)
        if frac < 1e-18:
            break
        x = 1.0 / frac
        a = int(math.floor(x))
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        err = abs(r - p / q)
    if best_small < _AMBIGUOUS_TOL * ref:
        return "ambiguous"
    return "irrational"


def _dense_directions(gens: list[complex], scale: float) -> str:
    """Integer-combination reduction to separate dense and lattice directions.

    Repeatedly subtracts nearest-integer multiples of shorter generators from
    longer ones.  Rationally dependent directions telescope to (noise-level)
    zero and are dropped; irrationally dependent ones shrink geometrically
    below dense_tol, marking a dense direction; whatever keeps a stable norm
    transverse to the dense line is a residual lattice factor.
    """
    drop_tol = 1e-12 * scale
    dense_tol = 1e-6 * scale
    V = [np.array([g.real, g.imag]) for g in gens]

    for _ in range(400):
        V = [v for v in V if float(np.hypot(*v)) > drop_tol]
        V.sort(key=lambda v: float(np.hypot(*v)))
        changed = False
        for i in range(1, len(V)):
            for j in range(i):
                denom = float(V[j] @ V[j])
                if denom <= drop_tol * drop_tol:
                    continue
                c = round(float(V[i] @ V[j]) / denom)
                if c != 0:
                    cand = V[i] - c * V[j]
                    if float(np.hypot(*cand)) < float(np.hypot(*V[i])) * (1.0 - 1e-12):
                        V[i] = cand
                        changed = True
        if not changed:
            break

    survivors = [v for v in V if float(np.hypot(*v)) > drop_tol]
    if not survivors:
        return "AMBIGUOUS"
    tiny = [v for v in survivors if float(np.hypot(*v)) <= dense_tol]
    big = [v for v in survivors if float(np.hypot(*v)) > dense_tol]
    if not tiny:
        return "AMBIGUOUS"
    # do the tiny vectors span the plane?
    for u, v in itertools.combinations(tiny, 2):
        cross = abs(u[0] * v[1] - u[1] * v[0])
        if cross > 1e-3 * float(np.hypot(*u)) * float(np.hypot(*v)):
            return "R2"
    return "RxZ" if big else "R"


# ---------------------------------------------------------------------------
# reversible second-order example


@dataclass
class ReversibleReport:
    """Integration record for the reversible oscillator w'' + w'^2 + w^2 - 3w = 0."""

    t: np.ndarray
    w: np.ndarray
    wdot: np.ndarray
    energy: np.ndarray
    energy_drift: float
    return_error_2pi: float | None
    equilibria: tuple[float, float] = (0.0, 3.0)


def periodic_data() -> tuple[float, float]:
    """Initial data of the exact solution w(t) = 2 + sqrt(2) cos t."""
    return (2.0 + math.sqrt(2.0), 0.0)


def homoclinic_data() -> tuple[float, float]:
    """Initial data on the E = 0 level whose orbit is homoclinic to w = 0."""
    return (1.0, math.sqrt(2.0 * (math.exp(-2.0) + 0.5)))


def exact_periodic(t):
    """The closed-form periodic solution 2 + sqrt(2) cos t."""
    return 2.0 + math.sqrt(2.0) * np.cos(np.asarray(t, dtype=float))


def reversible_energy(w, wdot):
    """E = wdot^2/2 - (exp(-2w) - 1 + 2w - w^2/2).

    E is an exact invariant precisely on its zero level (which contains the
    homoclinic orbit); elsewhere dE/dt = -2 wdot E, so it still serves as a
    sensitive integration check along E = 0.
    """
    w = np.asarray(w, dtype=float)
    wdot = np.asarray(wdot, dtype=float)
    return wdot ** 2 / 2.0 - (np.exp(-2.0 * w) - 1.0 + 2.0 * w - w ** 2 / 2.0)


def reversible_example_check(
    w0: float,
    dw0: float,
    t_end: float = 2.0 * math.pi,
    n_samples: int = 2001,
) -> ReversibleReport:
    """Integrate the reversible oscillator and report invariants.

    The reversal symmetry is t -> -t, (w, wdot) -> (w, -wdot); orbits
    crossing wdot = 0 are symmetric arcs.  return_error_2pi holds the phase
    space distance between the states at t = 0 and t = 2 pi whenever the span
    covers a full 2 pi, which vanishes for the exact cosine solution.
    """
    from scipy.integrate import solve_ivp

    t_eval = np.linspace(0.0, t_end, n_samples)

    def rhs(_t, y):
        w, v = y
        return [v, -v * v - w * w + 3.0 * w]

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [w0, dw0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        t_eval=t_eval,
        dense_output=t_end >= 2.0 * math.pi,
    )
    if not sol.success:
        raise ConvergenceError(f"integrator failed: {sol.message}")

    w, wdot = sol.y
    energy = reversible_energy(w, wdot)
    ret = None
    if t_end >= 2.0 * math.pi:
        y2pi = sol.sol(2.0 * math.pi)
        ret = float(np.hypot(y2pi[0] - w0, y2pi[1] - dw0))
    return ReversibleReport(
        t=sol.t,
        w=w,
        wdot=wdot,
        energy=energy,
        energy_drift=float(np.max(np.abs(energy - energy[0]))),
        return_error_2pi=ret,
    )
