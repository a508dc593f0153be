"""Global phase portraits of dw/dt = f(w) on a compactified disk.

The chart p = w / (1 + |w|) maps the plane onto the open unit disk; the
boundary circle collects the directions of escape to infinity.  Writing
delta = 1 - |p| (so |w| = (1 - delta) / delta) and beta = arg p = arg w, the
pushforward of the field, rescaled by the Euler multiplier delta^(d-1), is

    F(p) = delta^(d-1) [ (delta^2 + delta) f(w)
                          + (delta^2 - delta) e^(2 i beta) conj(f(w)) ] / 2,

which extends continuously to the closed disk.  Near the boundary the stable
evaluation goes through P(z) = prod_j (1 - e_j z) with z = 1/w:

    F(p) = e^(i beta) (1 - delta)^d [ delta Re G + i Im G ],
    G    = e^(i (d-1) beta) P(z),

and at delta = 0 the angular motion reduces to beta' = sin((d-1) beta) with
radial rate delta'/delta = -cos((d-1) beta).  The boundary circle therefore
carries 2(d-1) hyperbolic saddles at the angles alpha_k = pi k / (d-1)
(disk position e^(-i alpha_k)): even k receives a blow-up orbit from the
interior, odd k emits a blow-down orbit into it.  Both parities alternate
around the circle regardless of chart conventions.

Tracing each saddle's radial separatrix (backward in time for even k,
forward for odd) lands on an interior equilibrium; consecutive boundary
sectors then witness the edges of a planar tree on the equilibria, each edge
exactly twice, and the pairing of sectors by shared edge is a noncrossing
chord diagram.  Rotation classes of these diagrams classify the portraits,
and a class's canonical code is the least opener/closer code over its
rotations.  A code determines its diagram, so exactly one diagram of each
class has that least code as its own code; `enumerate_codes` keeps those
diagrams, checked as arrays in batches, `count_portraits` evaluates the
closed counting formula, and `enumerate_diagrams` builds the kept diagram
of each class.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DegenerateFieldError, DomainError
from .scalar_ode import PolyField, degeneracy_scan

SOURCE, SINK, CENTER = "SOURCE", "SINK", "CENTER"


# ---------------------------------------------------------------------------
# compactified field


@dataclass
class DiskField:
    """The rescaled field F on the closed unit disk for a PolyField."""

    base: PolyField

    def __post_init__(self):
        if self.base.degree < 2:
            raise DomainError("compactification needs degree >= 2")

    @property
    def degree(self) -> int:
        return self.base.degree

    @property
    def saddle_angles(self) -> np.ndarray:
        """alpha_k = pi k / (d-1), k = 0 .. 2d-3; disk position e^(-i alpha_k)."""
        d = self.degree
        return math.pi * np.arange(2 * d - 2) / (d - 1)

    def saddle_parity(self, k: int) -> str:
        """'blowup' for even k (orbit arrives), 'blowdown' for odd (orbit leaves)."""
        return "blowup" if k % 2 == 0 else "blowdown"

    def p_of_w(self, w: complex) -> complex:
        return w / (1.0 + abs(w))

    def velocity(self, p: complex) -> complex:
        """F(p); continuous up to the boundary, zero exactly at equilibria
        and boundary saddles.

        Points slightly outside the closed disk (integrator trial steps) see
        the boundary angular field plus a gentle inward pull, so adaptive
        solvers can overshoot |p| = 1 without leaving the field's domain.
        """
        d = self.degree
        ap = abs(p)
        if ap >= 1.0:
            u = p / ap
            beta = math.atan2(p.imag, p.real)
            return 1j * u * math.sin((d - 1) * beta) - (ap - 1.0) * u
        delta = 1.0 - ap
        if delta > 0.35:
            w = p / delta
            fw = complex(self.base(w))
            if ap == 0.0:
                # the e^(2 i beta) factor is multiplied by delta^2 - delta = 0
                e2ib = 1.0 + 0.0j
            else:
                u = p / ap
                e2ib = u * u
            return (
                delta ** (d - 1)
                * ((delta * delta + delta) * fw + (delta * delta - delta) * e2ib * fw.conjugate())
                / 2.0
            )
        u = p / ap
        z = (delta / (1.0 - delta)) * u.conjugate()
        P = complex(np.prod(1.0 - self.base.roots * z))
        G = u ** (d - 1) * P
        return u * (1.0 - delta) ** d * (delta * G.real + 1j * G.imag)


def classify_interior(fld: PolyField) -> list[str]:
    """SOURCE / SINK / CENTER for each root by the sign of Re f'(e_j).

    A CENTER verdict means |Re f'(e_j)| is below 1e-8 relative to the
    largest |f'|: the portrait is degenerate (not Morse) there, and a
    warning is emitted.
    """
    fp = fld.fprime_at_roots()
    thr = 1e-8 * max(1.0, float(np.max(np.abs(fp))))
    out = []
    for j, v in enumerate(fp):
        if v.real > thr:
            out.append(SOURCE)
        elif v.real < -thr:
            out.append(SINK)
        else:
            out.append(CENTER)
            warnings.warn(
                f"root {j} has Re f' = {v.real:.3e}: linearly degenerate (center)",
                stacklevel=2,
            )
    return out


# ---------------------------------------------------------------------------
# chord diagrams and planar trees


@dataclass(frozen=True)
class ChordDiagram:
    """Perfect noncrossing matching of 2m circle slots, up to nothing.

    Rotation equivalence is handled through `canonical`; two diagrams encode
    the same portrait class iff their canonical codes agree.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise DomainError("a chord diagram needs a chord")
        flat = sorted(s for p in self.pairs for s in p)
        if flat != list(range(2 * len(self.pairs))):
            raise DomainError(f"not a perfect matching of 0..{2 * len(self.pairs) - 1}")
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", norm)
        for (a, b), (c, d) in itertools.combinations(norm, 2):
            if a < c < b < d or c < a < d < b:
                raise DomainError(f"chords {(a, b)} and {(c, d)} cross")

    @property
    def n_slots(self) -> int:
        return 2 * len(self.pairs)

    def code(self) -> str:
        """Opener/closer string: '1' where a chord opens, '0' where it closes."""
        out = ["0"] * self.n_slots
        for a, _b in self.pairs:
            out[a] = "1"
        return "".join(out)

    def rotate(self, t: int) -> "ChordDiagram":
        n = self.n_slots
        return ChordDiagram(tuple(((a + t) % n, (b + t) % n) for a, b in self.pairs))

    def canonical_code(self) -> str:
        """Least code over all rotations of the diagram."""
        n = self.n_slots
        offsets = np.zeros((1, n), dtype=np.int64)
        for a, b in self.pairs:
            offsets[0, a], offsets[0, b] = b - a, n - (b - a)
        _own, least = _canonical_codes(offsets)
        return format(least[0], f"0{n}b")

    def canonical(self) -> "ChordDiagram":
        return ChordDiagram.from_code(self.canonical_code())

    @classmethod
    def from_code(cls, code: str) -> "ChordDiagram":
        stack: list[int] = []
        pairs = []
        for s, ch in enumerate(code):
            if ch == "1":
                stack.append(s)
            elif ch != "0":
                raise DomainError(f"code {code!r} has a character other than 0 and 1")
            else:
                if not stack:
                    raise DomainError(f"unbalanced code {code!r}")
                pairs.append((stack.pop(), s))
        if stack:
            raise DomainError(f"unbalanced code {code!r}")
        return cls(tuple(pairs))


@dataclass
class PlanarTree:
    """Tree with an explicit rotational (counterclockwise) order at each vertex."""

    neighbors: dict[int, list[int]]

    def __post_init__(self):
        edges = set()
        for v, nbrs in self.neighbors.items():
            if len(set(nbrs)) != len(nbrs):
                raise DomainError(f"repeated neighbor at vertex {v}")
            for u in nbrs:
                if v not in self.neighbors.get(u, []):
                    raise DomainError(f"adjacency not symmetric at edge {{{u}, {v}}}")
                edges.add(frozenset((u, v)))
        n = len(self.neighbors)
        if len(edges) != n - 1:
            raise DomainError(f"{len(edges)} edges on {n} vertices is not a tree")
        # connectivity
        seen = set()
        stack = [next(iter(self.neighbors))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(self.neighbors[v])
        if len(seen) != n:
            raise DomainError("tree is not connected")

    def degree(self, v) -> int:
        return len(self.neighbors[v])


def tree_to_chord(tree: PlanarTree) -> ChordDiagram:
    """Contour walk of a planar tree -> canonical noncrossing chord diagram.

    Walking around the tree traverses every edge twice; slots are the walk
    steps and the two traversals of an edge are matched.  Rotating the
    starting dart rotates the diagram, so the canonical form is independent
    of the start.
    """
    if len(tree.neighbors) < 2:
        raise DomainError("a tree needs an edge to have a chord diagram")
    v0 = min(tree.neighbors)
    u, v = v0, tree.neighbors[v0][0]
    labels = []
    n_steps = 2 * (len(tree.neighbors) - 1)
    for _ in range(n_steps):
        labels.append(frozenset((u, v)))
        j = tree.neighbors[v].index(u)
        u, v = v, tree.neighbors[v][(j + 1) % len(tree.neighbors[v])]
    return _contour_chord(labels)


def _contour_chord(edges) -> ChordDiagram:
    """Canonical chord diagram of a closed contour walk: the two steps over each edge paired."""
    first, pairs = {}, []
    for s, e in enumerate(edges):
        if e in first:
            pairs.append((first.pop(e), s))
        else:
            first[e] = s
    assert not first, "open walk: not a closed contour"
    return ChordDiagram(tuple(pairs)).canonical()


def chord_to_tree(diagram: ChordDiagram) -> PlanarTree:
    """Region dual of a noncrossing chord diagram: the planar tree it encodes.

    Walking the circle once, every chord opening descends into a fresh region
    and its closing pops back out; regions are the tree vertices, chords the
    edges, and the encounter order around a region is its rotation.
    """
    partner = {}
    for a, b in diagram.pairs:
        partner[a], partner[b] = b, a
    neighbors: dict[int, list[int]] = defaultdict(list)
    cur, fresh = 0, 0
    stack: list[int] = []
    for s in range(diagram.n_slots):
        if s < partner[s]:
            fresh += 1
            neighbors[cur].append(fresh)
            neighbors[fresh].append(cur)
            stack.append(cur)
            cur = fresh
        else:
            cur = stack.pop()
    return PlanarTree(dict(neighbors))


#: largest degree `enumerate_codes` and `enumerate_diagrams` accept
ENUMERATE_MAX_D = 16

#: Dyck words up to this many chords are kept in memory while enumerating
_MEMO_CHORDS = 6

#: diagrams canonicalized per batch while enumerating
_BATCH = 1024


def _canonical_codes(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Own and least-rotation opener/closer codes of a batch of chord diagrams.

    Row b of `offsets` holds (partner(s) - s) mod n for each slot s of one
    diagram.  Rotating a diagram to start at slot c keeps the opener/closer
    bit of every chord that does not straddle the cut before c and swaps the
    two bits of every chord that does.  The straddling chords are tracked as
    one bit mask per diagram while c advances, so each rotation costs a few
    array operations over the whole batch, and slot 0 is the most
    significant bit so integer order is string order.  Codes of up to 64
    slots are uint64, whose shifts wrap modulo 2^64 and so keep every bit
    under the mask; longer ones are Python integers.  The own code is the
    rotation to slot 0, the diagram's code itself.
    """
    n = offsets.shape[1]
    dtype = np.uint64 if n <= 64 else object
    bit = np.array([1 << (n - 1 - s) for s in range(n)], dtype=dtype)
    # one row per slot and one column per diagram: ends[s] = s + offset is
    # the partner slot of an opener and the partner plus n of a closer
    ends = np.ascontiguousarray(offsets.T) + np.arange(n, dtype=np.int16)[:, None]
    code = bit @ (ends < n)
    partner = np.tile(bit, 2)
    full = (1 << n) - 1
    best = code.copy()
    straddling = np.zeros_like(code)
    for c in range(1, n):
        straddling ^= bit[c - 1] | partner[ends[c - 1]]
        rotated = code ^ straddling
        np.minimum(best, ((rotated << c) | (rotated >> (n - c))) & full, out=best)
    return code, best


def _dyck_offsets(m: int, n: int, memo: dict):
    """Stream the Dyck words with m chords as offset sequences mod n.

    A word is 1 A 0 B for Dyck words A and B.  Offsets do not depend on
    where a word sits, so the offsets of the word are those of its first
    chord around those of A, followed by those of B.  `memo` holds the
    short words; longer ones are regenerated, so no list of all
    Catalan(m) words is ever built.
    """
    if m in memo:
        yield from memo[m]
        return
    for i in range(m):
        opener, closer = bytes((2 * i + 1,)), bytes((n - 2 * i - 1,))
        for inner in _dyck_offsets(i, n, memo):
            head = opener + inner + closer
            for tail in _dyck_offsets(m - 1 - i, n, memo):
                yield head + tail


def check_enumerable(d: int) -> None:
    """Raise DomainError unless `enumerate_codes(d)` accepts d."""
    if d < 2:
        raise DomainError("need d >= 2")
    if d > ENUMERATE_MAX_D:
        raise DomainError(f"enumeration beyond d = {ENUMERATE_MAX_D} is unreasonably large")


def enumerate_codes(d: int) -> list[str]:
    """Sorted canonical codes of all rotation classes with d - 1 chords.

    A code determines its diagram, so in each class exactly one diagram has
    the class's least code as its own code.  Every diagram has a chord
    between neighbouring slots, and rotating it to slots 0 and 1 gives a
    code that starts 10, so the least code starts 10 and only the
    Catalan(d-2) words 1 0 W are streamed.  They are checked _BATCH at a
    time, and a word is kept when its own code equals its least code, so
    memory holds one batch besides the codes; no `ChordDiagram` is built.
    """
    check_enumerable(d)
    m = d - 1
    n = 2 * m
    memo: dict = {0: [b""]}
    for k in range(1, min(m - 1, _MEMO_CHORDS + 1)):
        memo[k] = list(_dyck_offsets(k, n, memo))
    lead = bytes((1, n - 1))
    words = (lead + tail for tail in _dyck_offsets(m - 1, n, memo))
    spec = f"0{n}b"
    codes = []
    while batch := b"".join(itertools.islice(words, _BATCH)):
        own, least = _canonical_codes(np.frombuffer(batch, dtype=np.uint8).reshape(-1, n))
        codes += [format(b, spec) for b in least[own == least].tolist()]
    codes.sort()
    return codes


def enumerate_diagrams(d: int) -> list[ChordDiagram]:
    """Canonical representatives of all rotation classes with d - 1 chords.

    One `ChordDiagram` per code of `enumerate_codes(d)`, in the same order.
    """
    return [ChordDiagram.from_code(code) for code in enumerate_codes(d)]


def _totient(n: int) -> int:
    out, p, m = n, 2, n
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def count_portraits(d: int) -> int:
    """Number of rotation classes of (d-1)-chord diagrams, exactly.

    Closed form (valid for d >= 3; d = 2 is the single one-chord diagram,
    where the formula's symmetry bookkeeping degenerates and is special-cased):

        A = C(2(d-1), d-1) / (2(d-1)d)
          + C(d, d/2) / (4(d-1))                    [even d only]
          + phi(d-1) / (d-1)
          + sum over divisors 2 <= k <= d-2 of d-1:
                C(2k, k) phi((d-1)/k) / (2(d-1))
    """
    if d < 2:
        raise DomainError("need d >= 2")
    if d == 2:
        return 1
    m = d - 1
    total = Fraction(math.comb(2 * m, m), 2 * m * d)
    if d % 2 == 0:
        total += Fraction(math.comb(d, d // 2), 4 * m)
    total += Fraction(_totient(m), m)
    for k in range(2, d - 1):
        if m % k == 0:
            total += Fraction(math.comb(2 * k, k) * _totient(m // k), 2 * m)
    assert total.denominator == 1, "count formula did not produce an integer"
    return int(total)


# ---------------------------------------------------------------------------
# separatrix tracing


@dataclass
class Separatrix:
    saddle: int              # boundary saddle index k, angle pi k / (d-1)
    kind: str                # 'blowup' (traced backward) | 'blowdown' (forward)
    target: int | None       # interior equilibrium index reached, if resolved
    points: np.ndarray       # disk-chart samples (complex)
    times: np.ndarray        # solver times for the samples (sign of the trace)
    resolved: bool
    boundary_return: tuple | None = None  # (angle, delta) when it came back out


@dataclass
class PortraitGraph:
    """Everything extracted from one traced portrait."""

    roots: np.ndarray
    classes: list[str]
    saddle_angles: np.ndarray
    separatrices: list[Separatrix]
    sector_edges: list[frozenset] | None
    tree: PlanarTree | None
    chord: ChordDiagram | None
    chord_code: str | None
    non_morse: bool
    degenerate_subsets: list[tuple[int, ...]] = dc_field(default_factory=list)
    saddle_connections: list = dc_field(default_factory=list)


#: separatrix tracing: disk distance that counts as reaching an equilibrium,
#: the longest integration time, the launch distance inside the boundary
#: circle and DOP853's relative and absolute tolerances
_TRAP_RADIUS = 1e-4
_T_MAX = 3000.0
_LAUNCH_EPS = 1e-6
_RTOL = 1e-10
_ATOL = 1e-12


def trace_and_extract(fld: PolyField) -> PortraitGraph:
    """Trace all boundary separatrices and extract tree and chord code.

    Separatrices launch from (1 - _LAUNCH_EPS) e^(-i alpha_k) and are
    integrated by DOP853 at _RTOL and _ATOL, backward (even k) or forward
    (odd k), for a time of at most _T_MAX, until trapped within _TRAP_RADIUS
    of an interior equilibrium, or back within _LAUNCH_EPS / 2 of the
    boundary.  For a Morse portrait (no centers, strongly nondegenerate)
    the sector walk between consecutive saddles yields the connection tree
    and its canonical chord code; portraits containing centers are still
    traced but flagged non_morse with tree extraction refused (tree and
    chord stay None) and the degenerate residue subsets reported.  A
    degenerate field without centers is refused outright
    (DegenerateFieldError carrying the subsets): every root still looks
    hyperbolic, so nothing in the output would reveal that the sector walk
    sits on a structurally unstable configuration.  Separatrices that return
    to the boundary are recorded as near-saddle-connections, not classified.
    """
    from scipy.integrate import solve_ivp

    disk = DiskField(fld)
    d = fld.degree
    classes = classify_interior(fld)
    non_morse = CENTER in classes
    degenerate = degeneracy_scan(fld)
    if degenerate and not non_morse:
        raise DegenerateFieldError(
            "residue subsets degenerate while all roots look hyperbolic; "
            "refusing to trace",
            subsets=degenerate,
        )
    targets = np.array([disk.p_of_w(complex(e)) for e in fld.roots])
    alphas = disk.saddle_angles

    def rhs_factory(sign: float):
        def rhs(_t, y):
            v = sign * disk.velocity(complex(y[0], y[1]))
            return [v.real, v.imag]
        return rhs

    events = []
    for j in range(d):
        def ev(_t, y, j=j):
            return float(np.hypot(y[0] - targets[j].real, y[1] - targets[j].imag)) - _TRAP_RADIUS
        ev.terminal = True
        ev.direction = -1.0
        events.append(ev)

    def ev_boundary(_t, y):
        return (1.0 - float(np.hypot(y[0], y[1]))) - _LAUNCH_EPS / 2.0
    ev_boundary.terminal = True
    ev_boundary.direction = -1.0
    events.append(ev_boundary)

    separatrices: list[Separatrix] = []
    connections = []
    for k in range(2 * d - 2):
        sign = -1.0 if k % 2 == 0 else 1.0
        p0 = (1.0 - _LAUNCH_EPS) * np.exp(-1j * alphas[k])
        sol = solve_ivp(
            rhs_factory(sign),
            (0.0, _T_MAX),
            [p0.real, p0.imag],
            method="DOP853",
            rtol=_RTOL,
            atol=_ATOL,
            events=events,
        )
        pts = sol.y[0] + 1j * sol.y[1]
        target = None
        resolved = False
        boundary_ret = None
        if sol.status == 1:
            hit = [j for j, te in enumerate(sol.t_events) if len(te)]
            if hit[0] < d:
                target = hit[0]
                resolved = True
            else:
                p_end = complex(sol.y_events[d][0][0], sol.y_events[d][0][1])
                boundary_ret = (float(np.angle(p_end)), float(1.0 - abs(p_end)))
                connections.append(
                    {"saddle": k, "angle": boundary_ret[0], "delta": boundary_ret[1]}
                )
        separatrices.append(
            Separatrix(
                saddle=k,
                kind=disk.saddle_parity(k),
                target=target,
                points=pts,
                times=sign * sol.t,
                resolved=resolved,
                boundary_return=boundary_ret,
            )
        )

    tree = chord = code = None
    sector_edges = None
    if not non_morse and not connections:
        unresolved = [s.saddle for s in separatrices if not s.resolved]
        if unresolved:
            raise ConvergenceError(
                f"separatrices {unresolved} did not resolve within t_max = {_T_MAX}"
            )
        walk = [s.target for s in separatrices]
        m = len(walk)
        sector_edges = [frozenset((walk[s], walk[(s + 1) % m])) for s in range(m)]
        counts = Counter(sector_edges)
        if any(c != 2 for c in counts.values()) or len(counts) != d - 1:
            raise ConvergenceError(
                f"sector walk is not a tree contour: edge multiplicities {dict(counts)}"
            )
        for e in counts:
            a, b = tuple(e)
            if classes[a] == classes[b]:
                raise ConvergenceError(f"edge {set(e)} does not alternate source/sink")
        rot: dict[int, list[int]] = defaultdict(list)
        for s in range(m):
            rot[walk[s]].append(walk[(s + 1) % m])
        tree = PlanarTree(dict(rot))
        chord = _contour_chord(sector_edges)
        code = chord.code()

    return PortraitGraph(
        roots=fld.roots.copy(),
        classes=classes,
        saddle_angles=alphas,
        separatrices=separatrices,
        sector_edges=sector_edges,
        tree=tree,
        chord=chord,
        chord_code=code,
        non_morse=non_morse,
        degenerate_subsets=degenerate,
        saddle_connections=connections,
    )
