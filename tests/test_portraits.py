"""Disk-compactified portraits: tracing, trees, chord diagrams, census."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from eternal_kit import portraits, scalar_ode
from eternal_kit.errors import DegenerateFieldError, DomainError

TREE_COUNTS = [1, 1, 2, 3, 6, 14, 34, 95, 280, 854, 2694, 8714, 28640, 95640, 323396]


def random_quartic(seed):
    rng = np.random.default_rng(seed)
    return scalar_ode.PolyField(rng.normal(size=4) + 1j * rng.normal(size=4))


class TestDiskField:
    def test_chart_round_trip(self):
        disk = portraits.DiskField(scalar_ode.PolyField.cyclotomic(3))
        for w in (0.2 + 0.1j, -3.0 + 4.0j, 100.0j):
            p = disk.p_of_w(w)
            # the inverse chart, as velocity's interior branch applies it
            assert abs(p) < 1.0
            assert p / (1.0 - abs(p)) == pytest.approx(w, rel=1e-12)

    def test_rejects_linear_fields(self):
        with pytest.raises(DomainError):
            portraits.DiskField(scalar_ode.PolyField(np.array([0.0 + 0j])))

    def test_saddle_count_and_parity(self):
        disk = portraits.DiskField(scalar_ode.PolyField.cyclotomic(4))
        assert len(disk.saddle_angles) == 6
        assert disk.saddle_parity(0) == "blowup"
        assert disk.saddle_parity(3) == "blowdown"

    def test_velocity_formulas_agree_on_overlap(self):
        """Interior and near-boundary expressions must match where both are
        valid, across several fields and directions."""
        for fld in (scalar_ode.PolyField.cyclotomic(3), random_quartic(5)):
            disk = portraits.DiskField(fld)
            d = fld.degree
            for ap in (0.55, 0.6, 0.64):
                for beta in np.linspace(0.0, 2 * math.pi, 9):
                    p = ap * complex(math.cos(beta), math.sin(beta))
                    delta = 1.0 - ap
                    w = p / delta
                    fw = complex(fld(w))
                    interior = (delta ** (d - 1) / 2.0) * (
                        (delta * delta + delta) * fw
                        + (delta * delta - delta) * (p / ap) ** 2 * np.conj(fw)
                    )
                    assert disk.velocity(p) == pytest.approx(interior, rel=1e-10)

    def test_velocity_vanishes_at_boundary_saddles(self):
        disk = portraits.DiskField(scalar_ode.PolyField.cyclotomic(3))
        for alpha in disk.saddle_angles:
            p = complex(math.cos(-alpha), math.sin(-alpha))
            assert abs(disk.velocity(p)) < 1e-12

    def test_boundary_flow_alternates_between_saddles(self):
        # d(beta)/dt on |p| = 1 is Im(conj(p) F(p)) = sin((d - 1) beta)
        disk = portraits.DiskField(scalar_ode.PolyField.cyclotomic(3))

        def angular_speed(beta):
            p = complex(math.cos(beta), math.sin(beta))
            return (p.conjugate() * disk.velocity(p)).imag

        assert angular_speed(math.pi / 4) > 0
        assert angular_speed(3 * math.pi / 4) < 0

    def test_velocity_points_inward_outside_disk(self):
        disk = portraits.DiskField(scalar_ode.PolyField.cyclotomic(3))
        p = 1.001 * np.exp(0.3j)
        v = disk.velocity(complex(p))
        assert (v * np.conj(p)).real < 0


def test_classify_interior_cyclotomic():
    assert portraits.classify_interior(scalar_ode.PolyField.cyclotomic(3)) == [
        portraits.SOURCE, portraits.SINK, portraits.SINK]
    assert portraits.classify_interior(scalar_ode.PolyField.quadratic()) == [
        portraits.SOURCE, portraits.SINK]
    with pytest.warns(UserWarning):
        classes = portraits.classify_interior(scalar_ode.PolyField.cyclotomic(4))
    assert classes == [portraits.SOURCE, portraits.CENTER,
                       portraits.SINK, portraits.CENTER]


class TestTrace:
    def test_quadratic_portrait(self):
        graph = portraits.trace_and_extract(scalar_ode.PolyField.quadratic())
        assert graph.chord_code == "10"
        assert not graph.non_morse
        assert len(graph.separatrices) == 2
        assert all(s.resolved for s in graph.separatrices)

    def test_cubic_cyclotomic_portrait(self):
        graph = portraits.trace_and_extract(scalar_ode.PolyField.cyclotomic(3))
        assert graph.classes == [portraits.SOURCE, portraits.SINK, portraits.SINK]
        assert len(graph.separatrices) == 4
        assert [s.target for s in graph.separatrices] == [0, 2, 0, 1]
        assert graph.chord_code == "1010"
        # path on three vertices, source in the middle
        assert graph.tree.degree(0) == 2
        assert graph.tree.degree(1) == graph.tree.degree(2) == 1
        assert graph.saddle_connections == []

    def test_quartic_cyclotomic_is_non_morse(self):
        with pytest.warns(UserWarning):
            graph = portraits.trace_and_extract(scalar_ode.PolyField.cyclotomic(4))
        assert graph.non_morse
        assert graph.tree is None and graph.chord is None
        assert len(graph.separatrices) == 6
        assert set(graph.degenerate_subsets) >= {(1,), (3,)}

    def test_separatrix_samples_carry_times(self):
        graph = portraits.trace_and_extract(scalar_ode.PolyField.cyclotomic(3))
        sep = graph.separatrices[0]
        assert sep.points.shape == sep.times.shape
        assert sep.kind == "blowup"
        # blow-up separatrices are traced backward: times run negative
        assert sep.times[-1] < 0

    def test_centerless_degenerate_field_is_refused(self):
        from tests.test_scalar_ode import CENTERLESS_DEGENERATE_ROOTS
        fld = scalar_ode.PolyField(CENTERLESS_DEGENERATE_ROOTS)
        with pytest.raises(DegenerateFieldError) as exc_info:
            portraits.trace_and_extract(fld)
        assert set(exc_info.value.subsets) == {(0, 1), (2, 3)}

    @pytest.mark.parametrize("seed,code", [(0, "101010"), (1, "101010"),
                                           (2, "101010"), (3, "101100"),
                                           (7, "101100")])
    def test_random_quartics_land_in_catalogued_classes(self, seed, code):
        graph = portraits.trace_and_extract(random_quartic(seed))
        assert graph.chord_code == code

    def test_retrace_at_doubled_resolution_agrees(self, monkeypatch):
        fld = random_quartic(3)
        a = portraits.trace_and_extract(fld)
        monkeypatch.setattr(portraits, "_RTOL", 1e-12)
        monkeypatch.setattr(portraits, "_ATOL", 1e-14)
        monkeypatch.setattr(portraits, "_LAUNCH_EPS", 5e-7)
        b = portraits.trace_and_extract(fld)
        assert a.chord_code == b.chord_code



class TestTraceBytes:
    # Every separatrix's samples, times, target and boundary return to the
    # last bit; w^2 + 1 has two centers, so both of its separatrices come
    # back to the boundary.

    @staticmethod
    def _digest(graph):
        h = hashlib.sha256()
        for s in graph.separatrices:
            h.update(s.points.tobytes())
            h.update(s.times.tobytes())
            ret = None if s.boundary_return is None else tuple(map(float.hex, s.boundary_return))
            h.update(repr((s.target, ret)).encode())
        return h.hexdigest()

    @pytest.mark.filterwarnings("ignore:root .* linearly degenerate")
    @pytest.mark.parametrize("fld, want", [
        (scalar_ode.PolyField.quadratic(),
         "11717e6777e963335586c9b024105feb88b3a68560066b3cd26646c5d15bd14e"),
        (scalar_ode.PolyField(np.array([1j, -1j])),
         "41920c4a779825770b5c5de0630c03322b29b32b9ca99c4f6865acf09f19c6b1"),
        (scalar_ode.PolyField.cyclotomic(3),
         "c3a7e036aa8888773aec3c3ee67b4413e28dbaa6c99ad2e1d83d78d561485160"),
        (scalar_ode.PolyField.cyclotomic(4),
         "a0aeef5108ac425401112282ea0182e125f2b3c239e7eb32bd7d1adf159ca810"),
        (scalar_ode.PolyField.cyclotomic(5),
         "a4a8b412eb4710bd101cf6517459f398a692f5b82a0e82d62359f6bd20582966"),
        (random_quartic(0),
         "4f69956db062558b518d303be56aa720c5b8b52e0c14a06f8fae3ae4440f166e"),
        (random_quartic(3),
         "8e95d95f08d324a66d746f9caac64c9aba14e934c859b8921ac1f95c12ef71a0"),
    ], ids=["quadratic", "two-centers", "cyclotomic-3", "cyclotomic-4",
            "cyclotomic-5", "quartic-0", "quartic-3"])
    def test_separatrices(self, fld, want):
        assert self._digest(portraits.trace_and_extract(fld)) == want


class TestChordDiagrams:
    def test_code_round_trip(self):
        dg = portraits.ChordDiagram.from_code("101100")
        assert dg.code() == "101100"
        assert dg.n_slots == 6

    def test_canonical_is_rotation_minimum(self):
        dg = portraits.ChordDiagram.from_code("101010")
        codes = {dg.rotate(t).code() for t in range(dg.n_slots)}
        assert dg.canonical_code() == min(codes)

    def test_from_code_validates(self):
        # A non-canonical rotation parses fine and canonicalises.
        nested = portraits.ChordDiagram.from_code("1100")
        assert nested.canonical_code() == "1010"
        with pytest.raises(DomainError):
            portraits.ChordDiagram.from_code("0110")  # close before any open
        with pytest.raises(DomainError):
            portraits.ChordDiagram.from_code("1110")  # unbalanced
        for code in ("12", "1x"):
            with pytest.raises(DomainError):
                portraits.ChordDiagram.from_code(code)  # not an opener or a closer

    def test_chordless_diagram_is_refused(self):
        with pytest.raises(DomainError, match="needs a chord"):
            portraits.ChordDiagram.from_code("")


def dyck_words(m):
    """Every balanced opener/closer string with m chords, by brute force."""
    for bits in itertools.product("10", repeat=2 * m):
        depth = 0
        for ch in bits:
            depth += 1 if ch == "1" else -1
            if depth < 0:
                break
        if depth == 0:
            yield "".join(bits)


def reference_canonical_code(dg):
    return min(dg.rotate(t).code() for t in range(dg.n_slots))


class TestCanonicalReference:
    """The canonical forms against the rotate-everything definition."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_canonical_code_is_least_rotation(self, m):
        words = list(dyck_words(m))
        assert len(words) == math.comb(2 * m, m) // (m + 1)
        for word in words:
            dg = portraits.ChordDiagram.from_code(word)
            ref = reference_canonical_code(dg)
            assert dg.canonical_code() == ref, word
            assert dg.canonical().code() == ref, word

    @pytest.mark.parametrize("d", range(2, 10))
    def test_enumeration_equals_reference_classes(self, d):
        codes = {reference_canonical_code(portraits.ChordDiagram.from_code(w))
                 for w in dyck_words(d - 1)}
        reference = [portraits.ChordDiagram.from_code(c) for c in sorted(codes)]
        assert portraits.enumerate_diagrams(d) == reference

    @pytest.mark.parametrize("seed", range(4))
    def test_forty_chords_pass_the_64_bit_width(self, seed):
        # n = 80 slots: a code no longer fits one 64-bit integer
        rng = np.random.default_rng(seed)
        word, depth, opened = [], 0, 0
        while len(word) < 80:
            if opened < 40 and (depth == 0 or rng.random() < 0.5):
                word.append("1")
                depth, opened = depth + 1, opened + 1
            else:
                word.append("0")
                depth -= 1
        dg = portraits.ChordDiagram.from_code("".join(word)).rotate(int(rng.integers(80)))
        assert dg.n_slots == 80
        assert dg.canonical_code() == reference_canonical_code(dg)
        offsets = np.zeros((1, 80), dtype=np.int64)
        for a, b in dg.pairs:
            offsets[0, a], offsets[0, b] = b - a, 80 - (b - a)
        own, _least = portraits._canonical_codes(offsets)
        assert own.dtype == object and format(own[0], "080b") == dg.code()


def test_tree_chord_bijection_at_degree_six():
    diagrams = portraits.enumerate_diagrams(6)
    assert len(diagrams) == portraits.count_portraits(6)
    for dg in diagrams:
        tree = portraits.chord_to_tree(dg)
        back = portraits.tree_to_chord(tree)
        assert back.canonical_code() == dg.canonical_code()


def test_one_vertex_tree_has_no_chord_diagram():
    with pytest.raises(DomainError, match="needs an edge"):
        portraits.tree_to_chord(portraits.PlanarTree({0: []}))


def test_chord_to_tree_path_example():
    tree = portraits.chord_to_tree(portraits.ChordDiagram.from_code("1010"))
    assert sorted(tree.degree(v) for v in tree.neighbors) == [1, 1, 2]


def test_planar_tree_validation():
    with pytest.raises(DomainError):
        portraits.PlanarTree({0: [1], 1: []})          # asymmetric
    with pytest.raises(DomainError):
        portraits.PlanarTree({0: [1], 1: [0], 2: [3], 3: [2]})  # forest


@pytest.mark.parametrize("d", range(2, 17))
def test_census_formula_matches_printed_sequence(d):
    assert portraits.count_portraits(d) == TREE_COUNTS[d - 2]


# d = 15 and 16 are counted from codes below; building their diagrams as
# well would add about 10 s and check nothing more
@pytest.mark.parametrize("d", range(2, 15))
def test_enumeration_cardinality_matches_formula(d):
    assert len(portraits.enumerate_diagrams(d)) == portraits.count_portraits(d)


# sha256 of the newline-joined codes: the census's exact output, pinned
@pytest.mark.parametrize("d, want", [
    (2, "4a44dc15364204a80fe80e9039455cc1608281820fe2b24f1e5233ade6af1dd5"),
    (3, "7a5df5ffa0dec2228d90b8d0a0f1b0767b748b0a41314c123075b8289e4e053f"),
    (4, "b51939b54f7e3fff222532fe4254723fe13a071cceefa58cb88e806be724ba03"),
    (5, "ea17c7e78131f6ce8b05bf585dde7a06e7d1e01eadeaaed86ffffaabd727f05e"),
    (6, "6a57c5e4ff413259c3cca3e0a2533a8695720716736c3c78739d34b34d3483eb"),
    (7, "ec540ecdf59133607823231e0a775b65a33158fb4f313adbab616601af64bb9f"),
    (8, "f8e75be158b67be90e532ac307be56f61bdc8aa002197be6e738a4e6b8b9197c"),
    (9, "dfa32de21e7abc4b4e0a07bfebd7ba2df532e334c7f8e624bfd8b8d391429cf7"),
    (10, "89d42c61474e9a8035d76bf0937346555a0c28b4c15024d374031f98f1ef53b8"),
    (11, "7400d4d6369131806bee0ea7ed8d3188cbc794c780b5ae110607b317654aa20c"),
    (12, "f167830036b1c03920ac598200268145d0a62314a6c1cbcfbd48efa562ca4e1d"),
    (13, "f29973d9463c05800793ae3aa11de986a299affb2d25af80e423377cdd15852d"),
    (14, "a8df1f84aed8079f8a1b31726de60b89e55b67d33fd4880f3598e0c9c521f5d7"),
])
def test_code_census_bytes(d, want):
    codes = "\n".join(portraits.enumerate_codes(d))
    assert hashlib.sha256(codes.encode()).hexdigest() == want


def test_code_enumeration_matches_formula_up_to_the_cap():
    assert portraits.ENUMERATE_MAX_D == 16
    for d in (15, 16):
        assert len(portraits.enumerate_codes(d)) == portraits.count_portraits(d)


@pytest.mark.parametrize("d", range(2, 11))
def test_codes_are_the_codes_of_the_diagrams(d):
    assert portraits.enumerate_codes(d) == [dg.code() for dg in portraits.enumerate_diagrams(d)]


def test_enumeration_refuses_degrees_past_the_cap():
    for enumerate_ in (portraits.enumerate_codes, portraits.enumerate_diagrams):
        with pytest.raises(DomainError, match="beyond d = 16"):
            enumerate_(portraits.ENUMERATE_MAX_D + 1)
        with pytest.raises(DomainError):
            enumerate_(1)


def test_enumerated_diagrams_are_canonical_and_distinct():
    diagrams = portraits.enumerate_diagrams(7)
    codes = [dg.code() for dg in diagrams]
    assert len(set(codes)) == len(codes)
    assert all(dg.code() == dg.canonical_code() for dg in diagrams)


def test_count_portraits_rejects_degree_below_two():
    with pytest.raises(DomainError):
        portraits.count_portraits(1)
