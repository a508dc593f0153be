"""Tests for complex-time evolution: rays, blow-up detection, shooting."""

import hashlib
import math
import re
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy

from eternal_kit import elliptic, evolve, spectrum
from eternal_kit.errors import DomainError

OMEGA_1 = 4.0 * math.pi ** 2
OMEGA_2 = 16.0 * math.pi ** 2


class TestComplexField:
    def test_rejects_tiny_and_bad_inputs(self):
        with pytest.raises(DomainError):
            evolve.ComplexField(np.array([1.0]))
        with pytest.raises(DomainError):
            evolve.ComplexField(np.zeros(8), basis="chebyshev")
        with pytest.raises(DomainError):
            evolve.ComplexField(np.zeros(8), theta=math.pi / 2 + 0.1)

    def test_norms_on_cosine_modes(self):
        # c0 = 3 and c2 = 4 on the half interval: the constant carries
        # weight 1/2, each cosine mode weight 1/4.
        c = np.zeros(16, dtype=complex)
        c[0], c[2] = 3.0, 4.0
        f = evolve.ComplexField(c)
        (l2,), (grad,) = evolve._norms(f.coeffs[None], f.basis)
        assert l2 == pytest.approx(math.sqrt(9.0 / 2.0 + 16.0 / 4.0), rel=1e-14)
        assert grad == pytest.approx(8.0 * math.pi, rel=1e-14)
        assert f.h1_norm() == pytest.approx(math.hypot(l2, grad), rel=1e-14)
        assert f.at_zero() == pytest.approx(7.0)

    def test_values_match_direct_cosine_sum(self):
        coeffs = np.array([0.5, -0.2, 0.0, 0.1 + 0.05j])
        f = evolve.cosine_field(coeffs, N=16)
        M = 4 * f.N
        vals = f.values()
        x = np.arange(M) / M
        direct = sum(coeffs[k] * np.cos(2.0 * math.pi * k * x) for k in range(4))
        assert np.max(np.abs(vals - direct)) < 1e-12

    def test_periodic_values_and_norm(self):
        a = 0.7 - 0.2j
        f = evolve.monochromatic_field(a, N=32)
        M = 4 * f.N
        x = np.arange(M) / M
        assert np.max(np.abs(f.values() - a * np.exp(2j * math.pi * x))) < 1e-12
        (l2,), (grad,) = evolve._norms(f.coeffs[None], f.basis)
        assert l2 == pytest.approx(abs(a), rel=1e-14)
        assert grad == pytest.approx(2.0 * math.pi * abs(a), rel=1e-14)

    @pytest.mark.parametrize("make", [
        lambda: evolve.cosine_field([0.3, 0.2 + 0.1j, -0.05j], N=16),
        lambda: evolve.monochromatic_field(0.4 + 0.3j, N=16),
    ])
    def test_conjugate_is_pointwise(self, make):
        f = make()
        g = f.conjugate()
        assert np.max(np.abs(g.values() - np.conj(f.values()))) < 1e-13

    def test_constructors(self):
        f = evolve.constant_field(2.5, N=8)
        assert f.N == 8 and f.at_zero() == pytest.approx(2.5)
        assert f.sup_norm() == pytest.approx(2.5, rel=1e-12)
        prof = elliptic.branch_point(1, 0.05).profile
        g = evolve.cosine_field(prof, N=64)
        assert np.allclose(g.coeffs[: len(prof.coeffs)], prof.coeffs)
        with pytest.raises(DomainError):
            evolve.cosine_field(np.ones(20), N=8)
        m = evolve.monochromatic_field(1.0, N=16)
        assert m.basis == evolve.PERIODIC_UNIT and m.theta == -math.pi / 2

    def test_monochromatic_field_needs_three_modes(self):
        # at N = 2 the FFT index 1 is the wavenumber -1, so a e^(2 pi i x)
        # first fits at N = 3
        a = 0.7 - 0.2j
        x = np.arange(12) / 12
        f = evolve.monochromatic_field(a, N=3)
        assert np.max(np.abs(f.values() - a * np.exp(2j * math.pi * x))) < 1e-12
        with pytest.raises(DomainError):
            evolve.monochromatic_field(a, N=2)

    def test_embedding_drops_only_a_negligible_tail(self):
        # a cosine mode c weighs |c| / 2 in the L^2 norm: tails past N = 8 of
        # relative size 5e-14 are dropped, of 2e-13 refused
        head = [1.0, 0.5] + [0.0] * 6
        whole = math.sqrt(1.0 / 2.0 + 0.25 / 4.0)
        f = evolve.cosine_field(np.array(head + [1e-13 * whole]), N=8)
        assert np.array_equal(f.coeffs, head)
        with pytest.raises(DomainError):
            evolve.cosine_field(np.array(head + [4e-13 * whole]), N=8)
        with pytest.raises(DomainError):
            evolve.cosine_field(np.ones(20), N=0)

    def test_sectorial_flag(self):
        assert evolve.constant_field(0.0, theta=0.0).sectorial
        assert evolve.constant_field(0.0, theta=1.0).sectorial
        assert not evolve.constant_field(0.0, theta=-math.pi / 2).sectorial


class TestStep:
    # step takes a stack of rays (rows x modes) with one dr per row and
    # returns the stepped stack; one ray is a stack of one

    def test_advances_clock(self, monkeypatch):
        # step returns bare coefficients; the ray's own controller moves its r
        # by the two half steps of each accepted attempt
        u = evolve.constant_field(0.1, N=8).coeffs[None]
        out = evolve.step(u, evolve.NEUMANN_HALF, 0.0, (0.01,), 2.0)
        assert isinstance(out, np.ndarray) and out.shape == (1, 8)

        tried, step = [], evolve.step

        def counted(u, basis, theta, dr, lam):
            tried.append(dr[0])
            return step(u, basis, theta, dr, lam)

        moves = []
        monkeypatch.setattr(evolve, "step", counted)
        evolve._run(evolve.constant_field(0.1, N=8), 0.05, 2.0,
                    on_accept=lambda prev, new: moves.append((prev.r, new.r, tried[-3])))
        assert moves and all(new == prev + dr / 2.0 + dr / 2.0 for prev, new, dr in moves)

    def test_non_positive_step_is_a_domain_error(self):
        u = evolve.constant_field(0.1, N=8).coeffs[None]
        with pytest.raises(DomainError):
            evolve.step(u, evolve.NEUMANN_HALF, 0.0, (0.0,), 2.0)

    def test_fixed_step_order_about_four(self):
        def run(nsteps):
            u = evolve.cosine_field([0.2, 0.1, 0.05], N=32).coeffs[None]
            dr = 0.1 / nsteps
            for _ in range(nsteps):
                u = evolve.step(u, evolve.NEUMANN_HALF, 0.0, (dr,), 4.0)
            return u[0]

        ref = run(512)
        errs = []
        for n in (8, 16, 32):
            errs.append(evolve.ComplexField(run(n) - ref).h1_norm())
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes >= 3.5)


class TestTables:
    # one cache of phi-function tables, keyed by the tuple of per-row step
    # lengths; a stack's rows are the bytes of each dr's table alone

    # drs on both sides of |z| = 1 at N = 64; the twenty smallest put more than
    # 512 z under the contour means, a temporary numpy can reuse in place
    DRS = tuple(1e-9 * 1.5 ** j for j in range(20)) + (1e-4, 3e-3, 0.05, 0.5)

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    @pytest.mark.parametrize("theta", [0.0, 0.7, -math.pi / 2])
    def test_stack_rows_are_each_drs_table(self, basis, theta):
        stacked = evolve._etdrk4_tables(basis, 64, theta, self.DRS)
        assert stacked[1].shape == (len(self.DRS), 64)
        for i, dr in enumerate(self.DRS):
            alone = evolve._etdrk4_tables(basis, 64, theta, (dr,))
            assert alone[0] == stacked[0]
            for one, rows in zip(alone[1:], stacked[1:]):
                assert not rows.flags.writeable
                assert one.shape == (1, 64)
                assert rows[i].tobytes() == one[0].tobytes()

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    def test_one_row_stack_is_the_rows_own_arrays(self, basis):
        alone = evolve._etdrk4_tables(basis, 64, 0.7, (3e-3,))
        row = evolve._etdrk4_row(basis, 64, 0.7, 3e-3)
        assert len(alone[1:]) == len(row)
        for one, own in zip(alone[1:], row):
            assert one is own
            assert not one.flags.writeable

    def test_each_step_looks_its_tables_up_once(self, monkeypatch):
        calls, step = [0], evolve.step

        def counted(*args):
            calls[0] += 1
            return step(*args)

        monkeypatch.setattr(evolve, "step", counted)
        before = evolve._etdrk4_tables.cache_info()
        evolve._run([evolve.constant_field(1.0, N=8), evolve.cosine_field([0.5, 0.2], N=8)],
                    [0.02, 0.05], 0.0)
        evolve.detect_blowup(evolve.constant_field(1.5, N=8), 6.0, 0.2)
        after = evolve._etdrk4_tables.cache_info()
        assert calls[0] > 0
        assert (after.hits - before.hits) + (after.misses - before.misses) == calls[0]


class TestSquare:
    # direct coefficient convolutions, no FFT, at every N = M / 4 of the
    # transform test and a few more
    @pytest.mark.parametrize("N", [2, 4, 5, 16, 37, 64, 100, 128, 256])
    def test_cosine_square_matches_exact_product(self, N):
        rng = np.random.default_rng(N)
        c = rng.normal(size=N) + 1j * rng.normal(size=N)
        series = elliptic.CosineSeries(c)
        want = elliptic.cosine_product(series, series).coeffs[:N]
        got = evolve._square(c, evolve.NEUMANN_HALF, evolve._fold(evolve.NEUMANN_HALF, N, 1.0))
        assert np.max(np.abs(got - want)) < 1e-14 * np.sum(np.abs(c)) ** 2

    @pytest.mark.parametrize("N", [2, 4, 5, 16, 37, 64, 100, 128, 256])
    def test_periodic_square_matches_direct_convolution(self, N):
        rng = np.random.default_rng(N)
        c = rng.normal(size=N) + 1j * rng.normal(size=N)
        k = np.fft.fftfreq(N, d=1.0 / N).astype(int)
        slot = {m: j for j, m in enumerate(k)}
        want = np.zeros(N, dtype=complex)
        for i in range(N):
            for j in range(N):
                if k[i] + k[j] in slot:
                    want[slot[k[i] + k[j]]] += c[i] * c[j]
        got = evolve._square(c, evolve.PERIODIC_UNIT, evolve._fold(evolve.PERIODIC_UNIT, N, 1.0))
        assert np.max(np.abs(got - want)) < 1e-14 * np.sum(np.abs(c)) ** 2

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    @pytest.mark.parametrize("N", [2, 5, 16, 37, 128])
    def test_stack_rows_are_each_rows_square(self, basis, N):
        rng = np.random.default_rng(N + 2)
        c = rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N))
        scale = evolve._fold(basis, N, 1.0)
        stacked = evolve._square(c, basis, scale)
        assert stacked.shape == (3, N)
        for row, sq in zip(c, stacked):
            assert sq.tobytes() == evolve._square(row, basis, scale).tobytes()


class TestSquareCalls:
    # one _square per ETDRK4 stage: 4 per step and 12 per step-doubling attempt
    # (a full step and two half steps); the benchmark's tracer relies on both

    @staticmethod
    def _count(monkeypatch, name):
        calls, fn = [0], getattr(evolve, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(evolve, name, counted)
        return calls

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    def test_four_per_step(self, monkeypatch, basis):
        squares = self._count(monkeypatch, "_square")
        u = np.array([[0.5, 0.2, 0.1j, 0.0], [1.0, 0.0, 0.3, 0.1]], dtype=complex)
        evolve.step(u, basis, 0.3, (1e-3, 2e-3), 2.0)
        assert squares == [4]

    @pytest.mark.parametrize("ray", [evolve.cosine_field([1.0, 0.4, 0.1j], N=16),
                                     evolve.monochromatic_field(0.5, N=16),
                                     evolve.constant_field(1.5, N=16)],
                             ids=["cosine", "circle", "collapse"])
    def test_twelve_per_attempt_on_one_ray(self, monkeypatch, ray):
        squares, steps = self._count(monkeypatch, "_square"), self._count(monkeypatch, "step")
        run = evolve._run(ray, [0.2], 6.0)
        attempts = len(run.history["r"]) - 1 + run.rejected
        assert attempts > 0
        assert steps == [3 * attempts]
        assert squares == [12 * attempts]


class TestTransforms:
    # The grid transforms and the product kernel must give exactly the bytes
    # of the plain np.fft recipe: the goldens and the digests below depend on
    # every float.

    @staticmethod
    def _np_to_grid(c, basis, M):
        # the unnormalized inverse transform of 2w for cosines (2 c_0 at mode 0
        # and c_k whole at k and M - k) and of w on the circle
        k = evolve._wavenumbers(basis, len(c)).astype(int)
        full = np.zeros(M, dtype=complex)
        full[k % M] = c
        if basis == evolve.NEUMANN_HALF:
            full[0] = 2.0 * c[0]
            full[M - k[1:]] = c[1:]
        return np.fft.ifft(full, norm="forward")

    @classmethod
    def _np_square(cls, c, basis):
        # the product on its smallest exact grid, 3N points for cosines and 2N
        # on the circle, then one scale per mode
        N = len(c)
        k = evolve._wavenumbers(basis, N).astype(int)
        M = 3 * N if basis == evolve.NEUMANN_HALF else 2 * N
        scale = np.where(k == 0, 0.25, 0.5) / M if basis == evolve.NEUMANN_HALF else np.full(N, 1.0 / M)
        grid = cls._np_to_grid(c, basis, M)
        return np.fft.fft(grid * grid)[k % M] * scale.astype(complex)

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    @pytest.mark.parametrize("M", [16, 64, 148, 256, 400, 512, 1024])
    def test_transforms_match_numpy_fft_bytes(self, M, basis):
        N = M // 4
        rng = np.random.default_rng(M)
        c = rng.normal(size=N) + 1j * rng.normal(size=N)
        grid = evolve._to_grid(c, basis, M)
        assert grid.tobytes() == self._np_to_grid(c, basis, M).tobytes()
        half = 0.5 if basis == evolve.NEUMANN_HALF else 1.0
        assert evolve.ComplexField(c, basis).values().tobytes() == (grid * half).tobytes()
        square = evolve._square(c, basis, evolve._fold(basis, N, 1.0))
        assert square.tobytes() == self._np_square(c, basis).tobytes()

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    @pytest.mark.parametrize("M", [16, 64, 148, 256, 400, 512, 1024])
    def test_stack_rows_match_numpy_fft_bytes(self, M, basis):
        # a stack of rays transforms along its last axis, each row to the
        # bytes of its own 1-d transform
        N = M // 4
        rng = np.random.default_rng(M + 1)
        c = rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N))
        grid = evolve._to_grid(c, basis, M)
        square = evolve._square(c, basis, evolve._fold(basis, N, 1.0))
        assert grid.shape == (3, M) and square.shape == (3, N)
        for row, g, sq in zip(c, grid, square):
            assert g.tobytes() == self._np_to_grid(row, basis, M).tobytes()
            assert sq.tobytes() == self._np_square(row, basis).tobytes()

    def test_missing_extension_names_the_directory_searched(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.fft._pocketfft.pypocketfft", raising=False)
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match=re.escape(f"{tmp_path}/fft/_pocketfft")):
            evolve._pocketfft()


class TestTransformInputs:
    # the transforms run in place on buffers of their own: what a caller
    # passes in comes back untouched

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    @pytest.mark.parametrize("shape", [(16,), (3, 16)])
    def test_coefficients_stay_byte_identical(self, basis, shape):
        rng = np.random.default_rng(7)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        before = c.tobytes()
        evolve._to_grid(c, basis, 64)
        assert c.tobytes() == before
        evolve._square(c, basis, evolve._fold(basis, shape[-1], 1.0))
        assert c.tobytes() == before
        if c.ndim == 1:
            field = evolve.ComplexField(c, basis)
            field.values()
            assert field.coeffs.tobytes() == c.tobytes() == before


class TestHistorySup:
    # A run's history computes its w0 and sup norms SUP_BATCH states at a time
    # (the start counts as one); every entry must still be its state's
    # at_zero and sup_norm.

    @staticmethod
    def _rays():
        return [evolve.cosine_field([1.0, 0.4, 0.1j], N=16),
                evolve.cosine_field([0.5, 0.2j, 0.1], N=16),
                evolve.constant_field(1.5, N=16)]

    @staticmethod
    def _check(run):
        h = run.history
        assert len(h["sup"]) == len(h["r"])
        assert h["sup"][-1] == run.final_state.sup_norm()

    @pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
    def test_each_entry_is_its_states_sup_norm(self, monkeypatch, offset):
        ray = self._rays()[0]
        accepted = len(evolve._run(ray, [0.05], 6.0).history["r"]) - 1
        monkeypatch.setattr(evolve, "SUP_BATCH", accepted + offset)
        want, w0 = [ray.sup_norm()], [ray.at_zero()]

        def record(prev, new):
            want.append(new.sup_norm())
            w0.append(new.at_zero())

        run = evolve._run(ray, [0.05], 6.0, on_accept=record)
        self._check(run)
        assert len(want) == accepted + 1
        assert run.history["sup"].tobytes() == np.array(want).tobytes()
        assert run.history["w0"].tobytes() == np.array(w0).tobytes()

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_stacked_rows_read_as_they_would_alone(self, monkeypatch, batch):
        monkeypatch.setattr(evolve, "SUP_BATCH", batch)
        stacked = evolve._run(self._rays(), [0.05], 6.0)
        lengths = {len(run.history["r"]) for run in stacked}
        assert len(lengths) == 3 and max(lengths) > batch
        for run, ray in zip(stacked, self._rays()):
            alone = evolve._run(ray, [0.05], 6.0)
            self._check(run)
            assert run.history["sup"].tobytes() == alone.history["sup"].tobytes()
            assert run.history["w0"].tobytes() == alone.history["w0"].tobytes()


class TestHistoryBytes:
    # a run's record is flat float64 buffers: 48 bytes per accepted step, and
    # its traced peak stays near that instead of a Python float per entry

    def test_peak_per_accepted_step(self):
        ray = evolve.monochromatic_field(1.0, N=8)
        # fill the table caches and the interpreter's free lists, which would
        # otherwise add up to about 20 bytes per step here
        evolve.schrodinger_evolve(ray, [0.2], 0.0, err_target=1e-10)
        tracemalloc.start()
        try:
            run = evolve.schrodinger_evolve(ray, [0.35], 0.0, err_target=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        accepted = len(run.history["r"]) - 1
        assert accepted >= 5000
        assert peak < 100 * accepted
        for name, dtype in (("r", np.float64), ("h1", np.float64), ("sup", np.float64),
                            ("grad", np.float64), ("w0", np.complex128)):
            assert run.history[name].dtype == dtype
            assert run.history[name].shape == (accepted + 1,)


class TestNonConstantBytes:
    # Constant data never leaves mode 0, so the CLI goldens of constant runs
    # do not see the quadratic product on other modes; these digests do.
    DATA = [0.3, 0.2 + 0.1j, 0.05j]

    @staticmethod
    def _digest(run):
        h = hashlib.sha256()
        for name in sorted(run.history):
            h.update(name.encode())
            h.update(run.history[name].tobytes())
        h.update(run.final_state.coeffs.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("theta", [-math.pi / 2, 0.7])
    def test_runs_match_a_finer_reference(self, theta):
        # the digested runs against twice the modes and a tenth of the error
        # target (a hundredth ends the vertical ray by STEP_COLLAPSE)
        def run(N, tighter):
            state = evolve.ComplexField(evolve.cosine_field(self.DATA, N=N).coeffs, theta=theta)
            if theta == 0.7:
                return evolve.detect_blowup(state, 3.0, 0.05, err_target=1e-9 / tighter)
            return evolve.schrodinger_evolve(state, [0.05], 3.0, err_target=1e-10 / tighter)

        got, ref = run(64, 1).final_state, run(128, 10).final_state
        assert got.r == ref.r == 0.05
        assert np.max(np.abs(ref.coeffs[64:])) < 1e-18
        diff = evolve.ComplexField(got.coeffs - ref.coeffs[:64]).h1_norm()
        assert diff < 1e-9 * ref.h1_norm()

    def test_vertical_ray(self):
        run = evolve.schrodinger_evolve(evolve.cosine_field(self.DATA, N=64), [0.05], 3.0)
        assert run.reason == evolve.REASON_HORIZON and len(run.history["r"]) == 361
        assert self._digest(run) == "9690496e4e3667b21adef1813be7ba79543e928b41d93c86a14e1f13b9497ccd"

    def test_oblique_ray(self):
        run = evolve.detect_blowup(evolve.ComplexField(evolve.cosine_field(self.DATA, N=64).coeffs, theta=0.7), 3.0, 0.05)
        assert run.reason == evolve.REASON_HORIZON and len(run.history["r"]) == 143
        assert self._digest(run) == "f8696bdcccdfd94a8cd2c79fa3930153e929279d24e12983982bb3825f6f4b47"


class TestStack:
    # Rays that share basis, N, theta and lam go through each step as one
    # stack, each row under its own step control and stops, and each ends
    # with the bytes of its run alone.

    @staticmethod
    def _rays():
        return [evolve.constant_field(1.5, N=16),                 # NORM_THRESHOLD near 0.134
                evolve.cosine_field([2.0, 0.5, 0.2j], N=16),      # NORM_THRESHOLD near 0.09
                evolve.cosine_field([1.0, 0.4, 0.1j], N=16)]      # HORIZON at 0.3

    @staticmethod
    def _assert_same_run(run, alone):
        assert run.reason == alone.reason
        assert run.r_star_lower == alone.r_star_lower
        assert run.final_state.coeffs.tobytes() == alone.final_state.coeffs.tobytes()
        assert sorted(run.history) == sorted(alone.history)
        for name, values in alone.history.items():
            assert run.history[name].tobytes() == values.tobytes(), name
        assert run.rejected == alone.rejected
        assert [(f.r, f.coeffs.tobytes()) for f in run.fields] == [
            (f.r, f.coeffs.tobytes()) for f in alone.fields]

    def test_rows_end_as_they_would_alone(self):
        stacked = evolve._run(self._rays(), [0.3], 6.0, norm_threshold=1e4)
        assert [run.reason for run in stacked] == [
            evolve.REASON_NORM, evolve.REASON_NORM, evolve.REASON_HORIZON]
        assert len({run.r_star_lower for run in stacked}) == 3
        assert stacked[0].rejected > 0
        # constant data at lambda = 6 is coth(6 (r* - r)) with r* = ln 5 / 12:
        # the row stops where that closed form puts its final value
        w = stacked[0].final_state.at_zero().real
        assert abs(math.log(5.0) / 12.0 - stacked[0].r_star_lower - math.atanh(1.0 / w) / 6.0) < 1e-10
        for run, ray in zip(stacked, self._rays()):
            self._assert_same_run(run, evolve.detect_blowup(ray, 6.0, 0.3, norm_threshold=1e4))

    def test_rows_pass_several_stops_as_they_would_alone(self):
        stops = [0.05, 0.1, 0.3]
        stacked = evolve._run(self._rays(), stops, 6.0, norm_threshold=1e4)
        assert [len(run.fields) for run in stacked] == [2, 1, 3]
        for run, ray in zip(stacked, self._rays()):
            self._assert_same_run(run, evolve._run(ray, stops, 6.0, norm_threshold=1e4))

    def test_vertical_rows_pass_two_stops_as_they_would_alone(self):
        # the accepted states of vertical rows are extrapolated: each row still
        # ends with the bytes of its run alone
        stops = [0.1, 0.3]
        rays = [evolve.ComplexField(ray.coeffs, ray.basis, theta=-math.pi / 2) for ray in
                (evolve.constant_field(0.0, N=16),                # i tan(6 s): NORM_THRESHOLD near pi / 12
                 evolve.cosine_field([1.0, 0.4, 0.1j], N=16),     # HORIZON at 0.3
                 evolve.constant_field(1.5, N=16))]               # HORIZON at 0.3, on its closed form
        stacked = evolve._run(rays, stops, 6.0, norm_threshold=1e4)
        assert [run.reason for run in stacked] == [
            evolve.REASON_NORM, evolve.REASON_HORIZON, evolve.REASON_HORIZON]
        assert [len(run.fields) for run in stacked] == [1, 2, 2]
        assert len({len(run.history["r"]) for run in stacked}) == 3
        for f in stacked[2].fields:
            exact = _vertical_constant(1.5, 6.0, f.r)
            assert abs(f.at_zero() - exact) < 1e-12 * abs(exact)
        for run, ray in zip(stacked, rays):
            self._assert_same_run(run, evolve._run(ray, stops, 6.0, norm_threshold=1e4))

    def test_stack_must_share_its_ray(self):
        rays = [evolve.constant_field(0.5, N=16), evolve.constant_field(0.5, N=16, theta=0.3)]
        with pytest.raises(DomainError):
            evolve._run(rays, 0.1, 0.0)


class TestDetectBlowup:
    def test_real_ray_constant_data_matches_tanh(self):
        # Spatially constant data obeys dw/dr = 6 w^2 - 6; from zero the
        # solution is -tanh(6 r) and never diverges.
        rec = evolve.detect_blowup(evolve.constant_field(0.0, N=32), 6.0, 1.0,
                                   err_target=1e-10)
        assert not rec.diverged
        assert rec.reason == evolve.REASON_HORIZON
        assert abs(rec.final_state.at_zero() + math.tanh(6.0)) < 1e-9
        assert rec.h1_growth_ok and rec.sectorial
        last = rec.fields[-1]
        assert np.array_equal(last.coeffs, rec.final_state.coeffs)
        assert last.r == rec.final_state.r == rec.r_star_lower

    def test_real_ray_blowup_time_bracket(self):
        # From w = 3/2 the same scalar flow reaches infinity at
        # r = atanh(2/3) / 6; the certified lower bound must sit just below.
        exact = math.atanh(2.0 / 3.0) / 6.0
        rec = evolve.detect_blowup(evolve.constant_field(1.5, N=32), 6.0, 1.0)
        assert rec.diverged
        assert rec.reason in (evolve.REASON_NORM, evolve.REASON_STEP)
        assert rec.r_star_lower <= exact + 1e-9
        assert exact - rec.r_star_lower < 1e-4

    def test_vertical_ray_pole(self):
        # Along theta = -pi/2 the constant flow is i tan(6 s): a pole at
        # s = pi / 12 that the step controller pins to a few 1e-5.
        rec = evolve.detect_blowup(
            evolve.constant_field(0.0, N=32, theta=-math.pi / 2), 6.0, 1.0)
        assert rec.diverged
        assert not rec.sectorial
        assert rec.r_star_lower <= math.pi / 12.0
        assert math.pi / 12.0 - rec.r_star_lower < 1e-4

    @pytest.mark.parametrize("r_max", [math.inf, math.nan])
    def test_non_finite_horizon_is_a_domain_error(self, r_max):
        with pytest.raises(DomainError):
            evolve.detect_blowup(evolve.constant_field(0.0, N=8), 0.0, r_max)

    @pytest.mark.parametrize("kw", [
        {"err_target": 0.0}, {"err_target": -1e-3}, {"err_target": math.nan},
        {"norm_threshold": 0.0}, {"norm_threshold": -1.0},
    ])
    def test_non_positive_tolerance_is_a_domain_error(self, kw):
        with pytest.raises(DomainError):
            evolve.detect_blowup(evolve.constant_field(0.5, N=8), 0.0, 0.05, **kw)

    def test_threshold_above_the_default_is_a_domain_error(self, monkeypatch):
        # the endgame scales its step budget by the candidate state's own norm:
        # past 1e8 one accepted step can cross the pole (here threshold 1e9 took
        # one step from h1 9.6e8 to 3.6e21 and ended 1.4e-10 past ln 5 / 12)
        w = evolve.constant_field(1.5, N=16)
        with pytest.raises(DomainError, match="norm_threshold"):
            evolve.detect_blowup(w, 6.0, 1.0, norm_threshold=1e9)
        assert evolve.detect_blowup(w, 6.0, 1.0, norm_threshold=1e8).reason == evolve.REASON_NORM
        # the cap is the module constant as it stands at call time
        monkeypatch.setattr(evolve, "NORM_THRESHOLD", 1e4)
        with pytest.raises(DomainError, match="norm_threshold"):
            evolve.detect_blowup(w, 6.0, 1.0, norm_threshold=1e5)

    def test_history_arrays_are_consistent(self):
        rec = evolve.detect_blowup(evolve.constant_field(0.0, N=16), 6.0, 0.5)
        h = rec.history
        assert set(h) >= {"r", "h1", "sup", "grad"}
        assert len(h["r"]) == len(h["h1"]) == len(h["sup"])
        assert np.all(np.diff(h["r"]) > 0)

    def test_each_h1_norm_is_computed_once(self, monkeypatch):
        # One norm pass for the start, then per error estimate one for the
        # step-doubling difference and one for the scale; an accepted state
        # reuses its scale norm for the history and the threshold check.
        calls = {"norms": 0, "estimates": 0}
        norms, h1_diff = evolve._norms, evolve._h1_diff

        def counted_norms(coeffs, basis):
            calls["norms"] += 1
            return norms(coeffs, basis)

        def counted_diff(u1, u2, basis):
            calls["estimates"] += 1
            return h1_diff(u1, u2, basis)

        monkeypatch.setattr(evolve, "_norms", counted_norms)
        monkeypatch.setattr(evolve, "_h1_diff", counted_diff)
        rec = evolve.detect_blowup(evolve.constant_field(1.0, N=8), 0.0, 0.05)
        assert rec.reason == evolve.REASON_HORIZON
        assert rec.final_h1 > 0.0
        assert calls["estimates"] >= len(rec.history["r"]) - 1 > 0
        assert calls["norms"] == 1 + 2 * calls["estimates"]


class TestRejectedSteps:
    # From the ladder step DR_MIN * 2^33 = 8.589934592e-3 a step that fails
    # for good is cut by 4 until it would fall below DR_MIN, which takes 17
    # attempts of one full step and two half steps each.

    def _count_steps(self, monkeypatch, step):
        drs = []

        def counted(u, basis, theta, dr, lam):
            (row_dr,) = dr          # the one ray is a stack of one, with one dr per row
            drs.append(row_dr)
            return step(u, basis, theta, dr, lam)

        monkeypatch.setattr(evolve, "step", counted)
        rec = evolve.detect_blowup(evolve.constant_field(0.5, N=8), 0.0, 0.05)
        assert rec.reason == evolve.REASON_STEP
        assert rec.r_star_lower == 0.0
        assert len(rec.history["r"]) == 1
        assert rec.rejected == 17           # every attempt, the last one included
        assert len(drs) == 51
        assert drs[::3] == [8.589934592e-3 / 4.0 ** k for k in range(17)]
        return drs

    def test_overflowed_stack_quarters_the_step_until_collapse(self, monkeypatch):
        # a stack whose every row left the floating-point range is rejected
        # through its non-finite error estimate, like a single such row
        self._count_steps(monkeypatch, lambda u, *rest: np.full_like(u, math.inf))

    def test_non_finite_estimate_quarters_the_step_until_collapse(self, monkeypatch):
        monkeypatch.setattr(evolve, "_h1_diff", lambda u1, u2, basis: [math.nan])
        drs = self._count_steps(monkeypatch, evolve.step)
        assert drs[-3:] == [2e-12, 1e-12, 1e-12]


class TestOverflowRuns:
    # Runs whose threshold lies past the floating-point range of their steps:
    # the rays at a pole end by STEP_COLLAPSE once every step down to DR_MIN
    # either left that range or grew the H^1 norm past ENDGAME_GROWTH times
    # its start, and was rejected.  The cap on norm_threshold
    # is raised so that such runs may be asked for; both thresholds give the
    # same bytes, since no norm check ever stops them.
    RUNS = {
        "constant 1.5, lambda 6, N 8": lambda t: [
            evolve.detect_blowup(evolve.constant_field(1.5, N=8), 6.0, 1.0, norm_threshold=t)],
        "constant 0.5, lambda 0": lambda t: [
            evolve.detect_blowup(evolve.constant_field(0.5, N=16), 0.0, 1.0, norm_threshold=t)],
        "constant 2 + 0.3i, lambda 1": lambda t: [
            evolve.detect_blowup(evolve.constant_field(2.0 + 0.3j, N=16), 1.0, 1.0, norm_threshold=t)],
        "stack at lambda 3": lambda t: evolve._run(
            [evolve.cosine_field([1.0, 0.4, 0.1j], N=16), evolve.constant_field(1.2, N=16)],
            [1.0], 3.0, norm_threshold=t),
    }
    WANT = {
        "constant 1.5, lambda 6, N 8": (
            ["STEP_COLLAPSE"], "4cf0bb628c7677415183abd92f221d6c26bb5728105b10aad57d5672ae8d16ba"),
        "constant 0.5, lambda 0": (
            ["STEP_COLLAPSE"], "da3e84b81bad0490b80330347e21b6dc7533cc64a1ae84d117c40279879702f7"),
        "constant 2 + 0.3i, lambda 1": (
            ["HORIZON"], "c5c7d00453dae351a6c900f6efd6f84b4b45a3916f5be5f3ce14565991e4cacc"),
        "stack at lambda 3": (
            ["HORIZON", "STEP_COLLAPSE"], "97b9374db07a7b881172f5444ee60704b6ff43c30c72787bc3a4df9604632b0a"),
    }

    @staticmethod
    def _digest(runs):
        h = hashlib.sha256()
        for run in runs:
            for name in sorted(run.history):
                h.update(name.encode())
                h.update(run.history[name].tobytes())
            h.update(run.final_state.coeffs.tobytes())
            h.update(repr((run.reason, run.rejected)).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("norm_threshold", [1e100, 1e300])
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_bytes(self, monkeypatch, name, norm_threshold):
        monkeypatch.setattr(evolve, "NORM_THRESHOLD", 1e300)
        runs = self.RUNS[name](norm_threshold)
        reasons, digest = self.WANT[name]
        assert [run.reason for run in runs] == reasons
        assert self._digest(runs) == digest


class TestNonFiniteInput:
    # nan or inf data or lambda must not pass for a blow-up at r = 0 (or for
    # a boundary corner at (0, 0)): no step can be accepted from them
    RUNS = {
        "detect_blowup": lambda w0, lam: evolve.detect_blowup(w0, lam, 0.05),
        "schrodinger_evolve": lambda w0, lam: evolve.schrodinger_evolve(w0, [0.01], lam),
        "analyticity_boundary": lambda w0, lam: evolve.analyticity_boundary(
            w0, [0.0, 0.01], lam, r_cap=0.05),
    }

    @pytest.mark.parametrize("data, lam", [
        ([math.nan], 1.0), ([0.5, math.inf * 1j], 1.0), ([0.5], math.nan), ([0.5], -math.inf),
    ])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_is_a_domain_error(self, run, data, lam):
        with pytest.raises(DomainError):
            self.RUNS[run](evolve.cosine_field(data, N=8), lam)


class TestHorizons:
    # a horizon at or behind the start, or at infinity, is refused before any
    # work, with the argument named: unchecked, 0 ends by HORIZON after no step
    # (every boundary sample censored at r_star 0) and -1 fails on "stops must
    # ascend", which names no argument, after the scan's vertical legs have run
    RUNS = {
        "detect_blowup": ("r_max", lambda r: evolve.detect_blowup(evolve.constant_field(0.5, N=8), 0.0, r)),
        "heteroclinic_shoot": ("r_max", lambda r: evolve.heteroclinic_shoot(1, 0.1, "-", r_max=r)),
        "analyticity_boundary": ("r_cap", lambda r: evolve.analyticity_boundary(
            evolve.constant_field(0.5, N=8), [-0.1, 0.0, 0.1], 0.0, r_cap=r)),
    }

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf], ids=["zero", "negative", "inf"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_is_refused_before_any_step(self, monkeypatch, run, horizon):
        def no_run(*args, **kwargs):
            raise AssertionError("a ray ran before the horizon was checked")

        monkeypatch.setattr(evolve, "_run", no_run)
        name, call = self.RUNS[run]
        with pytest.raises(DomainError, match=f"{name} must be finite and > 0"):
            call(horizon)


class TestSchrodinger:
    def test_request_validation(self):
        psi = evolve.constant_field(0.1, N=16)
        with pytest.raises(DomainError):
            evolve.schrodinger_evolve(psi, [], 0.0)
        with pytest.raises(DomainError):
            evolve.schrodinger_evolve(psi, [0.0], 0.0)
        with pytest.raises(DomainError):
            evolve.schrodinger_evolve(psi, [-0.1, 0.1], 0.0)
        with pytest.raises(DomainError):
            evolve.schrodinger_evolve(psi, [0.2, 0.1], 0.0)

    def test_reversibility(self):
        # Conjugating the data and running forward equals conjugating the
        # backward run.
        psi0 = evolve.cosine_field([0.3, 0.2 + 0.1j, 0.05j], N=64)
        fwd = evolve.schrodinger_evolve(psi0.conjugate(), [0.05], 3.0,
                                        err_target=1e-9)
        bwd = evolve.schrodinger_evolve(psi0, [-0.05], 3.0, err_target=1e-9)
        assert fwd.status == bwd.status == evolve.REASON_HORIZON
        assert fwd.s_reached == pytest.approx(0.05)
        assert bwd.s_reached == pytest.approx(-0.05)
        diff = fwd.fields[0].coeffs - bwd.fields[0].conjugate().coeffs
        assert evolve.ComplexField(diff, psi0.basis).h1_norm() < 1e-9

    def test_second_harmonic_growth_small_amplitude(self):
        # To second order in the amplitude the k = 2 mode of monochromatic
        # data is (3 a^2 / 4 pi^2)(e^(2 i w1 s) - e^(i w2 s)).
        a, s = 0.01, 0.02
        run = evolve.schrodinger_evolve(evolve.monochromatic_field(a, N=32),
                                        [s], 0.0)
        c2 = run.fields[0].coeffs[2]
        pred = (3.0 * a ** 2 / (4.0 * math.pi ** 2)) * (
            np.exp(2j * OMEGA_1 * s) - np.exp(1j * OMEGA_2 * s))
        assert abs(c2 - pred) < 1e-11
        c1 = run.fields[0].coeffs[1]
        assert abs(c1 - a * np.exp(1j * OMEGA_1 * s)) < 1e-9

    def test_monochromatic_period_return(self):
        # All circle frequencies 4 pi^2 k^2 share the period 1 / (2 pi), and
        # the quadratic cascade keeps the solution inside that class.
        a = 1.0
        period = 1.0 / (2.0 * math.pi)
        psi0 = evolve.monochromatic_field(a, N=64)
        run = evolve.schrodinger_evolve(psi0, [period], 0.0, err_target=1e-7)
        diff = run.fields[0].coeffs - psi0.coeffs
        assert evolve.ComplexField(diff, psi0.basis).h1_norm() < 1e-6

    def test_run_past_pole_truncates(self):
        # from zero at lambda = 6 the vertical ray is i tan(6 s), with a pole at pi / 12
        run = evolve.schrodinger_evolve(evolve.constant_field(0.0, N=32),
                                        [0.2, 0.3], 6.0)
        assert run.status == evolve.REASON_NORM
        assert len(run.fields) == 1
        assert run.fields[0].r == pytest.approx(0.2)
        assert 0.0 <= math.pi / 12.0 - run.s_reached < 1e-8
        w = abs(run.final_state.at_zero())
        assert abs(math.pi / 12.0 - run.s_reached - math.atan(1.0 / w) / 6.0) < 1e-12


def _vertical_constant(w0, lam, s):
    """Constant data w0 on the vertical ray theta = -pi/2 at arclength s: with
    t = -i s and a^2 = lam / 6 it is a (1 + K e^(12 a t)) / (1 - K e^(12 a t)),
    K = (w0 - a) / (w0 + a), and w0 / (1 - 6 w0 t) at lam = 0."""
    a, t = math.sqrt(lam / 6.0), -1j * s
    if not a:
        return w0 / (1.0 - 6.0 * w0 * t)
    e = (w0 - a) / (w0 + a) * np.exp(12.0 * a * t)
    return a * (1.0 + e) / (1.0 - e)


class TestVerticalRayOracles:
    # On a vertical ray the linear flow is unitary and every step's local
    # error reaches the end of the run; the accepted state there is the
    # fifth-order Richardson combination of the step-doubling pair.

    # at the default err_target (kw empty) the closed form is met to at most
    # 1.07e-12, still below the 3.2e-12 .. 9.3e-12 that err_target 1e-10 gave
    # before the accepted state was extrapolated
    @pytest.mark.parametrize("w0, lam, kw, tol", [
        (w0, lam, kw, tol) for kw, tol in (({"err_target": 1e-10}, 1e-13), ({}, 2e-12))
        for w0, lam in ((1.5, 6.0), (0.5, 0.0), (2.0 + 0.3j, 1.0))
    ], ids=["lambda6", "lambda0", "complex", "lambda6-default", "lambda0-default", "complex-default"])
    def test_constant_data_meets_the_closed_form(self, w0, lam, kw, tol):
        run = evolve._run(evolve.constant_field(w0, N=16, theta=-math.pi / 2), [0.1, 0.2, 0.3], lam, **kw)
        assert run.reason == evolve.REASON_HORIZON and len(run.fields) == 3
        for f in run.fields:
            exact = _vertical_constant(w0, lam, f.r)
            assert abs(f.at_zero() - exact) < tol * abs(exact)

    def test_monochromatic_period_return(self):
        # the benchmark's monochromatic data, at a tenth of its err_target
        mono = evolve.monochromatic_field(math.pi ** 2, N=64)
        run = evolve.schrodinger_evolve(mono, [1.0 / (2.0 * math.pi)], 0.0, err_target=1e-7)
        assert run.reason == evolve.REASON_HORIZON
        assert evolve.ComplexField(run.fields[0].coeffs - mono.coeffs, mono.basis).h1_norm() < 1e-9

    @staticmethod
    def _gamma_0115_return(**kw):
        """Gamma(0.115)'s H^1 distance to its start after s = 2 pi / mu, relative to its norm.

        Gamma(r0 - i s) lies on the W_1(0.1) unstable manifold, where the flow
        is z0 e^(mu t): below r*_+ it returns after s = 2 pi / mu."""
        psi, lam = _gamma(0.115)
        mu = spectrum.eigen(elliptic.branch_point(1, 0.1).profile).eigenvalues[0]
        run = evolve.schrodinger_evolve(psi, [2.0 * math.pi / mu], lam, **kw)
        assert run.reason == evolve.REASON_HORIZON
        return evolve.ComplexField(run.fields[0].coeffs - psi.coeffs, psi.basis).h1_norm() / psi.h1_norm()

    def test_gamma_0115_returns_after_one_period(self):
        assert self._gamma_0115_return(err_target=1e-8) < 2e-12

    def test_gamma_0115_returns_after_one_period_at_the_default(self):
        # the default err_target sits on this ray's roundoff floor: 7.25e-13
        # in 1,504 steps, where 1e-10 took 1,914 steps for 7.24e-13
        assert self._gamma_0115_return() < 1e-12


class TestHeteroclinicShoot:
    def test_direction_validation(self):
        for direction in ("sideways", "plus", 1, None, ["+"], ("-",)):
            with pytest.raises(DomainError):
                evolve.heteroclinic_shoot(1, 0.05, direction)

    def test_minus_direction_descends_to_constant(self):
        res = evolve.heteroclinic_shoot(1, 0.05, "-", N=128, err_target=1e-8)
        assert res.direction == -1
        assert res.outcome == "converged"
        assert res.captured_r is not None and 0.0 < res.captured_r < 20.0
        assert res.final_distance < 1e-6
        assert res.monotone
        assert res.target == pytest.approx(-math.sqrt(elliptic.branch_point(1, 0.05).lam / 6.0), rel=1e-12)
        assert res.record.reason == evolve.REASON_CAPTURED
        assert res.captured_r == res.record.r_star_lower

    def test_shots_at_small_n_match_the_larger_basis(self):
        # the 92-mode ground state at W_1(0.1) fits 64 modes: its tail there is 1e-25
        down = [evolve.heteroclinic_shoot(1, 0.1, "-", N=N, err_target=1e-8) for N in (64, 128)]
        assert [d.outcome for d in down] == ["converged"] * 2
        assert down[0].captured_r == pytest.approx(down[1].captured_r, rel=1e-12)
        # the values of a 129 x N cosine table, matched by the grid transform
        assert [d.monotone for d in down] == [True] * 2
        assert [d.max_increase for d in down] == pytest.approx([-7.41627544252369e-07, -7.416275440300686e-07],
                                                               rel=1e-12)
        up = [evolve.heteroclinic_shoot(1, 0.1, "+", N=N, r_max=6.0, err_target=1e-8) for N in (64, 128)]
        assert [u.outcome for u in up] == ["blowup"] * 2
        assert up[0].record.r_star_lower == pytest.approx(up[1].record.r_star_lower, abs=1e-6)

    @pytest.mark.parametrize("N", [64, 128, 256])
    def test_monotone_samples_match_the_cosine_table(self, N):
        # the minus shot's check reads the series at x_j = j / 256, j = 0..128
        c = np.array([1.0, 1.0j]) @ np.random.default_rng(N).standard_normal((2, N))
        table = np.cos(2.0 * math.pi * np.outer(np.arange(129) / 256.0, np.arange(N)))
        got = evolve._monotone_samples(c)
        assert got.shape == (129,)
        assert np.max(np.abs(got - table @ c)) < 1e-12 * np.sum(np.abs(c))

    def test_plus_direction_blows_up(self):
        res = evolve.heteroclinic_shoot(1, 0.05, "+", N=128, r_max=6.0,
                                        err_target=1e-8)
        assert res.direction == 1
        assert res.outcome == "blowup"
        assert res.record is not None and res.record.diverged
        assert math.isfinite(res.record.r_star_lower)
        assert 0.0 < res.record.r_star_lower < 6.0
        assert res.record.fields == []
        assert res.captured_r is None
        assert res.monotone is None and res.max_increase is None
        assert res.final_distance == math.inf


class TestAnalyticityBoundary:
    def test_corner_at_real_axis(self):
        # Constant data 1/2 at lambda = 0: the real ray is dw/dr = 6 w^2 with
        # pole at r = 1/3, while tilted starts wander off the real axis and
        # never diverge.
        scan = evolve.analyticity_boundary(
            evolve.constant_field(0.5, N=32), [-0.1, 0.0, 0.1], 0.0,
            err_target=1e-9)
        mid = scan.samples[1]
        assert mid.defined and not mid.censored
        assert abs(mid.r_star - 1.0 / 3.0) < 1e-3
        for side in (scan.samples[0], scan.samples[2]):
            assert side.defined and side.censored
        assert scan.corner is not None
        assert scan.corner[1] == 0.0
        assert abs(scan.corner[0] - 1.0 / 3.0) < 1e-3

    def test_vertical_horizon_censors_grid(self):
        # From zero at lambda = 6 the vertical legs pole at |s| = pi / 12, so
        # samples beyond are undefined and nothing on the grid diverges
        # horizontally.
        scan = evolve.analyticity_boundary(
            evolve.constant_field(0.0, N=32), [-0.3, -0.2, 0.2, 0.3], 6.0)
        by_s = {b.s: b for b in scan.samples}
        for s in (-0.2, 0.2):
            assert by_s[s].defined and by_s[s].censored
            assert by_s[s].reason == evolve.REASON_HORIZON
        for s in (-0.3, 0.3):
            assert not by_s[s].defined
            assert by_s[s].r_star is None
        assert scan.corner is None

    def test_pole_row_samples_diverge_below_the_pole(self):
        # w0 = 3/2 at lambda = 6 poles at ln 5 / 12 on the real axis and
        # again at i pi / 6 (see TestRefineCrossing).
        exact = math.log(5.0) / 12.0
        scan = evolve.analyticity_boundary(
            evolve.constant_field(1.5, N=16), [0.0, math.pi / 6.0], 6.0, r_cap=1.0)
        for b in scan.samples:
            assert b.defined and not b.censored
            assert 0.0 <= exact - b.r_star < 1e-4

    def test_real_axis_sample_is_refined_like_the_others(self):
        # At err_target 1e-4 the s = 0 leg passes NORM_THRESHOLD / 4, so its
        # r* is read there, below the leg's last accepted r.
        scan = evolve.analyticity_boundary(
            evolve.constant_field(1.5, N=16), [0.0, math.pi / 6.0], 6.0,
            r_cap=1.0, err_target=1e-4)
        leg = evolve.detect_blowup(evolve.constant_field(1.5, N=16), 6.0, 1.0,
                                   err_target=1e-4)
        assert leg.final_h1 >= evolve.NORM_THRESHOLD / 4.0
        real = scan.samples[0]
        assert real.defined and not real.censored
        assert real.r_star < leg.r_star_lower


class TestBoundaryBytes:
    # Every sample's r_star, censored flag and reason, and the corner, to the
    # last bit: the horizontal legs of a scan may be advanced together, but
    # each must end exactly where it would alone.

    @staticmethod
    def _digest(scan):
        h = hashlib.sha256()
        for b in scan.samples:
            h.update(b"None" if b.r_star is None else float.hex(b.r_star).encode())
            h.update(repr((b.censored, b.reason)).encode())
        corner = None if scan.corner is None else tuple(map(float.hex, scan.corner))
        h.update(repr(corner).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("w0, N, s_values, lam, kw, want", [
        (0.5, 32, [-0.1, 0.0, 0.1], 0.0, {},
         "57e5f66ca16a92b35525a04bd4ccf0b6b23dc78689e1a48498f751c59dc1ba9a"),
        (1.5, 16, [0.0, math.pi / 6.0], 6.0, {"r_cap": 1.0},
         "8f97505a37ba9c3d40019d791f2d4a36ab4d2921a5e2e3117ebf26dc82b1010c"),
        (0.0, 32, [-0.3, -0.2, 0.2, 0.3], 6.0, {},
         "7fe248dddda81bb86a9e75946b43ed89d003a00a4af45c7efe409cde9150333b"),
    ], ids=["lambda0-grid", "pole-row", "vertical-horizon"])
    def test_constant_start(self, w0, N, s_values, lam, kw, want):
        scan = evolve.analyticity_boundary(evolve.constant_field(w0, N=N), s_values, lam, **kw)
        assert self._digest(scan) == want

    def test_w1_plus_launch(self):
        # the "+" launch of heteroclinic_shoot from W_1(0.1): the s = 0 leg blows
        # up near r = 0.1278 and the legs at s = +-0.02 pass the singularity
        bp = elliptic.branch_point(1, 0.1)
        phi0 = spectrum.eigen(bp.profile).eigenvectors[0]
        w = evolve.cosine_field(bp.profile, N=32)
        w.coeffs += 1e-5 * bp.profile.l2_norm() * evolve.cosine_field(phi0, N=32).coeffs
        scan = evolve.analyticity_boundary(w, [-0.02, 0.0, 0.02], bp.lam, r_cap=1.0)
        assert [b.censored for b in scan.samples] == [True, False, True]
        assert self._digest(scan) == "f76447d61f76daede59a76b884d9f31cf5ae5b033b83cb64070af85ae37da92e"

    def test_pole_row_samples_sit_just_below_the_pole(self):
        # constant data 1.5 at lambda = 6 poles at ln 5 / 12 on the real axis and
        # again on the row s = pi / 6; both legs end by NORM_THRESHOLD just short
        exact = math.log(5.0) / 12.0
        scan = evolve.analyticity_boundary(evolve.constant_field(1.5, N=16), [0.0, math.pi / 6.0], 6.0,
                                           r_cap=1.0)
        for b in scan.samples:
            assert b.defined and not b.censored
            assert 0.0 < exact - b.r_star < 1e-8
        assert scan.corner == min((b.r_star, b.s) for b in scan.samples)

    @staticmethod
    def _cosine_scan(N):
        return evolve.analyticity_boundary(evolve.cosine_field([1.0, 0.4, 0.1j], N=N),
                                           [-0.02, 0.0, 0.02, 0.05], 3.0, r_cap=1.0)

    @staticmethod
    def _real_leg(N):
        """The scan's s = 0 leg run alone: its peak sup norm, where the peak sits, and
        its final H^1 distance to the stable state -sqrt(lambda / 6)."""
        leg = evolve.detect_blowup(evolve.cosine_field([1.0, 0.4, 0.1j], N=N), 3.0, 1.0)
        assert leg.reason == evolve.REASON_HORIZON and leg.r_star_lower == 1.0
        sup, r = leg.history["sup"], leg.history["r"]
        stable = evolve.constant_field(-math.sqrt(3.0 / 6.0), N=N).coeffs
        return float(sup.max()), float(r[sup.argmax()]), evolve.ComplexField(leg.final_state.coeffs - stable).h1_norm()

    def test_cosine_start_agrees_across_resolutions(self):
        # every leg reaches r_cap at any N; the s = 0 leg passes its singularity,
        # and its peak, the peak's place and its end agree across N
        coarse, fine = self._cosine_scan(16), self._cosine_scan(32)
        for a, b in zip(coarse.samples, fine.samples):
            assert (a.r_star, a.censored, a.reason) == (b.r_star, b.censored, b.reason)
        assert coarse.corner is None and fine.corner is None
        (peak16, at16, end16), (peak32, at32, end32) = self._real_leg(16), self._real_leg(32)
        assert abs(peak16 - peak32) < 1e-3 * peak32
        assert abs(at16 - at32) < 1e-6
        assert abs(end16 - end32) < 1e-9

    def test_cosine_start(self):
        # complex data misses the real-time singularity, as w' = 6 w^2 from
        # a + ib with b != 0 does: the s = 0 leg peaks at |w| = 1.14e4, about
        # 1 / (6 |w|) = 1.5e-5 from the singularity, and relaxes to -sqrt(lambda / 6)
        scan = self._cosine_scan(16)
        assert [b.censored for b in scan.samples] == [True, True, True, True]
        assert scan.corner is None
        assert self._digest(scan) == "802b81b8364441ffd90e4363c452da474fa8d1d35880c94251fa0b39f6728475"
        peak, at, end = self._real_leg(16)
        assert 1.13e4 < peak < 1.15e4
        assert abs(at - 0.20543) < 1e-5
        assert 1.1e-3 < end < 1.3e-3


def _pole(w0, lam):
    """Blow-up time of constant data w0: ln((w0 + a)/(w0 - a)) / (12 a) with a^2 = lam / 6,
    and 1 / (6 w0) at lam = 0."""
    a = math.sqrt(lam / 6.0)
    return math.log((w0 + a) / (w0 - a)) / (12.0 * a) if a else 1.0 / (6.0 * w0)


class TestRefineCrossing:
    # Constant data w0 at lambda = 6 a^2 poles at r* = ln((w0 + a)/(w0 - a)) / (12 a)
    # and again at r* + i pi / (6 a): a horizontal leg started at i pi / (6 a)
    # meets the same singularity.
    W0, LAM = 1.5, 6.0

    def _pole_row_leg(self, norm_threshold):
        a = math.sqrt(self.LAM / 6.0)
        up = evolve.constant_field(self.W0, N=16, theta=-math.pi / 2)
        run = evolve._run(up, math.pi / (6.0 * a), self.LAM, err_target=1e-10)
        assert run.reason == evolve.REASON_HORIZON
        top = run.final_state
        rec = evolve.detect_blowup(evolve.ComplexField(top.coeffs.copy(), top.basis), self.LAM, 1.0,
                                   norm_threshold=norm_threshold)
        assert rec.diverged
        return rec

    @staticmethod
    def _refine(monkeypatch, rec, norm_threshold):
        calls = []
        advance = evolve._advance

        def counted(*args, **kwargs):
            calls.append(args[1])
            return advance(*args, **kwargs)

        monkeypatch.setattr(evolve, "_advance", counted)
        return evolve._refine_crossing(rec, norm_threshold), len(calls)

    @staticmethod
    def _lower_end(rec, norm_threshold):
        """The last accepted r of a leg with H^1 norm below norm_threshold / 4."""
        h1, r = rec.history["h1"], rec.history["r"]
        return float(r[np.nonzero(h1 < norm_threshold / 4.0)[0][-1]])

    def test_leg_below_quarter_threshold_is_not_rerun(self, monkeypatch):
        # the leg reaches 1e8 just short of the pole; read against a threshold
        # four times past its end, it never crossed
        rec = self._pole_row_leg(1e8)
        assert rec.reason == evolve.REASON_NORM
        assert 0.0 <= _pole(self.W0, self.LAM) - rec.r_star_lower < 1e-8
        r_star, calls = self._refine(monkeypatch, rec, 4.0 * rec.final_h1 * (1.0 + 1e-12))
        assert calls == 0
        assert r_star == rec.r_star_lower

    def test_narrow_bracket_is_not_rerun(self, monkeypatch):
        # the endgame's last steps are shorter than 1e-6: the bracket's lower
        # end is read from the record and sits below the pole
        rec = self._pole_row_leg(1e8)
        lo = self._lower_end(rec, 1e8)
        assert rec.r_star_lower - lo < 1e-6
        r_star, calls = self._refine(monkeypatch, rec, 1e8)
        assert calls == 0
        assert r_star == lo
        assert 0.0 <= _pole(self.W0, self.LAM) - r_star < 1e-8

    def test_crossing_leg_returns_its_lower_end(self, monkeypatch):
        # at threshold 1e3 the leg stops long before its endgame, and its last
        # steps span a bracket wider than 1e-6; its lower end comes back as
        # read, without re-running the leg
        exact = _pole(self.W0, self.LAM)
        rec = self._pole_row_leg(1e3)
        assert rec.reason == evolve.REASON_NORM
        lo = self._lower_end(rec, 1e3)
        assert rec.r_star_lower - lo >= 1e-6
        r_star, calls = self._refine(monkeypatch, rec, 1e3)
        assert calls == 0
        assert r_star == lo
        assert r_star < rec.r_star_lower < exact
        assert exact - r_star < 1e-3

    @pytest.mark.parametrize("w0, lam", [(0.5, 0.0), (1.5, 6.0)], ids=["lambda0", "lambda6"])
    def test_lower_end_stays_below_a_passed_pole(self, w0, lam):
        # at err_target 1e-7 the endgame's last steps pass the pole (by 3.8e-9
        # at lambda = 0 and 4.0e-10 at lambda = 6); the scan's r*, read at
        # NORM_THRESHOLD / 4, stays below it (by 1.4e-9 and 8.8e-9)
        exact = _pole(w0, lam)
        leg = evolve.detect_blowup(evolve.constant_field(w0, N=16), lam, 1.0, err_target=1e-7)
        assert leg.reason == evolve.REASON_NORM
        assert leg.r_star_lower > exact
        scan = evolve.analyticity_boundary(evolve.constant_field(w0, N=16), [0.0], lam, r_cap=1.0,
                                           err_target=1e-7)
        assert 0.0 < exact - scan.samples[0].r_star < 1e-8


@lru_cache(maxsize=None)
def _gamma(r0, N=128):
    """Real part of Gamma(r0): the heat ray of W_1(0.1) - eps phi_0 at N modes (the
    benchmark's launch of the minus shot, at its N = 128 by default), and its lambda."""
    bp = elliptic.branch_point(1, 0.1)
    phi0 = spectrum.eigen(bp.profile).eigenvectors[0]
    w = evolve.cosine_field(bp.profile, N=N)
    w.coeffs -= 1e-5 * bp.profile.l2_norm() * evolve.cosine_field(phi0, N=N).coeffs
    g = evolve.detect_blowup(w, bp.lam, r0).final_state
    return evolve.ComplexField(g.coeffs.real.copy(), g.basis), bp.lam


class TestEndgame:
    # Blow-up times against exact answers and against themselves: a ray that
    # nears a singularity must reach NORM_THRESHOLD where the singularity is,
    # whatever the tolerance, and a ray that misses one must pass it.

    # from 50, 100 and 1000 the pole 1 / (6 w0) lies closer than the first step
    # on the ladder (8.6e-3): that step lands past it and must not be accepted
    @pytest.mark.parametrize("w0, lam", [(1.5, 6.0), (0.5, 0.0), (50.0, 0.0), (100.0, 0.0), (1000.0, 0.0)],
                             ids=["lambda6", "lambda0", "lambda0-w50", "lambda0-w100", "lambda0-w1000"])
    def test_constant_data_meets_the_closed_form(self, w0, lam):
        rec = evolve.detect_blowup(evolve.constant_field(w0, N=16), lam, 1.0)
        assert rec.reason == evolve.REASON_NORM
        assert 0.0 <= _pole(w0, lam) - rec.r_star_lower < 1e-8

    def test_pole_row_leg_meets_the_closed_form(self):
        # the same pole again at i pi / (6a): up the vertical ray, then along r
        w0, lam = 1.5, 6.0
        a = math.sqrt(lam / 6.0)
        up = evolve._run(evolve.constant_field(w0, N=16, theta=-math.pi / 2),
                         math.pi / (6.0 * a), lam, err_target=1e-10)
        assert up.reason == evolve.REASON_HORIZON
        top = up.final_state
        rec = evolve.detect_blowup(evolve.ComplexField(top.coeffs.copy(), top.basis), lam, 1.0)
        assert rec.reason == evolve.REASON_NORM
        assert 0.0 <= _pole(w0, lam) - rec.r_star_lower < 1e-8

    def test_gamma_0129_blowup_does_not_move_with_the_tolerance(self):
        psi, lam = _gamma(0.129)
        runs = [evolve.schrodinger_evolve(psi, [0.1], lam, err_target=tol) for tol in (1e-9, 1e-10, 1e-11)]
        assert [run.reason for run in runs] == [evolve.REASON_NORM] * 3
        s_star = [run.s_reached for run in runs]
        assert max(s_star) - min(s_star) < 1e-6
        assert 0.0357 < s_star[0] < 0.0358

    def test_w2_shot_blows_up_at_a_quarter_of_the_w1_shot(self):
        # W_2(h) is 4 W_1(h)(2x) and lambda_2 = 16 lambda_1, so the W_2 "+" shot
        # is w_2(r, x) = 4 w_1(4r, 2x) and blows up at a quarter of the time
        w1 = evolve.heteroclinic_shoot(1, 0.1, "+", N=128, r_max=6.0)
        w2 = evolve.heteroclinic_shoot(2, 0.1, "+", N=256, r_max=1.5)
        assert w1.record.reason == w2.record.reason == evolve.REASON_NORM
        assert abs(4.0 * w2.record.r_star_lower - w1.record.r_star_lower) < 1e-6

    def test_gamma_0131_vertical_ray_reaches_its_horizon(self):
        # the loop over [0.131, 0.140] x [0, 0.045] commutes: no singularity there
        psi, lam = _gamma(0.131)
        run = evolve.schrodinger_evolve(psi, [0.045], lam)
        assert run.reason == evolve.REASON_HORIZON
        assert run.s_reached == 0.045

    @pytest.mark.parametrize("err_target", [1e-9, 1e-11])
    def test_complex_start_passes_its_singularity(self, err_target):
        # w0 with a nonzero imaginary part misses the real-time singularity
        # (as w' = 6 w^2 does) and relaxes to the stable state
        rec = evolve.detect_blowup(evolve.cosine_field([1.0, 0.4, 0.1j], N=16), 3.0, 1.0,
                                   err_target=err_target)
        assert rec.reason == evolve.REASON_HORIZON
        assert rec.r_star_lower == 1.0

    def test_smooth_vertical_ray_at_a_tight_tolerance(self):
        run = evolve.schrodinger_evolve(evolve.cosine_field([0.3, 0.2 + 0.1j, 0.05j], N=64), [0.05], 3.0,
                                        err_target=1e-12)
        assert run.reason == evolve.REASON_HORIZON
        assert run.s_reached == 0.05

    @pytest.mark.parametrize("state", [
        evolve.constant_field(1.5, N=16),
        evolve.constant_field(3e4, N=16),
        evolve.ComplexField(evolve.cosine_field([1.0, 0.4, 0.1j], N=32).coeffs, theta=-math.pi / 2),
        evolve.monochromatic_field(math.pi ** 2, N=64),
        evolve.cosine_field(elliptic.branch_point(1, 0.1).profile, N=128),
        evolve.ComplexField(evolve.cosine_field(elliptic.branch_point(1, 0.1).profile, N=128).coeffs,
                            theta=-math.pi / 2),
    ], ids=["constant", "large-constant", "cosine-vertical", "circle", "W1", "W1-vertical"])
    def test_roundoff_floor_sits_above_the_doubling_noise(self, state):
        # at the smallest steps the step-doubling estimate is roundoff alone;
        # the floor the controller puts under its tolerance must stay above it
        u = state.coeffs[None]
        floor = sys.float_info.epsilon * evolve._roundoff_weight(state.basis, state.N)
        for k in range(6):
            dr = evolve.DR_MIN * 2.0 ** k
            with np.errstate(over="ignore", invalid="ignore"):
                full = evolve.step(u, state.basis, state.theta, (dr,), 6.0)
                half = evolve.step(evolve.step(u, state.basis, state.theta, (dr / 2.0,), 6.0),
                                   state.basis, state.theta, (dr / 2.0,), 6.0)
            (err,) = evolve._h1_diff(full, half, state.basis)
            (l2,), _ = evolve._norms(half, state.basis)
            assert err / 15.0 < floor * l2


class TestPrincipalSheet:
    # What vertical-then-horizontal paths from Gamma(0.05) reach, at N = 64. The
    # singularity t_+ of Gamma sits at Re t = r*_+ (the "+" shot's blow-up) and
    # Im t = pi / mu, mu = 92.7314 the unstable eigenvalue of W_1(0.1): legs
    # that pass it relax to W_0 = -sqrt(lambda / 6), and the leg through it diverges.

    @staticmethod
    def _mu():
        return float(spectrum.eigen(elliptic.branch_point(1, 0.1).profile).eigenvalues[0])

    @pytest.mark.parametrize("fraction", [0.25, 0.45, 0.55])
    def test_legs_off_the_singularity_relax_to_w0(self, fraction):
        psi, lam = _gamma(0.05, N=64)
        up = evolve.schrodinger_evolve(psi, [fraction * 2.0 * math.pi / self._mu()], lam)
        assert up.reason == evolve.REASON_HORIZON
        top = up.fields[0]
        leg = evolve.detect_blowup(evolve.ComplexField(top.coeffs.copy(), top.basis), lam, 0.3)
        assert leg.reason == evolve.REASON_HORIZON
        w0 = evolve.constant_field(-math.sqrt(lam / 6.0), N=64).coeffs
        assert evolve.ComplexField(leg.final_state.coeffs - w0).h1_norm() < 1e-6

    def test_leg_through_the_singularity_diverges_at_the_plus_shot_blowup(self):
        # the gap, 2e-7, is the launch's first-order error in eps
        psi, lam = _gamma(0.05, N=64)
        scan = evolve.analyticity_boundary(psi, [math.pi / self._mu()], lam, r_cap=0.3)
        sample = scan.samples[0]
        assert sample.defined and not sample.censored
        shot = evolve.heteroclinic_shoot(1, 0.1, "+", N=64)
        assert shot.outcome == "blowup"
        assert abs(0.05 + sample.r_star - shot.record.r_star_lower) < 1e-6
