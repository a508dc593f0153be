"""Tests for complex-time evolution: rays, blow-up detection, shooting."""

import hashlib
import math

import numpy as np
import pytest

from eternal_kit import elliptic, evolve
from eternal_kit.errors import BlowupSignal, DomainError

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
        assert f.l2_norm() == pytest.approx(math.sqrt(9.0 / 2.0 + 16.0 / 4.0), rel=1e-14)
        assert f.grad_norm() == pytest.approx(8.0 * math.pi, rel=1e-14)
        assert f.h1_norm() == pytest.approx(math.hypot(f.l2_norm(), f.grad_norm()), rel=1e-14)
        assert f.at_zero() == pytest.approx(7.0)

    def test_values_match_direct_cosine_sum(self):
        coeffs = np.array([0.5, -0.2, 0.0, 0.1 + 0.05j])
        f = evolve.cosine_field(coeffs, N=16)
        M = 64
        vals = f.values(M)
        x = np.arange(M) / M
        direct = sum(coeffs[k] * np.cos(2.0 * math.pi * k * x) for k in range(4))
        assert np.max(np.abs(vals - direct)) < 1e-12

    def test_periodic_values_and_norm(self):
        a = 0.7 - 0.2j
        f = evolve.monochromatic_field(a, N=32)
        M = 128
        x = np.arange(M) / M
        assert np.max(np.abs(f.values(M) - a * np.exp(2j * math.pi * x))) < 1e-12
        assert f.l2_norm() == pytest.approx(abs(a), rel=1e-14)
        assert f.grad_norm() == pytest.approx(2.0 * math.pi * abs(a), rel=1e-14)

    @pytest.mark.parametrize("basis, M_min", [(evolve.NEUMANN_HALF, 32), (evolve.PERIODIC_UNIT, 18)])
    def test_values_need_a_grid_that_holds_every_mode(self, basis, M_min):
        f = evolve.constant_field(1.0, basis=basis, N=16)
        assert f.values(M_min).shape == (M_min,)
        with pytest.raises(DomainError):
            f.values(M_min - 1)

    @pytest.mark.parametrize("make", [
        lambda: evolve.cosine_field([0.3, 0.2 + 0.1j, -0.05j], N=16),
        lambda: evolve.monochromatic_field(0.4 + 0.3j, N=16),
    ])
    def test_conjugate_is_pointwise(self, make):
        f = make()
        g = f.conjugate()
        assert np.max(np.abs(g.values(64) - np.conj(f.values(64)))) < 1e-13

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

    def test_sectorial_flag(self):
        assert evolve.constant_field(0.0, theta=0.0).sectorial
        assert evolve.constant_field(0.0, theta=1.0).sectorial
        assert not evolve.constant_field(0.0, theta=-math.pi / 2).sectorial


class TestStep:
    def test_advances_clock(self):
        st = evolve.constant_field(0.1, N=8)
        out = evolve.step(st, 0.01, 2.0)
        assert out.r == pytest.approx(0.01)
        assert out.basis == st.basis and out.theta == st.theta

    def test_fixed_step_order_about_four(self):
        def run(nsteps):
            st = evolve.cosine_field([0.2, 0.1, 0.05], N=32)
            dr = 0.1 / nsteps
            for _ in range(nsteps):
                st = evolve.step(st, dr, 4.0)
            return st

        ref = run(512)
        errs = []
        for n in (8, 16, 32):
            st = run(n)
            errs.append(evolve.ComplexField(st.coeffs - ref.coeffs, st.basis).h1_norm())
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes >= 3.5)


class TestSquare:
    # direct coefficient convolutions, no FFT, at every N = M / 4 of the
    # transform test and a few more
    @pytest.mark.parametrize("N", [2, 4, 5, 16, 37, 64, 100, 128, 256])
    def test_cosine_square_matches_exact_product(self, N):
        rng = np.random.default_rng(N)
        c = rng.normal(size=N) + 1j * rng.normal(size=N)
        series = elliptic.CosineSeries(c)
        want = elliptic.cosine_product(series, series).coeffs[:N]
        got = evolve._square(c, evolve.NEUMANN_HALF)
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
        got = evolve._square(c, evolve.PERIODIC_UNIT)
        assert np.max(np.abs(got - want)) < 1e-14 * np.sum(np.abs(c)) ** 2


class TestTransforms:
    # The grid transforms must give exactly the bytes of the plain np.fft
    # recipe: the goldens and the digests below depend on every float.

    @staticmethod
    def _np_to_grid(c, basis, M):
        k = evolve._wavenumbers(basis, len(c)).astype(int)
        full = np.zeros(M, dtype=complex)
        full[k % M] = c
        if basis == evolve.NEUMANN_HALF:
            full[k[1:]] = full[M - k[1:]] = c[1:] / 2.0
        return np.fft.ifft(full) * M

    @staticmethod
    def _np_from_grid(values, basis, N):
        k = evolve._wavenumbers(basis, N).astype(int)
        out = (np.fft.fft(values) / len(values))[k % len(values)]
        if basis == evolve.NEUMANN_HALF:
            out[1:] *= 2.0
        return out

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    @pytest.mark.parametrize("M", [16, 64, 148, 256, 400, 512, 1024])
    def test_transforms_match_numpy_fft_bytes(self, M, basis):
        N = M // 4
        rng = np.random.default_rng(M)
        c = rng.normal(size=N) + 1j * rng.normal(size=N)
        grid = evolve._to_grid(c, basis, M)
        assert grid.tobytes() == self._np_to_grid(c, basis, M).tobytes()
        back = evolve._from_grid(grid * grid, basis, N)
        assert back.tobytes() == self._np_from_grid(grid * grid, basis, N).tobytes()
        assert evolve._square(c, basis).tobytes() == back.tobytes()

    @pytest.mark.parametrize("basis", [evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT])
    @pytest.mark.parametrize("M", [16, 64, 148, 256, 400, 512, 1024])
    def test_stack_rows_match_numpy_fft_bytes(self, M, basis):
        # a stack of rays transforms along its last axis, each row to the
        # bytes of its own 1-d transform
        N = M // 4
        rng = np.random.default_rng(M + 1)
        c = rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N))
        grid = evolve._to_grid(c, basis, M)
        back = evolve._from_grid(grid * grid, basis, N)
        square = evolve._square(c, basis)
        assert grid.shape == (3, M) and back.shape == square.shape == (3, N)
        for row, g, b, sq in zip(c, grid, back, square):
            assert g.tobytes() == self._np_to_grid(row, basis, M).tobytes()
            assert b.tobytes() == self._np_from_grid(g * g, basis, N).tobytes()
            assert sq.tobytes() == b.tobytes()


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

    def test_vertical_ray(self):
        run = evolve.schrodinger_evolve(evolve.cosine_field(self.DATA, N=64), [0.05], 3.0)
        assert run.reason == evolve.REASON_HORIZON and len(run.history["r"]) == 374
        assert self._digest(run) == "2ceff6bcccfb1cd6c404c35e436e832be1b01c582f0eff0b486ec375972c0163"

    def test_oblique_ray(self):
        run = evolve.detect_blowup(evolve.cosine_field(self.DATA, N=64, theta=0.7), 3.0, 0.05)
        assert run.reason == evolve.REASON_HORIZON and len(run.history["r"]) == 143
        assert self._digest(run) == "e82aac41bd7a6036219fb2e6af3aec9ad1e1ff523148a419cd3bd2d04862114f"


class TestStack:
    # Rays that share basis, N, theta and lam go through each step as one
    # stack, each row under its own step control and stops, and each ends
    # with the bytes of its run alone.

    @staticmethod
    def _rays():
        return [evolve.constant_field(1.5, N=16),                 # STEP_COLLAPSE near 0.134
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
        assert [(f.r, f.coeffs.tobytes()) for f in run.fields] == [
            (f.r, f.coeffs.tobytes()) for f in alone.fields]

    def test_rows_end_as_they_would_alone(self):
        stacked = evolve._run(self._rays(), [0.3], 6.0, norm_threshold=1e4)
        assert [run.reason for run in stacked] == [
            evolve.REASON_STEP, evolve.REASON_NORM, evolve.REASON_HORIZON]
        assert len({run.r_star_lower for run in stacked}) == 3
        for run, ray in zip(stacked, self._rays()):
            self._assert_same_run(run, evolve.detect_blowup(ray, 6.0, 0.3, norm_threshold=1e4))

    def test_rows_pass_several_stops_as_they_would_alone(self):
        stops = [0.05, 0.1, 0.3]
        stacked = evolve._run(self._rays(), stops, 6.0, norm_threshold=1e4)
        assert [len(run.fields) for run in stacked] == [2, 1, 3]
        for run, ray in zip(stacked, self._rays()):
            self._assert_same_run(run, evolve._run(ray, stops, 6.0, norm_threshold=1e4))

    def test_stack_must_share_its_ray(self):
        rays = [evolve.constant_field(0.5, N=16), evolve.constant_field(0.5, N=16, theta=0.3)]
        with pytest.raises(DomainError):
            evolve._advance(rays, 0.1, 0.0)


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
        assert not rec.near_resonant_lambda
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

    def test_near_resonant_lambda_flag(self):
        lam = (8.0 / 3.0) * math.pi ** 4
        rec = evolve.detect_blowup(evolve.constant_field(0.0, N=16), lam, 1e-3)
        assert rec.near_resonant_lambda

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

        def counted_diff(u1, u2):
            calls["estimates"] += 1
            return h1_diff(u1, u2)

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
    # attempts; each attempt stops at its first failing step call.

    def _count_steps(self, monkeypatch, fail):
        drs = []
        step = evolve.step

        def counted(state, dr, lam):
            drs.append(dr)
            fail(state)
            return step(state, dr, lam)

        monkeypatch.setattr(evolve, "step", counted)
        rec = evolve.detect_blowup(evolve.constant_field(0.5, N=8), 0.0, 0.05)
        assert rec.reason == evolve.REASON_STEP
        assert rec.r_star_lower == 0.0
        assert len(rec.history["r"]) == 1
        return drs

    def test_blowup_signal_quarters_the_step_until_collapse(self, monkeypatch):
        def fail(state):
            raise BlowupSignal("forced", state)

        drs = self._count_steps(monkeypatch, fail)
        assert len(drs) == 17
        assert drs[0] == 8.589934592e-3
        assert drs[-1] == 2e-12
        assert drs == [drs[0] / 4.0 ** k for k in range(17)]

    def test_non_finite_estimate_quarters_the_step_until_collapse(self, monkeypatch):
        monkeypatch.setattr(evolve, "_h1_diff", lambda u1, u2: [math.nan])
        drs = self._count_steps(monkeypatch, lambda state: None)
        # one full step and two half steps per attempt
        assert len(drs) == 51
        assert drs[0] == 8.589934592e-3
        assert drs[-3:] == [2e-12, 1e-12, 1e-12]


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
        run = evolve.schrodinger_evolve(evolve.constant_field(0.0, N=32),
                                        [0.2, 0.3], 6.0)
        assert run.status == evolve.REASON_STEP
        assert len(run.fields) == 1
        assert run.fields[0].r == pytest.approx(0.2)
        assert run.s_reached < 0.3


class TestHeteroclinicShoot:
    def test_direction_validation(self):
        for direction in ("sideways", "plus", 1):
            with pytest.raises(DomainError):
                evolve.heteroclinic_shoot(1, 0.05, direction)

    def test_minus_direction_descends_to_constant(self):
        res = evolve.heteroclinic_shoot(1, 0.05, "-", N=128, err_target=1e-8)
        assert res.direction == -1
        assert res.outcome == "converged"
        assert res.captured_r is not None and 0.0 < res.captured_r < 20.0
        assert res.final_distance < 1e-6
        assert res.monotone
        assert res.target == pytest.approx(-math.sqrt(res.record.lam / 6.0), rel=1e-12)
        assert res.record.reason == evolve.REASON_CAPTURED
        assert res.captured_r == res.record.r_star_lower

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
        # At err_target 1e-4 the s = 0 leg passes NORM_THRESHOLD / 4, so the
        # crossing bisection moves its r* below the leg's last accepted r.
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
         "62813459589e70b5b17adde57817d4d0a04473745f476d00a2faa2cbdb3e5ec0"),
        (1.5, 16, [0.0, math.pi / 6.0], 6.0, {"r_cap": 1.0},
         "9869e2614d37adf46cebddd6a29beab28100310f50f1070ec3a5fecdc6c35b1b"),
        (0.0, 32, [-0.3, -0.2, 0.2, 0.3], 6.0, {},
         "7fe248dddda81bb86a9e75946b43ed89d003a00a4af45c7efe409cde9150333b"),
    ], ids=["lambda0-grid", "pole-row", "vertical-horizon"])
    def test_constant_start(self, w0, N, s_values, lam, kw, want):
        scan = evolve.analyticity_boundary(evolve.constant_field(w0, N=N), s_values, lam, **kw)
        assert self._digest(scan) == want

    def test_cosine_start(self):
        # s = 0 diverges, the tilted legs reach r_cap
        scan = evolve.analyticity_boundary(evolve.cosine_field([1.0, 0.4, 0.1j], N=16),
                                           [-0.02, 0.0, 0.02, 0.05], 3.0, r_cap=1.0)
        assert [b.censored for b in scan.samples] == [True, False, True, True]
        assert self._digest(scan) == "9fd07f447eaf628fbd1ee2d152427a702c9ac1d0d06fa6fa6fba6f876825cf21"


class TestRefineCrossing:
    # Constant data w0 at lambda = 6 a^2 poles at r* = ln((w0 + a)/(w0 - a)) / (12 a)
    # and again at r* + i pi / (6 a): a horizontal leg started at i pi / (6 a)
    # meets the same singularity.
    W0, LAM = 1.5, 6.0

    def _pole_row_leg(self, norm_threshold):
        a = math.sqrt(self.LAM / 6.0)
        up = evolve.constant_field(self.W0, N=16, theta=-math.pi / 2)
        top, status = evolve._advance(up, math.pi / (6.0 * a), self.LAM, err_target=1e-10)
        assert status == evolve.REASON_HORIZON
        start = evolve.ComplexField(top.coeffs.copy(), top.basis)
        rec = evolve.detect_blowup(start, self.LAM, 1.0, norm_threshold=norm_threshold)
        assert rec.diverged
        return start, rec

    def _refine(self, monkeypatch, start, rec, norm_threshold):
        calls = []
        advance = evolve._advance

        def counted(*args, **kwargs):
            calls.append(args[1])
            return advance(*args, **kwargs)

        monkeypatch.setattr(evolve, "_advance", counted)
        return evolve._refine_crossing(start, self.LAM, rec, norm_threshold, 1e-9), len(calls)

    def test_leg_below_quarter_threshold_is_not_rerun(self, monkeypatch):
        start, rec = self._pole_row_leg(1e8)
        assert rec.final_h1 < 1e8 / 4.0
        r_star, calls = self._refine(monkeypatch, start, rec, 1e8)
        assert calls == 0
        assert r_star == rec.r_star_lower

    def test_crossing_leg_is_bisected_below_the_pole(self, monkeypatch):
        a = math.sqrt(self.LAM / 6.0)
        exact = math.log((self.W0 + a) / (self.W0 - a)) / (12.0 * a)
        start, rec = self._pole_row_leg(1e3)
        assert rec.reason == evolve.REASON_NORM
        r_star, calls = self._refine(monkeypatch, start, rec, 1e3)
        assert calls > 1
        assert r_star <= rec.r_star_lower
        assert r_star <= exact
        assert exact - r_star < 1e-3
