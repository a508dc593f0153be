"""Tests of the benchmark's own references, tracer and exit behaviour.

    python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eternal_kit import evolve  # noqa: E402


@pytest.mark.parametrize("w0, lam", [(1.5, 6.0), (0.5, 0.0), (2.0, 0.7), (1.01, 6.0)])
def test_rstar_closed_form_matches_quadrature(w0, lam):
    # r* = integral of dw / (6 w^2 - lam) from w0 to infinity
    value, _ = quad(lambda w: 1.0 / (6.0 * w * w - lam), w0, math.inf, epsabs=1e-14, epsrel=1e-12)
    assert oracles.rstar_constant(w0, lam) == pytest.approx(value, rel=1e-10)


def test_rstar_closed_form_rejects_data_that_does_not_blow_up():
    with pytest.raises(ValueError):
        oracles.rstar_constant(0.5, 6.0)


@pytest.mark.parametrize("w0, lam", [(1.5, 6.0), (0.8, 1.0)])
def test_pole_row_repeats_rstar(w0, lam):
    rstar, s1 = oracles.rstar_constant(w0, lam), oracles.pole_row_spacing(lam)
    assert oracles.constant_solution(0.0, w0, lam) == pytest.approx(w0, rel=1e-12)
    for s in (0.0, s1):
        eps = 1e-7
        near = oracles.constant_solution(complex(rstar - eps, s), w0, lam)
        assert abs(near) == pytest.approx(1.0 / (6.0 * eps), rel=1e-5)
    # halfway between the rows the solution stays bounded
    assert abs(oracles.constant_solution(complex(rstar, s1 / 2), w0, lam)) < 10.0


def test_constant_w_spectrum_matches_finite_differences():
    # Neumann Laplacian on (0, 1/2) by central differences on a cell-centred grid
    M, W = 4000, 0.7
    dx = 0.5 / M
    lap = (np.diag(-2.0 * np.ones(M)) + np.diag(np.ones(M - 1), 1) + np.diag(np.ones(M - 1), -1)) / dx ** 2
    lap[0, 0] = lap[-1, -1] = -1.0 / dx ** 2
    fd = np.sort(np.linalg.eigvalsh(lap + 12.0 * W * np.eye(M)))[::-1][:5]
    assert fd == pytest.approx(oracles.constant_w_spectrum(W, 5), rel=1e-5, abs=1e-5)


def test_order0_resonances_by_hand():
    for n in range(1, 5):
        assert oracles.order0_resonances(n) == []
    # at n = 5 the weights are 25, 24, 21, 16, 9 and 16 + 9 = 25 is the only relation
    assert oracles.order0_resonances(5) == [(0, (0, 0, 0, 1, 1))]
    for n in range(5, 12):
        for j, m in oracles.order0_resonances(n):
            assert 2 <= sum(m) <= math.ceil(n * n / (2 * n - 1))
            assert sum(c * (n * n - k * k) for k, c in enumerate(m)) == n * n - j * j


def _rotation_classes(chords):
    """Rotation classes of noncrossing perfect matchings on 2 * chords points."""
    slots = 2 * chords

    def matchings(points):
        if not points:
            yield ()
            return
        a = points[0]
        for i in range(1, len(points), 2):
            for inner in matchings(points[1:i]):
                for outer in matchings(points[i + 1:]):
                    yield ((a, points[i]),) + inner + outer

    seen = set()
    for m in matchings(tuple(range(slots))):
        partner = [0] * slots
        for a, b in m:
            partner[a], partner[b] = b, a
        seen.add(min(tuple((partner[(s + t) % slots] - t) % slots for s in range(slots))
                     for t in range(slots)))
    return len(seen)


def test_published_census_matches_brute_force():
    for d in range(2, 9):
        assert _rotation_classes(d - 1) == oracles.A002995[d]


def test_mu2_exact_and_extrapolation():
    assert oracles.mu2_exact(1, 0) == 264
    assert oracles.mu2_exact(2, 1) == 48 * 4
    f = lambda h: 3.0 + 2.0 * h + 5.0 * h * h + 7.0 * h ** 3 + 11.0 * h ** 4 + 13.0 * h ** 6  # noqa: E731
    h = 1e-2
    got = oracles.richardson_second_coefficient(f(0), f(h), f(-h), f(2 * h), f(-2 * h), h)
    # the h^2 term of the second difference is removed; 13 h^6 leaves -52 h^4
    assert got == pytest.approx(5.0 - 52.0 * h ** 4, abs=1e-9)


def test_ledger_counts_failed_operations():
    ledger = workloads.Ledger()
    assert ledger.call("ok", lambda: 3) == 3
    assert ledger.call("bad", lambda: 1 / 0) is None
    ledger.check("fine", True)
    ledger.check("wrong", False, "detail")
    assert (ledger.attempted, ledger.failed, ledger.checks) == (2, 1, 2)
    assert ledger.check_failures == ["wrong: detail"]


def test_tracer_counts_accepted_steps_and_restores_the_program():
    originals = {name: getattr(owner, attr) for name, (owner, attr) in tracing.SPANS.items()}
    tracer = tracing.Tracer()
    before = tracer.tables_info()
    tracer.install()
    try:
        rec = evolve.detect_blowup(evolve.constant_field(1.0, N=8), 0.0, 0.05)
    finally:
        tracer.remove()
    for name, (owner, attr) in tracing.SPANS.items():
        assert getattr(owner, attr) is originals[name]
    m = tracer.metrics(before, tracer.tables_info())
    # the history holds the start and one entry per accepted step
    assert m["evolve.advance.accepted"] == len(rec.history["r"]) - 1
    assert m["evolve.step.calls"] >= 3 * m["evolve.advance.accepted"]
    assert m["evolve.square.calls"] == 4 * m["evolve.step.calls"]
    assert m["evolve.advance.endgame_accepted"] == 0      # the ray ended at its horizon
    calls, total, self_s = tracer.spans["evolve.detect_blowup"]
    assert calls == 1 and 0.0 <= self_s <= total


def test_tail_percentile_needs_forty_samples():
    assert run.tail_percentile(list(range(39))) is None
    p, value = run.tail_percentile(list(range(40)))
    assert p == 75 and 28 < value < 31


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"][:1] + [str(tmp_path / spec["command"][1]), "--workload", "exact",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
