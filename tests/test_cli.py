"""End-to-end tests of the eternal-kit command line interface."""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings, strategies as st

from eternal_kit import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "branch.csv": ["branch", "--n", "1", "--h", "0.1"],
    "spectrum.csv": ["spectrum", "--n", "1", "--h", "0.05", "--count", "6"],
    "resonance.csv": ["resonance", "--n-max", "5"],
    "evolve.csv": ["evolve", "--constant", "0", "--lambda", "6",
                   "--r-max", "0.5", "--modes", "32"],
    "evolve_mono.csv": ["evolve", "--mono", "3", "--modes", "16", "--r-max", "0.1"],
    "boundary.csv": ["boundary", "--constant", "0.5", "--lambda", "0",
                     "--s-min", "-0.1", "--s-max", "0.1", "--points", "3",
                     "--modes", "32"],
    "ode.csv": ["ode", "--t-end", "3", "--samples-per-unit", "4"],
    "ode_lattice.csv": ["ode", "--cyclotomic", "4", "--lattice"],
    "portrait.csv": ["portrait", "--cyclotomic", "3"],
    "trees.csv": ["trees", "--d-min", "2", "--d-max", "12"],
    "trees_codes.csv": ["trees", "--codes", "10"],
    "waves.csv": ["waves", "--c-min", "0", "--c-max", "3", "--points", "7"],
    "waves_resonant.csv": ["waves", "--resonant", "4"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name):
    rc, out, _ = run_cli(GOLDEN_CASES[name])
    assert rc == 0
    assert out == (GOLDEN_DIR / name).read_text()


def test_import_leaves_the_ode_solver_unloaded():
    # scipy.integrate costs most of the import time; only the ODE commands need it
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, eternal_kit.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_only_the_named_submodule():
    # the package re-exports nothing: each submodule loads what it needs
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, {target}; print(sorted(m for m in sys.modules if m.startswith('eternal_kit.')"
            " or m == 'scipy.fft'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = {}
    for target in ("eternal_kit", "eternal_kit.elliptic"):
        proc = subprocess.run([sys.executable, "-c", code.format(target=target)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded[target] = proc.stdout.strip()
    assert loaded["eternal_kit"] == "[]"
    assert "eternal_kit.elliptic" in loaded["eternal_kit.elliptic"]
    assert "eternal_kit.evolve" not in loaded["eternal_kit.elliptic"]
    assert "scipy.fft" not in loaded["eternal_kit.elliptic"]


class TestFormats:
    def test_json_matches_csv(self):
        rc_c, csv_text, _ = run_cli(["trees", "--d-min", "2", "--d-max", "5"])
        rc_j, json_text, _ = run_cli(["trees", "--d-min", "2", "--d-max", "5",
                                      "--format", "json"])
        assert rc_c == rc_j == 0
        header, rows = parse_csv(csv_text)
        payload = json.loads(json_text)
        assert payload["columns"] == header
        assert [[str(v) for v in r] for r in payload["rows"]] == \
            [[row[col] for col in header] for row in rows]

    def test_floats_round_trip_at_full_precision(self):
        rc, out, _ = run_cli(["branch", "--n", "1", "--h", "0.1"])
        assert rc == 0
        _, rows = parse_csv(out)
        lam_str = rows[0]["lambda"]
        assert lam_str == "%.17g" % float(lam_str)
        rc, json_text, _ = run_cli(["branch", "--n", "1", "--h", "0.1",
                                    "--format", "json"])
        lam_json = json.loads(json_text)["rows"][0][3]
        assert float(lam_str) == lam_json

    def test_csv_meta_goes_to_stderr(self):
        rc, out, err = run_cli(["waves", "--resonant", "2"])
        assert rc == 0
        assert "c_critical" not in out
        assert "c_critical=" in err


class TestOutDescriptor:
    def test_writes_table_and_descriptor(self, tmp_path):
        target = str(tmp_path / "res.csv")
        argv = ["waves", "--resonant", "3", "--out", target]
        rc, out, _ = run_cli(argv)
        assert rc == 0 and out == ""
        table1 = Path(target).read_text()
        rc_plain, plain, _ = run_cli(["waves", "--resonant", "3"])
        assert table1 == plain
        desc = json.loads(Path(target + ".run.json").read_text())
        assert desc["tool"] == "eternal-kit"
        assert desc["subcommand"] == "waves"
        assert desc["argv"] == argv
        assert desc["outputs"] == [target]
        # the byte-exact outputs depend on these
        assert desc["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__, "scipy": scipy.__version__}
        # A rerun reproduces both files byte for byte.
        desc1 = Path(target + ".run.json").read_text()
        rc, _, _ = run_cli(argv)
        assert rc == 0
        assert Path(target).read_text() == table1
        assert Path(target + ".run.json").read_text() == desc1


class TestExitCodes:
    def test_success(self):
        assert run_cli(["trees", "--d-min", "4", "--d-max", "4"])[0] == 0

    def test_domain_error(self):
        rc, _, err = run_cli(["spectrum", "--n", "0"])
        assert rc == 1
        assert "domain error" in err

    def test_degenerate_field_is_domain_error(self):
        from tests.test_scalar_ode import CENTERLESS_DEGENERATE_ROOTS
        roots_arg = ";".join(f"{z.real},{z.imag}"
                             for z in CENTERLESS_DEGENERATE_ROOTS)
        rc, _, err = run_cli(["portrait", "--roots", roots_arg])
        assert rc == 1
        assert "domain error" in err

    def test_non_convergence(self):
        # At h = 0.99 the tail bound needs thousands of modes.
        rc, _, err = run_cli(["branch", "--n", "1", "--h", "0.99"])
        assert rc == 2
        assert "TruncationError" in err

    def test_usage_errors(self):
        assert run_cli(["no-such-command"])[0] == 64
        rc, _, err = run_cli(["resonance"])
        assert rc == 64
        assert "usage error" in err

    @pytest.mark.parametrize("argv", [
        ["evolve", "--profile", "1"],
        ["boundary", "--profile", "1,2,3"],
        ["ode", "--w0", "1"],
        ["evolve", "--constant", "abc"],
        ["evolve", "--mono", "zz"],
        ["portrait", "--roots", "1,2;3"],
        ["ode", "--roots", "x"],
    ])
    def test_malformed_field_strings(self, argv):
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["evolve", "--constant", "nan", "--modes", "8", "--r-max", "0.05"],
        ["evolve", "--mono", "nan+0j"],
        ["evolve", "--r-max", "inf", "--modes", "8"],
        ["ode", "--w0", "nan,0"],
        ["ode", "--cyclotomic", "0"],
        ["portrait", "--cyclotomic", "0"],
    ])
    def test_non_finite_numbers_and_zero_degree(self, argv):
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("theta", ["2", "-2"])
    def test_ray_angle_past_vertical_is_domain_error(self, theta):
        # cos(theta) < 0 makes the linear part anti-diffusive: ill-posed
        rc, out, err = run_cli(["evolve", "--theta", theta, "--constant", "0.5",
                                "--modes", "8", "--r-max", "0.05"])
        assert rc == 1
        assert out == ""
        assert "ray angle must satisfy |theta| <= pi/2" in err

    @pytest.mark.parametrize("argv", [
        ["evolve", "--err-target=-1e-3", "--constant", "0.5", "--modes", "8", "--r-max", "0.05"],
        ["evolve", "--norm-threshold=-1", "--constant", "0.5", "--modes", "8", "--r-max", "0.05"],
        ["boundary", "--err-target=0", "--constant", "0.5", "--modes", "8", "--points", "1",
         "--r-cap", "0.05"],
    ])
    def test_tolerances_must_be_positive(self, argv):
        # no step meets a tolerance <= 0: the run would end as a blow-up at r = 0
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [
        ["trees", "--d-max", "17", "--enumerate"],
        ["trees", "--codes", "17"],
    ])
    def test_census_past_the_cap_fails_before_enumerating(self, argv, monkeypatch):
        from eternal_kit import portraits
        calls = []
        real = portraits.enumerate_codes
        monkeypatch.setattr(portraits, "enumerate_codes",
                            lambda d: calls.append(d) or real(d))
        rc, out, err = run_cli(argv)
        assert rc == 1
        assert out == ""
        assert err == "domain error: enumeration beyond d = 16 is unreasonably large\n"
        assert all(d > portraits.ENUMERATE_MAX_D for d in calls)

    @pytest.mark.parametrize("argv", [
        ["evolve", "--modes", "0"],
        ["boundary", "--modes", "0"],
        ["evolve", "--modes", "-5"],
        ["spectrum", "--count", "-2"],
        ["spectrum", "--count", "0"],
        ["waves", "--points=-1"],
        ["boundary", "--points", "0"],
    ])
    def test_sizes_must_be_positive(self, argv):
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [
        ["evolve", "--mono", "1", "--modes", "1"],
        ["boundary", "--modes", "1"],
    ])
    def test_one_mode_is_a_domain_error(self, argv):
        rc, out, err = run_cli(argv)
        assert rc == 1
        assert out == ""
        assert err == "domain error: need N >= 2 modes, got N = 1\n"

    def test_mono_needs_three_modes(self):
        rc, out, err = run_cli(["evolve", "--mono", "3", "--modes", "2", "--r-max", "0.01"])
        assert rc == 1
        assert out == ""
        assert err.startswith("domain error: ") and "N >= 3" in err

    def test_negative_samples_per_unit_is_domain_error(self):
        rc, out, err = run_cli(["ode", "--samples-per-unit=-1"])
        assert rc == 1
        assert out == ""
        assert err.startswith("domain error: ") and "samples per unit" in err

    @pytest.mark.parametrize("argv", [
        ["branch", "--n", "1", "--h", "0.1", "--tail-tol", "0"],
        ["branch", "--n", "1", "--h", "0.1", "--tail-tol=-1"],
        ["spectrum", "--n", "1", "--h", "0.1", "--tail-tol", "0"],
        ["spectrum", "--n", "1", "--h", "0.1", "--tail-tol=-1e-13"],
    ])
    def test_tail_tolerance_must_be_positive(self, argv):
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0


def _non_positive(text):
    """True when text is a number <= 0."""
    try:
        return float(text) <= 0.0
    except ValueError:
        return False


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


#: every float option must refuse these
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _float(lo, hi):
    # one draw in eight is non-finite, so that most argv holding a value
    # another rule refuses test that rule alone
    return st.integers(0, 7).flatmap(lambda i: _NON_FINITE if i == 7 else st.floats(lo, hi))


def _floats(lo, hi):
    return _float(lo, hi).map(repr)


def _pair(re_part, im_part):
    return st.builds(lambda a, b: f"{a!r},{b!r}", re_part, im_part)


#: roots on a half-integer grid, so distinct roots stay far enough apart for
#: a portrait to trace quickly
_ROOT = _pair(st.integers(-6, 6).map(lambda k: k / 2), st.integers(-6, 6).map(lambda k: k / 2))

#: a value for every option of every subcommand that takes one, bounded so
#: that each run stays small; a new option without an entry fails the draw
OPTION_VALUES = {
    "n": _ints(-1, 4),
    "h": _floats(-0.3, 0.3),
    "h_max": _floats(-0.3, 0.3),
    "points": _ints(-2, 4),
    "tail_tol": _floats(-1e-3, 1e-3),
    "lam": _floats(-3.0, 3.0),
    "count": _ints(-3, 12),
    "n_max": _ints(-1, 5),
    "constant": _floats(-3.0, 3.0),
    "imag": _floats(-3.0, 3.0),
    "profile": _pair(st.integers(-1, 3), _float(-0.2, 0.2)),
    "mono": st.builds(complex, _float(-3, 3), _float(-3, 3)).map(str),
    "modes": _ints(-2, 16),
    "theta": _floats(-2.0, 2.0),
    "r_max": _floats(-0.05, 0.05),
    "norm_threshold": _floats(-1.0, 1e4),
    "err_target": _floats(-1e-3, 1e-3),
    "s_min": _floats(-0.2, 0.2),
    "s_max": _floats(-0.2, 0.2),
    "r_cap": _floats(-0.05, 0.05),
    "cyclotomic": _ints(-1, 6),
    "roots": st.lists(_ROOT, min_size=1, max_size=3).map(";".join),
    "w0": _pair(_float(-3, 3), _float(-3, 3)),
    "t_end": _floats(-2.0, 2.0),
    "samples_per_unit": _ints(-2, 8),
    "seed": _ints(0, 5),
    "d_min": _ints(-1, 12),
    "d_max": _ints(-1, 12),
    "codes": _ints(-1, 12),
    "c_min": _floats(-5.0, 5.0),
    "c_max": _floats(-5.0, 5.0),
    "resonant": _ints(-2, 6),
    "xi_max": _floats(-5.0, 5.0),
}

#: size options whose defaults start long runs: always passed, with a value
#: from OPTION_VALUES
ALWAYS_PASSED = {"modes", "points", "r_max", "r_cap", "t_end", "samples_per_unit"}

#: --help prints and exits; --out writes files; --fig2 and --fig3 print fixed
#: tables that ignore every other option (TestFigureData runs them)
NOT_DRAWN = {"help", "out", "fig2", "fig3"}

#: malformed values; without digits, so none parses as a large size
_JUNK = st.text(".,;-+ejx", max_size=6)


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _option_value(action):
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    return OPTION_VALUES[action.dest]


@st.composite
def cli_argv(draw):
    name, sub = draw(st.sampled_from(sorted(_subcommands().items())))
    # half the argv may hold junk values; the other half is well formed but
    # for the non-finite floats, so that each of those must be refused alone
    junk = draw(st.booleans())
    argv = [name]
    for action in sub._actions:
        if not action.option_strings or action.dest in NOT_DRAWN:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            if draw(st.booleans()):
                argv.append(flag)
        elif action.dest in ALWAYS_PASSED or draw(st.booleans()):
            value = _option_value(action)
            value = draw(st.one_of(value, _JUNK) if junk else value)
            argv.append(f"{flag}={value}")
    return argv


class TestExitCodeProperty:
    @pytest.mark.filterwarnings("ignore:root .* linearly degenerate")
    @settings(max_examples=150, deadline=timedelta(seconds=10), derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=cli_argv())
    def test_drawn_argv_exits_with_a_documented_code(self, argv):
        rc, _, err = run_cli(argv)
        assert rc in (0, 1, 2, 64), (argv, rc)
        assert "Traceback" not in err
        values = [a.split("=", 1)[1] for a in argv if "=" in a]
        if any("nan" in v or "inf" in v for v in values):
            assert rc == 64, (argv, rc)
        tolerances = [a.split("=", 1)[1] for a in argv
                      if a.startswith(("--err-target=", "--norm-threshold=", "--tail-tol="))]
        if any(_non_positive(v) for v in tolerances):
            assert rc == 64, (argv, rc)


class TestTailTolerance:
    def test_tail_tol_loosens_branch_tail(self):
        from eternal_kit import elliptic
        lam_ref = elliptic.branch_point(1, 0.45, tail_tol=1e-16).lam

        rc, out, _ = run_cli(["branch", "--n", "1", "--h", "0.45", "--tail-tol", "1e-3"])
        assert rc == 0
        lam_loose = float(parse_csv(out)[1][0]["lambda"])
        rc, out, _ = run_cli(["branch", "--n", "1", "--h", "0.45"])
        lam_default = float(parse_csv(out)[1][0]["lambda"])

        assert abs(lam_loose - lam_ref) / lam_ref > 1e-10
        assert abs(lam_default - lam_ref) / lam_ref < 1e-12


class TestDocumentedBehavior:
    def test_trees_single_degree(self):
        rc, out, _ = run_cli(["trees", "--d-min", "16", "--d-max", "16"])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["d", "count"]
        assert rows == [{"d": "16", "count": "323396"}]

    def test_resonance_reports_one_past_the_asserted_range(self):
        rc, out, _ = run_cli(["resonance", "--n-max", "3"])
        assert rc == 0
        _, rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["1", "2", "3", "4"]
        assert all(r["verdict"] == "NO_IDENTICAL_RESONANCE" for r in rows)
        # the largest d with 2 (d - 1)^2 < n^2
        assert [r["fast_d_max"] for r in rows] == ["1", "2", "3", "3"]


class TestFigureData:
    def test_fig1_branch_sweep(self):
        rc, out, _ = run_cli(["branch", "--fig1", "--points", "5"])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["n", "h", "theta", "lambda", "w_at_0", "morse_index"]
        assert len(rows) == 15
        assert sorted({r["n"] for r in rows}) == ["1", "2", "3"]
        mid = [r for r in rows if float(r["h"]) == 0.0]
        assert all(r["theta"] == "inf" for r in mid)

    def test_fig2_orbit_families(self):
        rc, out, _ = run_cli(["ode", "--fig2"])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["family", "member", "t", "re_w", "im_w"]
        families = {r["family"] for r in rows}
        assert families == {"blue", "orange"}
        # The imaginary-time family is pi periodic: the u = -2 orbit
        # returns to its start.
        orange = [r for r in rows
                  if r["family"] == "orange" and float(r["member"]) == -2.0]
        last = orange[-1]
        assert float(last["t"]) == pytest.approx(math.pi, abs=1e-9)
        assert float(last["re_w"]) == pytest.approx(-2.0, abs=1e-6)
        assert float(last["im_w"]) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.filterwarnings("ignore:root .* linearly degenerate")
    def test_fig3_separatrix_traces(self):
        rc, out, _ = run_cli(["portrait", "--fig3"])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["d", "saddle", "chart", "t", "re", "im", "kind"]
        assert len(rows) > 1000
        assert {r["d"] for r in rows} == {"3", "4"}
        assert {r["chart"] for r in rows} == {"p", "w"}
        assert {r["kind"] for r in rows} == {"separatrix", "orbit"}
        # Disk-chart points stay inside the closed unit disk.
        for r in rows[:200]:
            if r["chart"] == "p":
                assert math.hypot(float(r["re"]), float(r["im"])) <= 1.0 + 1e-9


class TestSubcommandSmoke:
    @pytest.mark.parametrize("equilibrium,morse", [("upper", "2"), ("lower", "")])
    def test_spectrum_at_a_homogeneous_state(self, equilibrium, morse):
        from eternal_kit import spectrum
        rc, out, err = run_cli(["spectrum", "--lambda", "100", "--count", "4",
                                "--equilibrium", equilibrium])
        assert rc == 0
        assert "lambda=100.0" in err
        header, rows = parse_csv(out)
        assert header == ["k", "mu", "morse_index"]
        want = spectrum.homogeneous_spectrum(100.0, count=4, equilibrium=equilibrium)
        assert [float(r["mu"]) for r in rows] == [float(mu) for mu in want]
        assert [r["k"] for r in rows] == ["0", "1", "2", "3"]
        assert all(r["morse_index"] == morse for r in rows)

    def test_branch_sweep_without_h(self):
        rc, out, _ = run_cli(["branch", "--n", "1", "--points", "3"])
        assert rc == 0
        _, rows = parse_csv(out)
        assert [float(r["h"]) for r in rows] == [-0.12, 0.0, 0.12]
        assert all(r["n"] == "1" and r["morse_index"] == "1" for r in rows)

    def test_evolve_profile_start(self):
        rc, out, err = run_cli(["evolve", "--profile", "1,0.05",
                                "--r-max", "0.05", "--modes", "64"])
        assert rc == 0
        assert "diverged=False" in err
        header, rows = parse_csv(out)
        assert header == ["r", "h1", "sup", "re_w0", "im_w0"]
        assert len(rows) > 2

    def test_evolve_meta_counts_steps(self):
        argv = ["evolve", "--constant", "1.5", "--lambda", "6", "--modes", "16"]
        rc, out, err = run_cli(argv)
        assert rc == 0
        _, rows = parse_csv(out)
        assert f"steps_accepted={len(rows) - 1}" in err
        rc, text, _ = run_cli(argv + ["--format", "json"])
        meta = json.loads(text)["meta"]
        assert meta["steps_accepted"] == len(rows) - 1
        # a run that ends by STEP_COLLAPSE was refused its last steps
        assert meta["reason"] == "STEP_COLLAPSE" and meta["steps_rejected"] > 0
        assert f"steps_rejected={meta['steps_rejected']}" in err

    def test_evolve_monochromatic_vertical(self):
        rc, _, err = run_cli(["evolve", "--mono", "0.5", "--modes", "32",
                              "--theta", str(-math.pi / 2),
                              "--r-max", "0.02"])
        assert rc == 0
        assert "sectorial=False" in err

    def test_ode_imaginary_time_swaps_charts(self):
        rc, _, err = run_cli(["ode", "--w0", "0,0", "--imag-time", "--t-end", "3"])
        assert rc == 0
        assert "chart_swaps=2" in err
        assert "diverged=False" in err

    def test_portrait_seeded_quartic_chord_code(self):
        rc, out, _ = run_cli(["portrait", "--random-quartic", "--seed", "3"])
        assert rc == 0
        _, rows = parse_csv(out)
        chord = [r for r in rows if r["row"] == "chord"]
        assert len(chord) == 1 and chord[0]["a"] == "101100"

    def test_trees_enumerate_and_codes(self):
        rc, out, _ = run_cli(["trees", "--d-min", "2", "--d-max", "6",
                              "--enumerate"])
        assert rc == 0
        _, rows = parse_csv(out)
        assert all(r["match"] == "true" for r in rows)
        rc, out, _ = run_cli(["trees", "--codes", "5"])
        assert rc == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert len({r["code"] for r in rows}) == 3

    @pytest.mark.parametrize("argv", [
        ["trees", "--d-max", "12", "--enumerate"],
        ["trees", "--codes", "10"],
    ])
    def test_census_builds_no_diagram(self, argv, monkeypatch):
        from eternal_kit import portraits
        built = []
        real = portraits.ChordDiagram.__post_init__
        monkeypatch.setattr(portraits.ChordDiagram, "__post_init__",
                            lambda self: built.append(1) or real(self))
        assert run_cli(argv)[0] == 0
        assert built == []

    def test_spectrum_builds_eigenvectors_only_when_read(self, monkeypatch):
        from eternal_kit import elliptic, spectrum
        calls = []
        real = spectrum._to_cosine
        monkeypatch.setattr(spectrum, "_to_cosine", lambda col: calls.append(1) or real(col))
        assert run_cli(["spectrum", "--n", "1", "--h", "0.05"])[0] == 0
        assert calls == []
        rep = spectrum.eigen(elliptic.branch_point(1, 0.05).profile)
        assert calls == []
        rep.eigenvectors[0]
        assert calls == [1]

    def test_waves_soliton_profile(self):
        rc, out, _ = run_cli(["waves", "--soliton", "--points", "5",
                              "--xi-max", "2"])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["xi", "W"]
        mid = rows[2]
        assert float(mid["xi"]) == 0.0
        assert float(mid["W"]) == pytest.approx(2.0, rel=1e-12)
