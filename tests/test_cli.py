"""End-to-end tests of the eternal-kit command line interface."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import time
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


def test_evolve_mono_golden_run_matches_the_exact_mode_system():
    # products of e^(2 pi i k x) with k >= 0 only feed higher k, so the 16-mode
    # circle carries wavenumbers 0..7 of this run with no truncation: the same
    # run is a small ODE for those 8 modes, solved here far past err_target
    from scipy.integrate import solve_ivp
    rc, out, _ = run_cli(GOLDEN_CASES["evolve_mono.csv"])
    assert rc == 0
    _, rows = parse_csv(out)
    r, h1, sup = (np.array([float(row[col]) for row in rows]) for col in ("r", "h1", "sup"))
    w0 = np.array([complex(float(row["re_w0"]), float(row["im_w0"])) for row in rows])
    om2 = (2.0 * math.pi * np.arange(8)) ** 2

    def rhs(_r, y):
        c = y[:8] + 1j * y[8:]
        dc = -om2 * c + 6.0 * np.convolve(c, c)[:8]
        return np.concatenate((dc.real, dc.imag))

    y0 = np.zeros(16)
    y0[1] = 3.0
    sol = solve_ivp(rhs, (0.0, 0.1), y0, method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
    y = sol.sol(r)
    c = y[:8] + 1j * y[8:]
    assert len(rows) == 534 and r[-1] == 0.1
    assert np.max(np.abs(w0 - c.sum(0)) / np.abs(c.sum(0))) < 1e-10
    assert np.max(np.abs(h1 - np.sqrt(np.sum((1.0 + om2[:, None]) * np.abs(c) ** 2, 0))) / h1) < 1e-11
    # every coefficient stays real and positive: w peaks at x = 0
    assert np.max(np.abs(w0.imag)) < 1e-15 * np.max(sup)
    assert np.max(np.abs(sup - np.abs(w0)) / sup) < 1e-14


def test_import_leaves_the_ode_solver_unloaded():
    # scipy.integrate costs most of the import time; only the ODE commands need it
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, eternal_kit.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_only_the_named_submodule():
    # the package re-exports nothing: each submodule loads what it needs, and the
    # transforms load pocketfft's extension alone, without the scipy.fft package
    # (and the scipy.special it pulls in), which would double a cold start;
    # the eigensolves use numpy's eigh, since scipy.linalg alone costs more
    # than a whole set-up
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, {target}; print(sorted(m for m in sys.modules if m.startswith('eternal_kit.')"
            " or m in {refused!r}))")
    refused = ("scipy.fft", "scipy.special", "scipy.linalg")
    env = {**os.environ, "PYTHONPATH": str(src)}
    loaded = {}
    for target in ("eternal_kit", "eternal_kit.elliptic", "eternal_kit.evolve", "eternal_kit.cli"):
        proc = subprocess.run([sys.executable, "-c", code.format(target=target, refused=refused)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded[target] = proc.stdout.strip()
    assert loaded["eternal_kit"] == "[]"
    assert "eternal_kit.elliptic" in loaded["eternal_kit.elliptic"]
    assert "eternal_kit.evolve" not in loaded["eternal_kit.elliptic"]
    assert "eternal_kit.evolve" in loaded["eternal_kit.evolve"]
    assert "eternal_kit.cli" in loaded["eternal_kit.cli"]
    for target, modules in loaded.items():
        assert not any(f"'{name}'" in modules for name in refused), (target, modules)


def test_transforms_do_not_depend_on_the_import_order():
    # with scipy.fft loaded first, evolve reuses its pocketfft extension; loaded
    # after evolve, scipy.fft still works; the product kernel's bytes are the same
    src = Path(cli.__file__).resolve().parents[1]
    code = """{imports}
import hashlib, sys
import numpy as np
x = np.random.default_rng(7).standard_normal((3, 96)).view(complex)
print(evolve._c2c is sys.modules["scipy.fft._pocketfft.pypocketfft"].c2c)
print(scipy.fft.fft(x).tobytes() == np.fft.fft(x).tobytes())
print(hashlib.sha256(b"".join(evolve._square(x, b, evolve._fold(b, 48, 1.0)).tobytes()
                              for b in (evolve.NEUMANN_HALF, evolve.PERIODIC_UNIT))).hexdigest())
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    runs = {}
    for imports in ("import scipy.fft; from eternal_kit import evolve",
                    "from eternal_kit import evolve; import scipy.fft"):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code.format(imports=imports)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs[imports.startswith("import scipy.fft")] = proc.stdout.split()
    fft_first, evolve_first = runs[True], runs[False]
    assert fft_first[:2] == ["True", "True"]
    assert evolve_first[1] == "True"
    assert fft_first[2] == evolve_first[2]


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

    def test_records_only_the_source_that_ran(self, tmp_path):
        from eternal_kit import elliptic
        target = str(tmp_path / "ray.csv")
        rc, _, _ = run_cli(["evolve", "--profile", "1,0.05", "--modes", "16", "--r-max", "0.001",
                            "--out", target])
        assert rc == 0
        desc = json.loads(Path(target + ".run.json").read_text())
        params = desc["params"]
        assert params["profile"] == [1, 0.05]
        assert params["constant"] is None and params["mono"] is None and params["lam"] is None
        assert desc["meta"]["lambda"] == elliptic.branch_point(1, 0.05).lam

    @pytest.mark.parametrize("argv,params", [
        (["evolve", "--constant", "0.5+0.25j", "--modes", "8", "--r-max", "0.001"],
         {"constant": [0.5, 0.25]}),
        (["evolve", "--mono", "1", "--modes", "8", "--r-max", "0.001"], {"mono": [1.0, 0.0]}),
        (["ode", "--roots", "1,0;-1,0", "--t-end", "0.1"],
         {"roots": [[1.0, 0.0], [-1.0, 0.0]], "w0": [0.0, 0.0]}),
    ])
    def test_complex_parameters_are_re_im_pairs(self, tmp_path, argv, params):
        target = str(tmp_path / "run.csv")
        argv = argv + ["--out", target]
        assert run_cli(argv)[0] == 0
        text = Path(target + ".run.json").read_text()
        desc = json.loads(text)
        assert {k: desc["params"][k] for k in params} == params
        assert run_cli(argv)[0] == 0
        assert Path(target + ".run.json").read_text() == text


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
        ["evolve", "--profile", "1,0.05", "--constant", "1", "--modes", "64", "--r-max", "0.01"],
        ["evolve", "--profile", "1,0.05", "--lambda", "3", "--modes", "64", "--r-max", "0.01"],
        ["boundary", "--constant", "0.5", "--mono", "1", "--modes", "16", "--points", "1",
         "--s-max", "0", "--r-cap", "0.01"],
        ["boundary", "--profile", "1,0.05", "--mono", "1", "--modes", "16", "--points", "1"],
        ["spectrum", "--lambda", "5", "--n", "3"],
        ["spectrum", "--lambda", "5", "--h", "0.05"],
        ["ode", "--cyclotomic", "3", "--roots", "1,0;-1,0", "--lattice"],
        ["portrait", "--cyclotomic", "3", "--roots", "1,0;-1,0"],
        ["portrait", "--random-quartic", "--roots", "1,0;-1,0"],
        ["portrait", "--random-quartic", "2", "--cyclotomic", "4"],
        ["portrait", "--random-quartic", "-1"],
        ["resonance", "--n", "2", "--n-max", "4"],
        ["resonance", "--n-max", "0"],
        ["resonance", "--n", "0"],
    ])
    def test_one_source_per_run(self, argv):
        # each run starts from the one state its options name: a second source,
        # or a lambda beside a branch profile that fixes its own, is refused
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

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
        ["resonance", "--n=--"],
        ["branch", "--n=--"],
        ["trees", "--d-max=--"],
        ["ode", "--w0=--"],
        ["evolve", "--modes=--", "--r-max", "0.001"],
    ])
    def test_double_dash_as_a_value_is_a_usage_error(self, argv):
        # argparse strips "--" from --opt=-- and would store [] unconverted
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_out_must_name_a_file_in_an_existing_directory(self, tmp_path, monkeypatch, where):
        # refused while parsing: the table is never computed, and nothing is written
        from eternal_kit import portraits
        monkeypatch.setattr(portraits, "count_portraits", lambda d: pytest.fail("subcommand ran"))
        rc, out, err = run_cli(["trees", "--d-max", "3", "--out", str(tmp_path / where)])
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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
        ["evolve", "--r-max", "-1", "--constant", "0.5", "--modes", "8"],
        ["evolve", "--r-max", "0", "--constant", "0.5", "--modes", "8"],
        ["boundary", "--r-cap", "-1", "--constant", "0.5", "--modes", "8", "--points", "1"],
        ["boundary", "--r-cap", "0", "--constant", "0.5", "--modes", "8", "--points", "1"],
    ])
    def test_horizons_must_be_positive(self, argv):
        # a horizon at or behind the start runs no step: a negative one used to
        # exit 1 as a domain error, and 0 printed a run of zero length
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err.startswith("usage error: ") and argv[1] in err

    def test_threshold_above_the_default_is_domain_error(self):
        # past 1e8 the endgame's self-scaled step budget can step over the pole
        rc, out, err = run_cli(["evolve", "--norm-threshold", "1e9", "--constant", "1.5",
                                "--lambda", "6", "--modes", "16"])
        assert rc == 1
        assert out == ""
        assert err.startswith("domain error: ") and "norm_threshold" in err

    @pytest.mark.parametrize("argv", [
        ["trees", "--d-min", "5", "--d-max", "3"],
        ["trees", "--d-min", "5", "--d-max", "3", "--enumerate"],
    ])
    def test_empty_degree_range_is_a_usage_error(self, argv):
        rc, out, err = run_cli(argv)
        assert rc == 64
        assert out == ""
        assert err == "usage error: argument --d-min: 5 is past --d-max 3\n"

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
    "constant": st.builds(complex, _float(-3, 3), _float(-3, 3)).map(str),
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
    "random_quartic": _ints(-1, 5),
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


def _source_cases():
    """(subcommand, sources) for every subcommand and every choice of its
    exclusive groups: one candidate each, or none where the group is optional."""
    for name, sub in sorted(_subcommands().items()):
        choices = [([] if group.required else [None]) + [a.dest for a in group._group_actions]
                   for group in sub._mutually_exclusive_groups]
        for kept in itertools.product(*choices):
            yield name, frozenset(kept) - {None}


#: every example draws one argv per case, so that each subcommand and each of
#: its sources is drawn as often as the others
SOURCE_CASES = list(_source_cases())


@st.composite
def cli_argv(draw, name, sources):
    sub = _subcommands()[name]
    # the other members of each exclusive group are left out, so that most argv
    # test a rule other than exclusion (TestExitCodes checks that one)
    dropped = {a.dest for group in sub._mutually_exclusive_groups
               for a in group._group_actions} - sources
    # half the argv may hold junk values; the other half is well formed but
    # for the non-finite floats, so that each of those must be refused alone
    junk = draw(st.booleans())
    argv = [name]
    for action in sub._actions:
        if not action.option_strings or action.dest in NOT_DRAWN | dropped:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            if draw(st.booleans()):
                argv.append(flag)
        elif action.dest in ALWAYS_PASSED | sources or draw(st.booleans()):
            if action.nargs == "?" and draw(st.booleans()):
                argv.append(flag)  # the value is optional: its const
                continue
            value = _option_value(action)
            value = draw(st.one_of(value, _JUNK) if junk else value)
            argv.append(f"{flag}={value}")
    return argv


class TestParserReuse:
    """main parses with one parser per process; no parse may leak into the next."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_appended_values_start_empty_each_call(self):
        assert run_cli(["branch", "--n", "1", "--n", "2", "--h", "0.05"])[0] == 0
        rc, out, _ = run_cli(["branch", "--n", "3", "--h", "0.05"])
        assert rc == 0
        _, rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["3"]

    def test_a_usage_error_leaves_no_trace(self):
        valid = ["evolve", "--modes", "8", "--r-max", "0.01"]
        cli.build_parser.cache_clear()
        alone = run_cli(valid)
        assert alone[0] == 0
        cli.build_parser.cache_clear()
        assert run_cli(["evolve", "--constant", "0.5", "--lambda", "2", "--modes", "nan"])[0] == 64
        assert run_cli(valid) == alone

    def test_a_subcommand_default_stays_with_its_subcommand(self):
        assert run_cli(["portrait", "--random-quartic", "3"])[0] == 0
        assert cli.build_parser().parse_args(["ode"]).random_quartic is None


class TestExitCodeProperty:
    def test_every_source_has_its_own_case(self):
        assert [sorted(sources) for name, sources in SOURCE_CASES if name == "portrait"] == [
            [], ["cyclotomic"], ["roots"], ["random_quartic"]]
        assert {name for name, _ in SOURCE_CASES} == set(_subcommands())

    @pytest.mark.filterwarnings("ignore:root .* linearly degenerate")
    @settings(max_examples=20, deadline=timedelta(seconds=30), derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argvs=st.tuples(*(cli_argv(name, sources) for name, sources in SOURCE_CASES)))
    def test_drawn_argv_exits_with_a_documented_code(self, argvs):
        for argv in argvs:
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
        rc, out, _ = run_cli(["branch", "--n", "1", "--n", "2", "--n", "3", "--points", "5"])
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

    @pytest.mark.parametrize("lam", ["1e40", "1e308"])
    def test_spectrum_at_a_huge_lambda_ends_at_once(self, lam):
        t0 = time.perf_counter()
        rc, out, _ = run_cli(["spectrum", "--lambda", lam, "--count", "2"])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 0
        _, rows = parse_csv(out)
        assert all(math.isfinite(float(r["mu"])) and int(r["morse_index"]) > 0 for r in rows)

    def test_spectrum_on_a_high_index_branch(self):
        # W_25(0.5): its top 13 eigenvalues agree to 1e-9, across the eleventh
        rc, out, err = run_cli(["spectrum", "--n", "25", "--h", "0.5", "--count", "26"])
        assert rc == 0, err
        _, rows = parse_csv(out)
        assert [float(r["mu"]) > 0.0 for r in rows] == [True] * 25 + [False]
        assert all(r["morse_index"] == "25" for r in rows)

    def test_spectrum_at_lambda_zero(self):
        rc, out, _ = run_cli(["spectrum", "--lambda", "0", "--count", "3"])
        assert rc == 0
        _, rows = parse_csv(out)
        assert [r["morse_index"] for r in rows] == ["0", "0", "0"]

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
        # the run ends by NORM_THRESHOLD within 1e-8 below the pole at ln 5 / 12,
        # and counts the steps it was refused on the way
        assert meta["reason"] == "NORM_THRESHOLD"
        assert 0.0 <= math.log(5.0) / 12.0 - meta["r_star_lower"] < 1e-8
        assert meta["steps_rejected"] > 0
        assert f"steps_rejected={meta['steps_rejected']}" in err

    def test_evolve_start_near_its_pole_stops_short_of_it(self):
        # w' = 6 w^2 from 50 poles at 1/300, closer than the first step
        rc, text, _ = run_cli(["evolve", "--constant", "50", "--modes", "16", "--format", "json"])
        assert rc == 0
        meta = json.loads(text)["meta"]
        assert meta["reason"] == "NORM_THRESHOLD"
        assert meta["r_star_lower"] < 1.0 / 300.0

    @pytest.mark.parametrize("lam, near", [((8.0 / 3.0) * math.pi ** 4, True), (6.0, False)],
                             ids=["resonant", "lambda6"])
    def test_evolve_meta_flags_a_near_resonant_lambda(self, lam, near):
        # (8/3) pi^4 is a homogeneous resonance with n <= 3; 6 is none
        rc, text, _ = run_cli(["evolve", "--constant", "0", "--lambda", repr(lam), "--modes", "16",
                               "--r-max", "1e-3", "--format", "json"])
        assert rc == 0
        assert json.loads(text)["meta"]["near_resonant_lambda"] is near

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

    def test_ode_start_beyond_the_far_field_diverges_with_samples(self):
        rc, _, err = run_cli(["ode", "--cyclotomic", "3", "--w0", "100,0", "--t-end", "1",
                              "--samples-per-unit", "10"])
        assert rc == 0
        assert "diverged=True" in err

    @pytest.mark.parametrize("argv,digest", [
        (["evolve", "--constant", "0.5+0.25j", "--modes", "16", "--r-max", "0.05"],
         "bd5da01fe6afcb81420a4d445ee53202de59071abd027496c43252e296e5daaa"),
        (["portrait", "--random-quartic", "3"],
         "4a4117276b2f5a4998ddd25f7ccb86a6211b91044caef4f696c42da39ff122b1"),
    ])
    def test_one_option_sources_print_the_pinned_bytes(self, argv, digest):
        # the tables the two-option spellings --constant 0.5 --imag 0.25 and
        # --random-quartic --seed 3 printed, before each became one option
        rc, out, _ = run_cli(argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_portrait_seeded_quartic_chord_code(self):
        rc, out, _ = run_cli(["portrait", "--random-quartic", "3"])
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
