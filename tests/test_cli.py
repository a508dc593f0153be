"""End-to-end tests of the eternal-kit command line interface."""

import contextlib
import io
import json
import math
import os
from pathlib import Path

import pytest

from eternal_kit import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "branch.csv": ["branch", "--n", "1", "--h", "0.1"],
    "spectrum.csv": ["spectrum", "--n", "1", "--h", "0.05", "--count", "6"],
    "resonance.csv": ["resonance", "--n-max", "5"],
    "evolve.csv": ["evolve", "--constant", "0", "--lambda", "6",
                   "--r-max", "0.5", "--modes", "32"],
    "boundary.csv": ["boundary", "--constant", "0.5", "--lambda", "0",
                     "--s-min", "-0.1", "--s-max", "0.1", "--points", "3",
                     "--modes", "32"],
    "ode.csv": ["ode", "--quadratic", "--t-end", "3", "--samples-per-unit", "4"],
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
        # A rerun reproduces both files byte for byte.
        desc1 = Path(target + ".run.json").read_text()
        rc, _, _ = run_cli(argv)
        assert rc == 0
        assert Path(target).read_text() == table1
        assert Path(target + ".run.json").read_text() == desc1


class TestExitCodes:
    def test_success(self):
        assert run_cli(["trees", "--d", "4"])[0] == 0

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
        ["trees", "--d-max", "15", "--enumerate"],
        ["trees", "--codes", "15"],
    ])
    def test_census_past_the_cap_fails_before_enumerating(self, argv, monkeypatch):
        from eternal_kit import portraits
        calls = []
        real = portraits.enumerate_diagrams
        monkeypatch.setattr(portraits, "enumerate_diagrams",
                            lambda d: calls.append(d) or real(d))
        rc, out, err = run_cli(argv)
        assert rc == 1
        assert out == ""
        assert err == "domain error: enumeration beyond d = 14 is unreasonably large\n"
        assert all(d > portraits.ENUMERATE_MAX_D for d in calls)

    def test_bad_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("ETERNAL_KIT_TOL", "not-a-number")
        assert run_cli(["waves", "--resonant", "2"])[0] == 64

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0


class TestEnvTolerance:
    def test_env_loosens_branch_tail(self, monkeypatch):
        from eternal_kit import elliptic
        lam_ref = elliptic.branch_point(1, 0.45, tail_tol=1e-16).lam

        monkeypatch.setenv("ETERNAL_KIT_TOL", "1e-3")
        rc, out, _ = run_cli(["branch", "--n", "1", "--h", "0.45"])
        assert rc == 0
        lam_loose = float(parse_csv(out)[1][0]["lambda"])
        monkeypatch.delenv("ETERNAL_KIT_TOL")
        rc, out, _ = run_cli(["branch", "--n", "1", "--h", "0.45"])
        lam_default = float(parse_csv(out)[1][0]["lambda"])

        assert abs(lam_loose - lam_ref) / lam_ref > 1e-10
        assert abs(lam_default - lam_ref) / lam_ref < 1e-12


class TestDocumentedBehavior:
    def test_trees_single_degree(self):
        rc, out, _ = run_cli(["trees", "--d", "16"])
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
    def test_evolve_profile_start(self):
        rc, out, err = run_cli(["evolve", "--profile", "1,0.05",
                                "--r-max", "0.05", "--modes", "64"])
        assert rc == 0
        assert "diverged=False" in err
        header, rows = parse_csv(out)
        assert header == ["r", "h1", "sup", "re_w0", "im_w0"]
        assert len(rows) > 2

    def test_evolve_monochromatic_vertical(self):
        rc, _, err = run_cli(["evolve", "--mono", "0.5", "--modes", "32",
                              "--theta", str(-math.pi / 2),
                              "--r-max", "0.02"])
        assert rc == 0
        assert "sectorial=False" in err

    def test_ode_imaginary_time_swaps_charts(self):
        rc, _, err = run_cli(["ode", "--quadratic", "--w0", "0,0",
                              "--imag-time", "--t-end", "3"])
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

    def test_waves_soliton_profile(self):
        rc, out, _ = run_cli(["waves", "--soliton", "--points", "5",
                              "--xi-max", "2"])
        assert rc == 0
        header, rows = parse_csv(out)
        assert header == ["xi", "W"]
        mid = rows[2]
        assert float(mid["xi"]) == 0.0
        assert float(mid["W"]) == pytest.approx(2.0, rel=1e-12)
