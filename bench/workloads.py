"""The benchmark's three workloads: inputs from a seed, one pass of calls, checks.

Each workload is a pair of functions.  `inputs(seed)` draws everything the
seed decides; `run_pass(inp, ledger)` makes the workload's program calls one
after another through `ledger.call`, checks every output against
`oracles`, and returns the pass's accuracy figures.  `oracle_err` is the
figure the end-to-end metric of the same name reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import time

import oracles

# run.py (or the tests) put src/ on the path before importing this module.
from eternal_kit import cli, elliptic, evolve, resonance, spectrum
from eternal_kit.elliptic import CosineSeries

#: tolerances stated for the checks
RSTAR_GAP_TOL = 1e-4          # closed-form r* minus reported r*
REVERSIBILITY_TOL = 1e-7      # H^1 distance of psi(-s) from conj psi(s)
SSTAR_SYMMETRY_TOL = 1e-3     # relative gap between |s*(+)| and |s*(-)|
PERIOD_RETURN_TOL = 1e-6      # H^1 distance after one period 1/(2 pi)
SPECTRUM_TOL = 1e-10          # Galerkin eigenvalues at constant W, relative to max(1, |mu|)
MU2_TOL = 1e-5                # extrapolated mu2 against the exact Fraction, relative

CONSTANT_N = 16               # constant data stays in mode 0, so N does not matter
SHOT_N = 128
DIVERGED = (evolve.REASON_NORM, evolve.REASON_STEP)


class Ledger:
    """Counts operations and failed checks; times the program calls of a pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_failures: list[str] = []
        self.checks = 0
        self.call_s = 0.0
        self.latencies: dict[str, list[float]] = {}

    def call(self, label, fn, *args, **kwargs):
        """One operation: a program call.  Returns None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = time.perf_counter() - t0
            self.call_s += dt
            self.latencies.setdefault(label, []).append(dt)

    def check(self, label, ok, detail=""):
        self.checks += 1
        if not ok:
            self.check_failures.append(f"{label}: {detail}" if detail else label)
        return ok


def _cli(ledger, label, argv):
    """Run cli.main on argv with JSON output and return the parsed table."""
    out, err = io.StringIO(), io.StringIO()

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv) + ["--format", "json"])
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue())

    return ledger.call(label, run)


def _h1_gap(a, b):
    return evolve.ComplexField(a.coeffs - b.coeffs, a.basis).h1_norm()


# ---------------------------------------------------------------------------
# blowup: parabolic rays that end at a singularity


def _blowup_constant(rng):
    lam = rng.uniform(0.5, 6.0)
    return rng.uniform(0.5, 2.5) + math.sqrt(lam / 6.0), lam


def blowup_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    rays = [_blowup_constant(rng) for _ in range(2)]
    scan_w0 = rng.uniform(0.5, 3.0)
    pole_w0, pole_lam = _blowup_constant(rng)
    return {
        "rays": rays,
        "scan": {"w0": scan_w0, "lam": 0.0, "s": [-0.1, -0.05, 0.0, 0.05, 0.1], "r_cap": 2.0},
        "pole_row": {"w0": pole_w0, "lam": pole_lam, "s": [0.0, oracles.pole_row_spacing(pole_lam)],
                     "r_cap": 1.0},
    }


def _check_gap(ledger, label, exact, reported, gaps):
    gap = exact - reported
    ledger.check(f"{label} r* <= closed form", gap >= 0.0, f"gap {gap:.3e}")
    ledger.check(f"{label} gap < {RSTAR_GAP_TOL:g}", abs(gap) < RSTAR_GAP_TOL, f"gap {gap:.3e}")
    gaps.append(gap)


def blowup_pass(inp: dict, ledger: Ledger) -> dict:
    gaps: list[float] = []

    for w0, lam in inp["rays"]:
        label = f"constant w0={w0:.4f} lambda={lam:.4f}"
        rec = ledger.call(label, evolve.detect_blowup,
                          evolve.constant_field(w0, N=CONSTANT_N), lam, 1.0)
        if rec is not None:
            ledger.check(f"{label} diverged", rec.diverged, rec.reason)
            _check_gap(ledger, label, oracles.rstar_constant(w0, lam), rec.r_star_lower, gaps)

    up = ledger.call("W_1(0.1) + shot", evolve.heteroclinic_shoot, 1, 0.1, "+", N=SHOT_N, r_max=6.0)
    if up is not None:
        ledger.check("+ shot diverges inside r_max",
                     up.outcome == "blowup" and 0.0 < up.record.r_star_lower < 6.0,
                     f"{up.outcome} at {up.record and up.record.r_star_lower}")

    sc = inp["scan"]
    scan = ledger.call("boundary lambda=0", evolve.analyticity_boundary,
                       evolve.constant_field(sc["w0"], N=CONSTANT_N), sc["s"], sc["lam"],
                       r_cap=sc["r_cap"])
    if scan is not None:
        exact = oracles.rstar_constant(sc["w0"], 0.0)
        for b in scan.samples:
            if b.s != 0.0:
                # horizontal lines off the real axis miss the only pole
                ledger.check(f"boundary s={b.s:g} censored", b.defined and b.censored, b.reason)
            else:
                ledger.check("boundary s=0 diverges", b.defined and not b.censored, b.reason)
                _check_gap(ledger, "boundary corner", exact, b.r_star, gaps)
                ledger.check("boundary corner on the real axis",
                             scan.corner == (b.r_star, 0.0), str(scan.corner))

    pr = inp["pole_row"]
    row = ledger.call("boundary pole row", evolve.analyticity_boundary,
                      evolve.constant_field(pr["w0"], N=CONSTANT_N), pr["s"], pr["lam"],
                      r_cap=pr["r_cap"])
    if row is not None:
        exact = oracles.rstar_constant(pr["w0"], pr["lam"])
        for b in row.samples:
            # the pole lattice repeats r* at s = pi / (6 a)
            ledger.check(f"pole row s={b.s:.4f} diverges", b.defined and not b.censored, b.reason)
            if b.defined and not b.censored:
                _check_gap(ledger, f"pole row s={b.s:.4f}", exact, b.r_star, gaps)

    figures = {"rstar_gaps": gaps}
    if gaps:
        figures["rstar_gap"] = statistics.median(gaps)
        figures["oracle_err"] = figures["rstar_gap"]
    return figures


# ---------------------------------------------------------------------------
# schrodinger: vertical rays from real points of the heteroclinic


def schrodinger_inputs(seed: int) -> dict:
    # The paper's experiment has no free draw: W_1(0.1), the transit r0
    # where the rays blow up and one r0 on either side.
    del seed
    return {"n": 1, "h": 0.1, "r0": [0.115, 0.129, 0.14], "s": [0.02, 0.1],
            "mono_amp": math.pi ** 2, "mono_N": 64}


def _launch_minus(n, h):
    """W_n(h) - eps phi_0, the launch data of the minus shot."""
    bp = elliptic.branch_point(n, h)
    phi0 = spectrum.eigen(bp.profile).eigenvectors[0]
    w = evolve.cosine_field(bp.profile, N=SHOT_N)
    w.coeffs -= 1e-5 * bp.profile.l2_norm() * evolve.cosine_field(phi0, N=SHOT_N).coeffs
    return w, bp.lam


def schrodinger_pass(inp: dict, ledger: Ledger) -> dict:
    figures: dict = {}
    down = ledger.call("W_1(0.1) - shot", evolve.heteroclinic_shoot,
                       inp["n"], inp["h"], "-", N=SHOT_N)
    if down is not None:
        ledger.check("- shot captured at W_0", down.outcome == "converged"
                     and down.final_distance < 1e-6, f"{down.outcome} {down.final_distance:.3e}")
        ledger.check("- shot monotone", bool(down.monotone), f"max increase {down.max_increase}")

    launched = ledger.call("launch data", _launch_minus, inp["n"], inp["h"])
    if launched is None:
        return figures
    gamma, lam = launched
    s_pts = inp["s"]
    for r0 in inp["r0"]:
        rec = ledger.call(f"Gamma({r0})", evolve.detect_blowup, gamma, lam, r0 - gamma.r)
        if rec is None or rec.diverged:
            ledger.check(f"Gamma({r0}) reached", False, "heat ray did not reach r0")
            return figures
        gamma = rec.final_state
        psi0 = evolve.ComplexField(gamma.coeffs.real.copy(), gamma.basis)
        fwd = ledger.call(f"r0={r0} s>0", evolve.schrodinger_evolve, psi0, s_pts, lam)
        bwd = ledger.call(f"r0={r0} s<0", evolve.schrodinger_evolve, psi0, [-s for s in s_pts], lam)
        if fwd is None or bwd is None:
            continue
        # psi(-s) = conj psi(s) for real data, wherever both sides exist
        for i in range(min(len(fwd.fields), len(bwd.fields))):
            gap = _h1_gap(fwd.fields[i], bwd.fields[i].conjugate())
            ledger.check(f"r0={r0} reversible at s={s_pts[i]}", gap < REVERSIBILITY_TOL, f"{gap:.3e}")
        if fwd.status in DIVERGED or bwd.status in DIVERGED:
            sp, sm = abs(fwd.s_reached), abs(bwd.s_reached)
            ledger.check(f"r0={r0} blows up both ways",
                         fwd.status in DIVERGED and bwd.status in DIVERGED, f"{fwd.status}/{bwd.status}")
            ledger.check(f"r0={r0} |s*(+)| = |s*(-)|", abs(sp - sm) <= SSTAR_SYMMETRY_TOL * max(sp, sm),
                         f"{sp:.6g} vs {sm:.6g}")
            figures.setdefault("s_star", []).append((r0, sp, sm))

    mono = evolve.monochromatic_field(inp["mono_amp"], N=inp["mono_N"])
    period = 1.0 / (2.0 * math.pi)
    run = ledger.call("monochromatic period", evolve.schrodinger_evolve,
                      mono, [period], 0.0, err_target=1e-8)
    if run is not None:
        ok = run.status == evolve.REASON_HORIZON and len(run.fields) == 1
        ledger.check("monochromatic run reaches one period", ok, run.status)
        if ok:
            err = _h1_gap(run.fields[0], mono)
            ledger.check(f"period return < {PERIOD_RETURN_TOL:g}", err < PERIOD_RETURN_TOL, f"{err:.3e}")
            figures["period_return_err"] = err
            figures["oracle_err"] = err
    ledger.check("one r0 blows up", bool(figures.get("s_star")), "no r0 blew up below s_max")
    return figures


# ---------------------------------------------------------------------------
# exact: census, certificates and Galerkin spectra, no PDE integration


def exact_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "census_d_max": 12,
        "resonance_n_max": 22,
        "brute_force_n_max": 12,
        "constant_W": [rng.uniform(-2.0, 2.0) for _ in range(3)],
        # above h = 0.07 the W_6 eigensolve outgrows the census in memory and
        # peak_rss_mb would follow the draw
        "morse": [(n, rng.uniform(0.02, 0.06)) for n in range(1, 7)],
        "mu2_n_max": 23,
        "mu2_h": 3e-5,
    }


def exact_pass(inp: dict, ledger: Ledger) -> dict:
    figures: dict = {}

    census = _cli(ledger, "trees", ["trees", "--d-max", str(inp["census_d_max"]), "--enumerate"])
    if census is not None:
        got = {row[0]: (row[1], row[2]) for row in census["rows"]}
        ledger.check("census covers d = 2..12", sorted(got) == sorted(oracles.A002995), str(sorted(got)))
        for d, want in oracles.A002995.items():
            ledger.check(f"census d={d}", got.get(d) == (want, want), f"{got.get(d)} vs {want}")

    n_max = inp["resonance_n_max"]
    cert = _cli(ledger, "resonance", ["resonance", "--n-max", str(n_max)])
    if cert is not None:
        verdict = {row[0]: row[1] for row in cert["rows"]}
        for n in range(1, n_max + 1):
            ledger.check(f"resonance n={n}", verdict.get(n) == resonance.VERDICT_NO, str(verdict.get(n)))
    for n in range(1, inp["brute_force_n_max"] + 1):
        c = ledger.call(f"resonance check n={n}", resonance.identical_resonance_check, n)
        if c is not None:
            ledger.check(f"order-0 survivors n={n}", sorted(c.survivors[0]) == oracles.order0_resonances(n))

    for W in inp["constant_W"]:
        rep = ledger.call(f"eigen W={W:.4f}", spectrum.eigen, CosineSeries([W]))
        if rep is not None:
            want = oracles.constant_w_spectrum(W, len(rep.eigenvalues))
            err = max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(rep.eigenvalues, want))
            ledger.check(f"constant W={W:.4f} spectrum", err < SPECTRUM_TOL, f"{err:.3e}")

    for n, h in inp["morse"]:
        out = _cli(ledger, f"spectrum n={n}", ["spectrum", "--n", str(n), f"--h={h!r}", "--count", "1"])
        if out is not None:
            ledger.check(f"Morse index of W_{n}({h:.4f})", out["meta"]["morse_index"] == n,
                         str(out["meta"]["morse_index"]))

    figures["mu2_rel_err"] = _mu2_cross_check(inp, ledger)
    if figures["mu2_rel_err"] is not None:
        figures["oracle_err"] = figures["mu2_rel_err"]
    return figures


def _mu2_cross_check(inp, ledger):
    """Galerkin spectra of W_n(+-h), W_n(+-2h) against the exact mu2 Fractions.

    The h^2 coefficient of mu_{n,k}(h) / (4 pi^2) is extrapolated from the
    spectra and compared with the exact value the resonance certificate
    rests on.  Returns the median relative discrepancy over n, k.
    """
    h = inp["mu2_h"]
    rel = []
    for n in range(1, inp["mu2_n_max"] + 1):
        mus = {}
        for hh in (h, -h, 2 * h, -2 * h):
            out = _cli(ledger, f"spectrum n={n}", ["spectrum", "--n", str(n), f"--h={hh!r}",
                                                   "--count", str(n)])
            if out is None:
                return None
            mus[hh] = [row[1] / (4.0 * math.pi ** 2) for row in out["rows"]]
        for k in range(n):
            got = oracles.richardson_second_coefficient(
                n * n - k * k, mus[h][k], mus[-h][k], mus[2 * h][k], mus[-2 * h][k], h)
            exact = oracles.mu2_exact(n, k)
            ledger.check(f"mu2 n={n} k={k} exact Fraction",
                         spectrum.perturbation_mu_coefficients(n, k)[2] == exact)
            err = abs(got - float(exact)) / abs(float(exact))
            ledger.check(f"mu2 n={n} k={k}", err < MU2_TOL, f"{err:.3e}")
            rel.append(err)
    return statistics.median(rel)


WORKLOADS = {
    "blowup": (blowup_inputs, blowup_pass),
    "schrodinger": (schrodinger_inputs, schrodinger_pass),
    "exact": (exact_inputs, exact_pass),
}
