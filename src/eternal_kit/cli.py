"""Command line front end.

One executable, `eternal-kit`, with a subcommand per capability:

    branch      equilibrium branches (n, h) -> (lambda, profile data)
    spectrum    linearization eigenvalues and Morse index
    resonance   exact no-identical-resonance certificates
    evolve      complex-time rays, blow-up detection
    boundary    analyticity boundary scan r*(s)
    ode         scalar polynomial ODEs in complex time
    portrait    compactified phase portraits and tree extraction
    trees       planar tree census (counts, enumeration, codes)
    waves       traveling-wave parameters and resonant speeds

Every subcommand writes a flat table, CSV by default or JSON with
--format json; floats are printed with 17 significant digits so output
is byte-reproducible.  --out FILE, a file in an existing directory,
writes the table to FILE and a run descriptor (arguments, tolerances,
outputs, and the Python, numpy and scipy versions the bytes depend on; no
timestamp) to FILE.run.json, so a run can be re-executed and compared byte
for byte.
Exit codes: 0 success, 1 domain error, 2 convergence or truncation
failure, 64 usage error.  A malformed or non-finite number is a usage error,
and so is a second option naming a run's starting data.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__, elliptic, evolve, portraits, resonance, scalar_ode, spectrum, waves
from .errors import (
    ConvergenceError,
    DegenerateFieldError,
    DomainError,
    TruncationError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:  # --opt=--: argparse would store []
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return super()._get_values(action, arg_strings)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _descriptor_value(value):
    """A complex number as its [re, im] pair, anything else JSON lacks as its str."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return str(value)


def _emit(args, columns, rows, meta):
    if args.format == "json":
        payload = {"columns": list(columns), "rows": [list(r) for r in rows], "meta": meta}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        descriptor = {
            "tool": "eternal-kit",
            "version": __version__,
            "subcommand": args.subcommand,
            "argv": args._argv,
            "params": {
                k: v for k, v in sorted(vars(args).items())
                if not k.startswith("_") and k not in ("func", "out")
            },
            "outputs": [args.out],
            "meta": meta,
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__},
        }
        with open(args.out + ".run.json", "w") as fh:
            fh.write(json.dumps(descriptor, sort_keys=True, separators=(",", ":"),
                                default=_descriptor_value) + "\n")
    else:
        sys.stdout.write(text)
        if meta and args.format == "csv":
            for k in sorted(meta):
                print(f"{k}={meta[k]}", file=sys.stderr)


def _positive_int(text: str, low: int = 1) -> int:
    """A whole number >= low."""
    try:
        value = int(text)
        if value >= low:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")


def _finite(value):
    """value (a float or a complex) when it is finite, else ValueError."""
    if not cmath.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _finite_float(text: str) -> float:
    """A real number other than nan and +-inf."""
    try:
        return _finite(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _positive_float(text: str) -> float:
    """A finite real number > 0."""
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _out_path(text: str) -> str:
    """A file name in a directory that exists, so the table can be written after it is computed."""
    if os.path.isdir(text) or not os.path.isdir(os.path.dirname(os.path.abspath(text))):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: not a file in an existing directory")
    return text


def _complex_literal(text: str) -> complex:
    """A Python complex literal with finite parts."""
    try:
        return _finite(complex(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite complex number, got {text!r}") from None


def _profile_arg(text: str) -> tuple[int, float]:
    """'N,H' as a branch index and a finite modulus."""
    try:
        n, h = text.split(",")
        return int(n), _finite(float(h))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N,H with a finite H, got {text!r}") from None


def _complex_arg(text: str) -> complex:
    """'RE,IM' as a complex number with finite parts."""
    try:
        re_part, im_part = text.split(",")
        return _finite(complex(float(re_part), float(im_part)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected finite RE,IM, got {text!r}") from None


def _roots_arg(text: str) -> list[complex]:
    """'RE,IM;RE,IM;...' as a list of complex roots."""
    return [_complex_arg(part) for part in text.split(";")]


def _initial_field(args):
    """The one starting field the source group names, and its lambda: W_n(h) fixes its own."""
    if args.profile:
        if args.lam is not None:
            raise _UsageError("argument --lambda: not allowed with argument --profile")
        bp = elliptic.branch_point(*args.profile)
        return evolve.cosine_field(bp.profile, N=args.modes), bp.lam
    lam = 0.0 if args.lam is None else args.lam
    if args.mono is not None:
        return evolve.monochromatic_field(args.mono, N=args.modes), lam
    return evolve.constant_field(0j if args.constant is None else args.constant, N=args.modes), lam


def _poly_field(args, default):
    """The field the source group names (--roots, --cyclotomic or --random-quartic), else default()."""
    if args.roots:
        return scalar_ode.PolyField(args.roots)
    if args.cyclotomic is not None:
        return scalar_ode.PolyField.cyclotomic(args.cyclotomic)
    if args.random_quartic is not None:
        rng = np.random.default_rng(args.random_quartic)
        return scalar_ode.PolyField(rng.normal(size=4) + 1j * rng.normal(size=4))
    return default()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_branch(args):
    hs = [args.h] if args.h is not None else np.linspace(-args.h_max, args.h_max, args.points)
    rows = []
    for n in args.n or [1]:
        for h in hs:
            bp = elliptic.branch_point(n, float(h), tail_tol=args.tail_tol)
            rows.append((n, float(h), bp.theta, bp.lam, bp.W_at_0, n))
    return ["n", "h", "theta", "lambda", "w_at_0", "morse_index"], rows, {}


def _cmd_spectrum(args):
    if args.lam is not None:
        if args.n is not None or args.h is not None:
            raise _UsageError("argument --lambda: not allowed with argument --n or --h")
        mus = spectrum.homogeneous_spectrum(args.lam, count=args.count,
                                            equilibrium=args.equilibrium)
        morse = spectrum.morse_index_homogeneous(args.lam) if args.equilibrium == "upper" else None
        rows = [(k, float(mu), "" if morse is None else morse) for k, mu in enumerate(mus)]
        return ["k", "mu", "morse_index"], rows, {"lambda": args.lam}
    bp = elliptic.branch_point(1 if args.n is None else args.n, 0.0 if args.h is None else args.h,
                               tail_tol=args.tail_tol)
    rep = spectrum.eigen(bp.profile)
    rows = [(k, float(mu), rep.morse_index)
            for k, mu in enumerate(rep.eigenvalues[: args.count])]
    meta = {"lambda": bp.lam, "morse_index": rep.morse_index,
            "refinement_defect": rep.refinement_defect}
    return ["k", "mu", "morse_index"], rows, meta


def _cmd_resonance(args):
    ns = [args.n] if args.n is not None else list(range(1, args.n_max + 2))
    rows = []
    for n in ns:
        cert = resonance.identical_resonance_check(n)
        wit = ";".join(f"j={j} m={m}" for j, m in cert.witnesses)
        rows.append((cert.n, cert.verdict, resonance.fast_d_max(cert.n),
                     cert.search_bound, "+".join(map(str, resonance.ORDERS)),
                     cert.order1_vacuous, wit))
    cols = ["n", "verdict", "fast_d_max", "search_bound", "orders", "order1_vacuous", "witnesses"]
    return cols, rows, {}


def _cmd_evolve(args):
    field0, lam = _initial_field(args)
    field0.theta = args.theta
    rec = evolve.detect_blowup(
        field0, lam, args.r_max,
        norm_threshold=args.norm_threshold, err_target=args.err_target,
    )
    h = rec.history
    rows = [
        (float(r), float(h1), float(sup), float(w0.real), float(w0.imag))
        for r, h1, sup, w0 in zip(h["r"], h["h1"], h["sup"], h["w0"])
    ]
    meta = {
        "diverged": rec.diverged, "reason": rec.reason,
        "r_star_lower": rec.r_star_lower, "final_h1": rec.final_h1,
        "h1_growth_ok": rec.h1_growth_ok, "sectorial": rec.sectorial,
        # within 1e-9 (relative) of a homogeneous resonance with n <= 3, m <= 40
        "near_resonant_lambda": any(abs(lam - lp) <= 1e-9 * lp for n in (1, 2, 3)
                                    for _m, lp in resonance.homogeneous_resonant_lambdas(n, 40)),
        "lambda": lam,
        "steps_accepted": len(h["r"]) - 1, "steps_rejected": rec.rejected,
    }
    return ["r", "h1", "sup", "re_w0", "im_w0"], rows, meta


def _cmd_boundary(args):
    field0, lam = _initial_field(args)
    svals = np.linspace(args.s_min, args.s_max, args.points)
    scan = evolve.analyticity_boundary(
        field0, svals, lam,
        r_cap=args.r_cap, err_target=args.err_target,
    )
    rows = [
        (b.s, "" if b.r_star is None else float(b.r_star), b.defined, b.censored, b.reason)
        for b in scan.samples
    ]
    meta = {"lambda": lam, "r_cap": args.r_cap}
    if scan.corner:
        meta["corner_r"], meta["corner_s"] = scan.corner
    return ["s", "r_star", "defined", "censored", "reason"], rows, meta


def _cmd_ode(args):
    if args.fig2:
        return _fig2_rows()
    fld = _poly_field(args, scalar_ode.PolyField.quadratic)
    if args.lattice:
        lat = scalar_ode.period_lattice(fld)
        rows = [(j, g.real, g.imag) for j, g in enumerate(lat.generators)]
        meta = {"closure": lat.closure,
                "degenerate_subsets": str(lat.degenerate_subsets)}
        return ["j", "re_generator", "im_generator"], rows, meta
    path = [1j * args.t_end] if args.imag_time else [args.t_end]
    traj = scalar_ode.integrate(fld, args.w0, path, t_eval_per_unit=args.samples_per_unit)
    rows = [
        (float(s), float(t.real), float(t.imag), float(w.real), float(w.imag))
        for s, t, w in zip(traj.sigma, traj.t, traj.w)
    ]
    meta = {"diverged": traj.diverged,
            "sup_crossings": str([float(s) for s, _t in traj.sup_crossings]),
            "chart_swaps": traj.chart_swaps}
    return ["sigma", "re_t", "im_t", "re_w", "im_w"], rows, meta


def _fig2_rows():
    fld = scalar_ode.PolyField.quadratic()
    rows = []
    for v in (0.0, 0.25, 0.75, 1.5, 3.0, -0.25, -0.75, -1.5, -3.0):
        pieces = []
        for sgn in (-1.0, 1.0):
            traj = scalar_ode.integrate(fld, 1j * v, [sgn * 2.5], t_eval_per_unit=40)
            pts = list(zip(sgn * traj.sigma, traj.w))
            pieces.extend(pts[::-1] if sgn < 0 else pts[1:] if pieces else pts)
        for t, w in pieces:
            rows.append(("blue", v, float(t), float(w.real), float(w.imag)))
    for u in (0.3, 0.6, 0.9, 1.5, 2.0, -0.3, -0.6, -0.9, -1.5, -2.0):
        traj = scalar_ode.integrate(fld, complex(u), [1j * math.pi], t_eval_per_unit=60)
        for s, w in zip(traj.sigma, traj.w):
            rows.append(("orange", u, float(s), float(w.real), float(w.imag)))
    return ["family", "member", "t", "re_w", "im_w"], rows, {}


def _cmd_portrait(args):
    if args.fig3:
        return _fig3_rows()
    fld = _poly_field(args, lambda: scalar_ode.PolyField.cyclotomic(3))
    graph = portraits.trace_and_extract(fld)
    rows = []
    for j, (root, kind) in enumerate(zip(graph.roots, graph.classes)):
        rows.append(("root", j, _fmt(float(root.real)), _fmt(float(root.imag)), kind))
    for sep in graph.separatrices:
        tgt = "" if sep.target is None else sep.target
        rows.append(("saddle", sep.saddle, sep.kind, str(tgt),
                     "boundary" if sep.boundary_return else "interior"))
    if graph.tree is not None:
        for a in sorted(graph.tree.neighbors):
            for b in graph.tree.neighbors[a]:
                if a < b:
                    rows.append(("edge", a, str(b), "", ""))
        rows.append(("chord", 0, graph.chord_code, "", ""))
    meta = {"non_morse": graph.non_morse,
            "saddle_connections": len(graph.saddle_connections)}
    if args.random_quartic is not None:
        meta["seed"] = args.random_quartic
    return ["row", "index", "a", "b", "c"], rows, meta


def _fig3_rows():
    rows = []
    for d in (3, 4):
        fld = scalar_ode.PolyField.cyclotomic(d)
        graph = portraits.trace_and_extract(fld)
        for sep in graph.separatrices:
            for t, p in zip(sep.times, sep.points):
                rows.append((d, sep.saddle, "p", float(t), float(p.real),
                             float(p.imag), "separatrix"))
        for j, root in enumerate(fld.roots):
            traj = scalar_ode.integrate(fld, root + 0.25, [3.0], t_eval_per_unit=50)
            for s, w in zip(traj.sigma, traj.w):
                rows.append((d, j, "w", float(s), float(w.real), float(w.imag), "orbit"))
    return ["d", "saddle", "chart", "t", "re", "im", "kind"], rows, {}


def _cmd_trees(args):
    if args.codes is not None:
        codes = portraits.enumerate_codes(args.codes)
        return ["d", "code"], [(args.codes, c) for c in codes], {"count": len(codes)}
    degrees = range(args.d_min, args.d_max + 1)
    if not args.enumerate:
        return ["d", "count"], [(d, portraits.count_portraits(d)) for d in degrees], {}
    for d in degrees:
        portraits.check_enumerable(d)
    rows = []
    for d in degrees:
        cnt = portraits.count_portraits(d)
        enum = len(portraits.enumerate_codes(d))
        rows.append((d, cnt, enum, cnt == enum))
    return ["d", "count", "enumerated", "match"], rows, {}


def _cmd_waves(args):
    if args.resonant is not None:
        rows = [(m, float(c)) for m, c in waves.resonant_speeds(args.resonant)]
        return ["m", "c_m"], rows, {"c_critical": waves.C_CRITICAL}
    if args.soliton:
        xs = np.linspace(-args.xi_max, args.xi_max, args.points)
        rows = [(float(x), float(waves.soliton(x))) for x in xs]
        return ["xi", "W"], rows, {}
    cs = np.linspace(args.c_min, args.c_max, args.points)
    rows = []
    for c in cs:
        wp = waves.wave_params(float(c))
        mu1, mu2 = wp.mu_plus
        rows.append((float(c), wp.mu_minus, wp.p, mu1.real, mu1.imag,
                     mu2.real, mu2.imag, wp.oscillatory))
    cols = ["c", "mu_minus", "p", "re_mu_plus_1", "im_mu_plus_1",
            "re_mu_plus_2", "im_mu_plus_2", "oscillatory"]
    return cols, rows, {"c_critical": waves.C_CRITICAL}


# ---------------------------------------------------------------------------
# parser


def _add_common(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=_out_path, default=None,
                   help="write table here plus OUT.run.json descriptor")


def _add_field_args(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--constant", type=_complex_literal, default=None, help="constant initial data (0)")
    source.add_argument("--profile", type=_profile_arg, default=None, help="N,H: W_N(H) at its own lambda")
    source.add_argument("--mono", type=_complex_literal, default=None, help="amplitude of e^(2 pi i x)")
    p.add_argument("--modes", type=_positive_int, default=256)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None, help="0 when absent")


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process; each parse_args call returns a fresh namespace."""
    parser = _Parser(prog="eternal-kit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"eternal-kit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("branch", help="equilibrium branch sweep")
    p.add_argument("--n", type=int, action="append")
    p.add_argument("--h", type=_finite_float, default=None)
    p.add_argument("--h-max", type=_finite_float, default=0.12)
    p.add_argument("--points", type=_positive_int, default=41)
    p.add_argument("--tail-tol", type=_positive_float, default=1e-13)
    p.set_defaults(func=_cmd_branch)

    p = sub.add_parser("spectrum", help="linearization eigenvalues")
    p.add_argument("--n", type=int, default=None, help="1 when absent")
    p.add_argument("--h", type=_finite_float, default=None, help="0 when absent")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None,
                   help="homogeneous state instead of a branch profile")
    p.add_argument("--equilibrium", choices=("upper", "lower"), default="upper")
    p.add_argument("--count", type=_positive_int, default=8)
    p.add_argument("--tail-tol", type=_positive_float, default=1e-13)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("resonance", help="no-identical-resonance certificates")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=_positive_int, default=None)
    source.add_argument("--n-max", type=_positive_int, default=None)
    p.set_defaults(func=_cmd_resonance)

    p = sub.add_parser("evolve", help="complex-time ray with blow-up detection")
    _add_field_args(p)
    p.add_argument("--theta", type=_finite_float, default=0.0)
    p.add_argument("--r-max", type=_positive_float, default=1.0)
    p.add_argument("--norm-threshold", type=_positive_float, default=evolve.NORM_THRESHOLD)
    p.add_argument("--err-target", type=_positive_float, default=evolve.ERR_TARGET)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("boundary", help="analyticity boundary scan")
    _add_field_args(p)
    p.add_argument("--s-min", type=_finite_float, default=0.0)
    p.add_argument("--s-max", type=_finite_float, default=0.5)
    p.add_argument("--points", type=_positive_int, default=11)
    p.add_argument("--r-cap", type=_positive_float, default=2.0)
    p.add_argument("--err-target", type=_positive_float, default=evolve.ERR_TARGET)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("ode", help="scalar polynomial ODE in complex time")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--cyclotomic", type=_positive_int, default=None)
    source.add_argument("--roots", type=_roots_arg, default=None, help='"re,im;re,im;..."')
    p.add_argument("--w0", type=_complex_arg, default="0.0,0.0", help="re,im")
    p.add_argument("--t-end", type=_finite_float, default=5.0)
    p.add_argument("--imag-time", action="store_true")
    p.add_argument("--samples-per-unit", type=int, default=20)
    p.add_argument("--lattice", action="store_true", help="period lattice and closure")
    p.add_argument("--fig2", action="store_true", help="real/imaginary-time orbit families")
    p.set_defaults(func=_cmd_ode, random_quartic=None)

    p = sub.add_parser("portrait", help="compactified phase portrait")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--cyclotomic", type=_positive_int, default=None)
    source.add_argument("--roots", type=_roots_arg, default=None, help='"re,im;re,im;..."')
    source.add_argument("--random-quartic", type=lambda text: _positive_int(text, 0), nargs="?", const=0,
                        default=None, metavar="SEED", help="four normal random roots from SEED (0)")
    p.add_argument("--fig3", action="store_true", help="separatrix traces for d = 3, 4")
    p.set_defaults(func=_cmd_portrait)

    p = sub.add_parser("trees", help="planar tree census")
    p.add_argument("--d-min", type=int, default=2)
    p.add_argument("--d-max", type=int, default=12)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--codes", type=int, default=None, help="list canonical codes for this d")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("waves", help="traveling-wave parameters")
    p.add_argument("--c-min", type=_finite_float, default=0.0)
    p.add_argument("--c-max", type=_finite_float, default=3.0)
    p.add_argument("--points", type=_positive_int, default=13)
    p.add_argument("--resonant", type=int, default=None, help="list c_m for m <= this")
    p.add_argument("--soliton", action="store_true")
    p.add_argument("--xi-max", type=_finite_float, default=3.0)
    p.set_defaults(func=_cmd_waves)

    for sp in sub.choices.values():
        _add_common(sp)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = argv
        columns, rows, meta = args.func(args)
        _emit(args, columns, rows, meta)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except (DomainError, DegenerateFieldError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except (TruncationError, ConvergenceError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
