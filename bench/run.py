#!/usr/bin/env python3
"""Benchmark of eternal-kit: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload blowup --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from src/ as it is;
nothing is installed.  A run first starts five fresh interpreters that import
the program and draw the inputs (set-up time), then repeats passes of the
workload's calls in this process, one after another, until the next pass
would end past --seconds (at least one pass).  Every output is checked
against an exact answer or a property (see oracles.py and workloads.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of tracing.py, with the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record of the run
goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_workloads():
    """Put src/ and this directory on the path and import the workloads."""
    if not (ROOT / "src" / "eternal_kit" / "__init__.py").is_file():
        sys.exit(f"no program source at {ROOT / 'src' / 'eternal_kit'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    return workloads


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to imports done and inputs drawn."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                samples.append(time.perf_counter() - t0)
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            sys.exit(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return samples


def program_caches(modules) -> list:
    """The functools caches of the program, cleared before every pass so each
    pass does the work a fresh process would."""
    return [obj for mod in modules for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info")]


def tail_percentile(samples):
    """(p, value) for the highest percentile with ten samples beyond it, or
    None with fewer than forty samples."""
    n = len(samples)
    if n < 40:
        return None
    p = max(q for q in (75, 90, 95, 99) if n * (100 - q) >= 1000)
    return p, statistics.quantiles(samples, n=100)[p - 1]


def run(args, spec, workloads, nproc):
    import numpy
    import scipy
    import eternal_kit
    from eternal_kit import cli, elliptic, evolve, portraits, resonance, spectrum

    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    setup = measure_setup(args.workload, args.seed)
    inputs = make_inputs(args.seed)
    caches = program_caches([eternal_kit, cli, elliptic, evolve, portraits, resonance, spectrum])
    if args.trace:
        import tracing

    ledger = workloads.Ledger()
    walls, traced_walls, layers, figures = [], [], [], []

    def one_pass(tracer=None):
        for cache in caches:
            cache.cache_clear()
        before = ledger.call_s
        if tracer is None:
            figures.append(run_pass(inputs, ledger))
            return ledger.call_s - before
        tables_before = tracer.tables_info()
        tracer.install()
        try:
            figures.append(run_pass(inputs, ledger))
        finally:
            tracer.remove()
        layers.append(tracer.metrics(tables_before, tracer.tables_info()))
        return ledger.call_s - before

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        walls.append(one_pass())
        if args.trace:
            traced_walls.append(one_pass(tracing.Tracer()))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    named = {}
    for key in ("oracle_err", "rstar_gap", "period_return_err", "mu2_rel_err"):
        vals = [f[key] for f in figures if f.get(key) is not None]
        if vals:
            named[key] = statistics.median(vals)
    if "oracle_err" not in named:
        sys.exit("no pass produced its accuracy figure: " + "; ".join(ledger.errors or ledger.check_failures))

    if args.trace:
        metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "oracle_err": named["oracle_err"],
        }
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        sys.exit(f"metric set differs from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")

    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": nproc,
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    correct = not ledger.check_failures
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "inputs": inputs, "attempted": ledger.attempted, "failed": ledger.failed,
        "checks": ledger.checks, "check_failures": ledger.check_failures, "errors": ledger.errors,
        "setup_s": setup, "pass_wall_s": walls, "traced_pass_wall_s": traced_walls,
        "figures": named, "per_pass_figures": figures,
        "op_latency_s": {k: statistics.median(v) for k, v in ledger.latencies.items()},
        "metrics": metrics,
    }

    print(f"eternal-kit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"operations: attempted {ledger.attempted}, failed {ledger.failed}; "
          f"checks {ledger.checks}, failed {len(ledger.check_failures)}")
    for line in ledger.errors + ledger.check_failures:
        print(f"  FAIL {line}")
    for label, samples in (("setup", setup), ("pass wall", walls), ("traced pass wall", traced_walls)):
        if samples:
            tail = tail_percentile(samples)
            extra = f", p{tail[0]} {tail[1]:.6g} s" if tail else " (no tail percentile under 40 samples)"
            print(f"{label}: {len(samples)} samples, median {statistics.median(samples):.6g} s{extra}")
    for key, val in named.items():
        print(f"figure {key} = {val:.6g}")
    for name, val in metrics.items():
        print(f"{name} = {val:.6g} {units[name]}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()}}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("blowup", "schrodinger", "exact"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    workloads = import_workloads()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload][0](args.seed)
        print("ready", flush=True)
        return
    run(args, load_spec(), workloads, nproc)


if __name__ == "__main__":
    main()
