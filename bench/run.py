"""riccati-si benchmark: time to tolerance, memory and failure share on four
seeded workloads, with a traced per-layer split.

    python3 bench/run.py --workload lap-ilrsi --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 it holds the per-layer metrics of
a traced run, and the spans are written under bench/out/. Lines before it
give the sample counts, the failure count and the environment.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
# Fixed before numpy loads; one thread was also the faster setting measured
# on the ilrsi workloads (2 cores).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np
import scipy

import tracing
import workloads

SETUP_RUNS = 5
# Probes of the external check come from their own fixed stream, so the
# seed changes only the workload inputs.
CHECK_SEED = 12345
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import json, numpy, workloads
workloads.SIZES.update(json.loads(sys.argv[3]))
workloads.make_cases(sys.argv[4], numpy.random.default_rng(int(sys.argv[5])))
print(time.perf_counter() - t0)
"""


def release_free_memory():
    """Hand freed heap memory back to the OS (glibc only), so that peak RSS
    follows the largest single solve rather than the allocator's history
    over the run."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def setup_seconds(workload, seed):
    """Import riccati_si and build the workload's problems in a fresh
    interpreter, SETUP_RUNS times one after another; median seconds."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(HERE),
             json.dumps(workloads.SIZES), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def repeat(workload, seed, seconds, tracer=None):
    """Run repetitions while that brings the measured time closer to
    `seconds`. Measured time is the timed shift and solve work; building the
    cases and the external check are not counted.

    With a tracer, every second repetition runs with the timing proxies
    installed, and at least three run so that an untraced one follows the
    first, which pays first-call costs. Returns a list of (outcomes, traced)
    per repetition.
    """
    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng(CHECK_SEED)
    reps = []
    measured = []
    least = 2 if tracer is None else 3
    while True:
        on = tracer is not None and len(reps) % 2 == 1
        with tracing.install(tracer) if on else contextlib.nullcontext():
            with tracer.span("problems.build") if on else contextlib.nullcontext():
                cases = workloads.make_cases(workload, rng)
            oracles = {}
            outcomes = []
            for case in cases:
                outcomes.append(workloads.run_case(case, check_rng, oracles,
                                                   tracer if on else None))
                release_free_memory()
        reps.append((outcomes, on))
        measured.append(sum(o.solve_s + (o.shift_s or 0.0) for o in outcomes))
        if sum(measured) + statistics.median(measured) / 2 >= seconds \
                and len(reps) >= least:
            return reps


def end_to_end(reps, setup_s):
    """The end-to-end metrics as name -> (value, unit), and sample counts.

    A shifts_s sample is one repetition's mean Penzl time over its cases. On
    rksm-sweep a repetition holds 12 Penzl computations of a few ms each,
    spread over seconds. On a shared host each such short call runs either
    in a fast or in a slow phase of the machine, and the median over single
    calls jumps between the two; the mean over a repetition does not. The
    other workloads have one Penzl case per repetition.
    """
    outcomes = [o for rep in reps for o in rep]
    verified = sum(o.verified for o in outcomes)
    solve = [o.solve_s for o in outcomes]
    shift = [statistics.mean(s) for s in
             ([o.shift_s for o in rep if o.shift_s is not None] for rep in reps) if s]
    used_shift = sum(o.shift_s for o in outcomes if o.shifts_used)
    metrics = {
        "solve_s": (statistics.median(solve), "s"),
        "shifts_s": (statistics.median(shift), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "steps": (statistics.mean(o.steps for o in outcomes), "count"),
        "final_dim": (statistics.mean(o.final_dim for o in outcomes), "count"),
        "solved_share": (verified / len(outcomes), "ratio"),
        "converged_per_s": (verified / (sum(solve) + used_shift), "1/s"),
    }
    samples = {"solve_s": len(solve), "shifts_s": len(shift), "setup_s": SETUP_RUNS}
    return metrics, samples


def traced(workload, seed, seconds):
    """Alternate untraced and traced repetitions; per-layer metrics from the
    traced ones plus the tracing overhead on the median solve time."""
    tracer = tracing.Tracer()
    reps = repeat(workload, seed, seconds, tracer)
    metrics, absent = tracing.layer_metrics(tracer)
    for name in absent:
        print(f"absent: {name} (wrapped targets gone: {', '.join(sorted(tracer.absent))})")
    plain = [o.solve_s for outcomes, on in reps[1:] if not on for o in outcomes]
    timed = [o.solve_s for outcomes, on in reps if on for o in outcomes]
    metrics["trace.overhead_s"] = (statistics.median(timed) - statistics.median(plain), "s")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    return metrics, [o for outcomes, _ in reps for o in outcomes]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")  # deflation/saturation notices per solve
    if args.trace:
        metrics, outcomes = traced(args.workload, args.seed, args.seconds)
        samples = {}
    else:
        reps = [rep for rep, _ in repeat(args.workload, args.seed, args.seconds)]
        outcomes = [o for rep in reps for o in rep]
        metrics, samples = end_to_end(reps, setup_seconds(args.workload, args.seed))

    attempted = len(outcomes)
    failed = sum(o.wrong or o.status == "error" for o in outcomes)
    not_solved = attempted - sum(o.verified for o in outcomes)
    for o in outcomes:
        if o.wrong:
            print(f"check failed: {o.check_note}")
    for name, (value, unit) in metrics.items():
        n = f"  (median of {samples[name]} samples)" if name in samples else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{n}")
    print(f"{args.workload} failed_share = {not_solved / attempted:.6g} ratio"
          f"  ({not_solved} of {attempted} solves not converged or not verified)")
    print("env: " + json.dumps(environment()))
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
