"""splinereg benchmark: one workload per invocation, result as the last stdout line.

    python3 benchmark/run.py --workload penalty_eval --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from its
`src/` directory. With --trace 0 the result holds every end-to-end metric,
under the same names on every workload (README.md says what each means on
each); with --trace 1 it holds every per-layer metric, measured on traced
rounds that alternate with untraced ones, and their difference as
`trace.overhead_pct`. Checks, environment and (traced) spans go to stderr and
to files under benchmark/out/. --tiny shrinks every input for the self-test.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import splinereg; print(time.perf_counter() - t0)"
)


def import_library():
    """Import splinereg from this checkout's sources, not from anywhere else."""
    sys.path.insert(0, str(SRC))
    import splinereg

    if not Path(splinereg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"splinereg came from {splinereg.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median time of `import splinereg` in fresh interpreters, as a user pays it."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def blas_threads():
    """Threads numpy's bundled OpenBLAS would use now, or None if not found."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        query = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            query.restype, query.argtypes = ctypes.c_int, []
            return int(query())
    return None


def environment() -> dict:
    from splinereg import _threads

    with _threads.single_threaded_blas():
        inside = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "physical_cores": _threads.physical_core_count(),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "blas_threads": blas_threads(),
        "blas_threads_in_single_threaded_blas": inside,
        "blas_pinned": inside == 1,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def measure(workload, state, rec, tracer, seconds: float, trace: bool) -> dict:
    """Whole rounds until `seconds` have passed; traced runs alternate an
    untraced and a traced round and end on a traced one."""
    durations = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        t0 = time.perf_counter()
        if traced:
            with tracer.installed("round"):
                workload.run_round(state, rec)
        else:
            workload.run_round(state, rec)
        durations[traced].append(time.perf_counter() - t0)
        if time.perf_counter() >= deadline and (traced or not trace):
            return durations
        traced = trace and not traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    try:
        import_library()
    except ImportError as exc:
        print(f"benchmark: cannot import splinereg from {SRC}: {exc}", file=sys.stderr)
        return 2
    import layers
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.tiny)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    env = environment()
    print(json.dumps({"environment": env}), file=sys.stderr, flush=True)
    OUT.mkdir(exist_ok=True)

    import_s = import_seconds()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.installed("setup"):
            state = workload.setup(args.seed, OUT)
        setup_times.append(time.perf_counter() - t0)

    rec = workloads.Recorder(tracer, workload.name)
    durations = measure(workload, state, rec, tracer, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.checks(state, args.seed)
    for c in checks:
        print(f"check {'PASS' if c.ok else 'FAIL'} {workload.name}: {c.name}: {c.detail}", file=sys.stderr)

    absent = []
    if args.trace:
        metrics, absent = layers.collect(workload, state, tracer, durations, import_s)
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "round_s": (statistics.median(durations[False]), "s"),
            **{name: (ms, "ms") for name, ms in workload.end_to_end(state, rec).items()},
        }
    result = {
        "correct": all(c.ok for c in checks),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "environment": env,
        "import_s": import_s,
        "setup_s_each": setup_times,
        "round_s": {"untraced": durations[False], "traced": durations[True]},
        "op_s": {
            key: {"n": len(v), "min": min(v), "median": statistics.median(v), "max": max(v)}
            for key, v in rec.timings.items()
        },
        "checks": [vars(c) for c in checks],
        "absent": absent,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
