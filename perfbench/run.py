"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead. The exit code is 0 when every output check passed, 1 when
one failed and 2 when the run could not start. See README.md beside this file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("study", "kernel_wide", "predict_stream")
# one BLAS thread: the arrays are at most 256 wide, and the machine is shared
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPS = 5
MIN_UNITS = 2
SHOWN_PROBLEMS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one qsvm-boost benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced run")
    return parser.parse_args(argv)


IMPORT_CODE = (
    "import time; t0 = time.perf_counter(); import qsvm_boost; seconds = time.perf_counter() - t0; "
    "import speed; print(speed.rescale_now(seconds))"
)


def import_seconds() -> float:
    """Median reference-speed time of ``import qsvm_boost`` in a fresh interpreter.

    The child rescales its own time: it may run on the other CPU, whose
    contention the parent's probe does not see.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)]))
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, check=True, timeout=120,
                             capture_output=True, text=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get(THREAD_VARS[0], "library default"),
        "note": "shared machine; no system setting was changed to steady it",
    }


def measure(workload, seconds: float) -> list:
    """Run whole units, at least MIN_UNITS, until the next would end over half a unit past the window."""
    ops, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit_ops = workload.unit()
        walls.append(time.perf_counter() - t0)
        for op in unit_ops:
            op.unit = len(walls)
        ops += unit_ops
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_UNITS and elapsed + statistics.fmean(walls) / 2 > seconds:
            return ops


def set_up(wl, tracer, probe) -> list[float]:
    """Set the workload up several times; returns the reference-speed seconds of each."""
    import spans

    times = []
    for rep in range(wl.setup_reps):
        # only the last set-up, whose inputs the run uses, is traced
        wl.tracer = tracer if rep == wl.setup_reps - 1 else None
        with spans.installed(wl.tracer):
            t0 = time.perf_counter()
            wl.setup()
            times.append(probe.rescale(t0, time.perf_counter()))
    return times


def trace_overhead(wl) -> float:
    """Wall time of the workload's reference slice traced, over the same slice untraced."""
    import spans

    wl.tracer = None
    t0 = time.perf_counter()
    wl.reference_unit()
    untraced = time.perf_counter() - t0
    wl.tracer = spans.Tracer()  # a throwaway: these spans are not reported
    with spans.installed(wl.tracer):
        t0 = time.perf_counter()
        wl.reference_unit()
        traced = time.perf_counter() - t0
    wl.tracer = None
    return traced / untraced


def run(args, workdir: Path, tiny: bool = False) -> int:
    """Set up, measure and check one workload; ``tiny`` shrinks it for the smoke test."""
    import spans
    import speed
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tiny)
    tracer = spans.Tracer() if args.trace else None
    with speed.SpeedProbe() as probe:
        import_s = import_seconds()
        setup_times = set_up(wl, tracer, probe)
        wl.tracer = tracer
        with spans.installed(tracer):
            ops = measure(wl, args.seconds)
        overhead = trace_overhead(wl) if tracer else 0.0
    extra = wl.check()

    attempted = len(ops) + len(extra)
    problems = [op.problem for op in ops + extra if op.failed]
    wall = [op.seconds for op in ops]
    seconds = [probe.rescale(op.start, op.start + op.seconds) for op in ops]
    ops_per_s = workloads.ops_per_second([op.kind for op in ops], seconds)
    p50, p95 = (workloads.per_unit_percentile([op.unit for op in ops], seconds, q) * 1e3 for q in (50, 95))
    setup_s = import_s + statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(machine_info(), sort_keys=True))
    # the issue's per-workload names, and the percentiles, which are not gated
    named = {
        "study": {"datasets_per_min": (60.0 * ops_per_s, "1/min")},
        "kernel_wide": {"grams_per_s": (ops_per_s, "1/s")},
        "predict_stream": {
            "points_per_s": (ops_per_s * getattr(wl, "batch_size", 0), "1/s"),
            "batch_ms_p50": (p50, "ms"),
            "batch_ms_p95": (p95, "ms"),
        },
    }[args.workload]
    named.update(op_ms_p50=(p50, "ms"), op_ms_p95=(p95, "ms"), setup_s=(setup_s, "s"),
                 peak_rss_mb=(rss_mb, "MB"))
    for name, (value, unit) in named.items():
        print(f"# {name} = {value:.6g} {unit}")
    beyond = sum(1 for s in seconds if s * 1e3 > p95)  # against the run's own p95, for the sample count
    print(f"# times are reference-speed seconds (see speed.py): the probe took "
          f"{statistics.median(probe.durations) * 1e3:.3f} ms median against {speed.REFERENCE_S * 1e3:.3f} ms; "
          f"wall-clock ops_per_s = {workloads.ops_per_second([op.kind for op in ops], wall):.6g}")
    print(f"# {len(ops)} measured {wl.op_name} in {sum(wall):.3f} s of library calls; "
          f"{beyond} beyond p95; import {import_s:.3f} s, set-up x{len(setup_times)} "
          + " ".join(f"{t:.3f}" for t in setup_times))
    print(f"# ops_failed_ratio = {len(problems) / attempted:.6g} "
          f"({len(problems)} failed of {attempted} ops: {len(ops)} measured, {len(extra)} checks)")
    for problem in problems[:SHOWN_PROBLEMS]:
        print(f"# FAILED: {problem}")

    if tracer is None:
        values = {"setup_s": setup_s, "ops_per_s": ops_per_s, "peak_rss_mb": rss_mb}
    else:
        tracer.write_jsonl(workdir.parent / f"spans-{args.workload}-{args.seed}.jsonl")
        values = spans.layer_metrics(tracer.spans)
        values.update(workloads.study_metrics(getattr(wl, "runs", [])))
        values["trace.overhead_ratio"] = overhead
    declared = {m["name"]: m["unit"] for m in declared_metrics("per_layer" if args.trace else "end_to_end")}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0 if not problems else 1


def declared_metrics(key: str) -> list[dict]:
    """The metric declarations of BENCHMARK.json, which names and units come from."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[key]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsvm_boost" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
