"""Benchmark of rice_maxima: one workload per process, BLAS pinned to one thread.

Run from the repository root:

    python3 bench/run.py --workload exact-lowdeg --seed 1 --seconds 15 --trace 0

Workloads: exact-lowdeg, exact-highdeg, montecarlo, constants (see NOTES.md).
Progress goes to stderr.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also writes
a record (environment, seed, every op's case, time and status, and the spans
of a traced run) to ``bench/out/``.  ``selftest.py`` checks the benchmark.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import host  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    apply_pooled,
    build_plan,
    end_to_end,
    op_times,
    passes_for,
    prepare,
    run_op,
    run_plan,
    summarize,
    tail_index,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# setup_s is the median of this many cold set-ups, each in a fresh interpreter
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op list (selftest.py)")
    parser.add_argument(
        "--references", type=Path, default=BENCH / "references.json", help="frozen answers"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def setup_seconds(args, probes: int) -> list[float]:
    """Wall time of cold set-ups: a fresh interpreter that imports the
    library and builds the workload's models and references, then exits."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--references", str(args.references), "--setup-probe",
    ]  # fmt: skip
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def progress(record: dict) -> None:
    print(f"  {record['case']:<28} {record['seconds']:9.4f} s  {record['status']}", file=sys.stderr)


def traced_run(args, ctx) -> tuple[dict, list, dict]:
    from layers import overhead, run_probes

    tracer = Tracer(True)
    records: list = []
    metrics = run_probes(ROOT, ctx.refs, args.seed, tracer, records)
    # the smoke ops, run traced and untraced in pairs
    plan = build_plan(args.workload, ctx, args.seed, passes=1, smoke=True)
    start = len(records)
    metrics["trace.overhead_share"] = overhead(plan.ops, tracer, records)
    apply_pooled(plan, records[start:])
    for record in records:
        progress(record)
    return metrics, records, {"spans": tracer.spans}


def untraced_run(args, ctx) -> tuple[dict, list, dict]:
    setup = setup_seconds(args, 1 if args.smoke else SETUP_PROBES)
    if args.workload != "constants":
        # one untimed op, so lazy initialisation stays out of the first timed op
        run_op(build_plan(args.workload, ctx, args.seed, passes=1, smoke=True).ops[0], Tracer(False))
    passes = 1 if args.smoke else passes_for(args.workload, args.seconds)
    plan = build_plan(args.workload, ctx, args.seed, passes, smoke=args.smoke)
    records = run_plan(plan, Tracer(False), progress)
    metrics = {"setup_s": statistics.median(setup), **end_to_end(records)}
    metrics["peak_rss_mb"] = peak_rss_mb()
    count = len(records)
    extra = {
        "raw_op_times_s": op_times(records),
        "host_slowdown": host.slowdown([r["host_kernel_s"] for r in records]),
        "setup_probes_s": setup,
        "passes": passes,
        "op_count": count,
        "op_tail_percentile": 100.0 * (tail_index(count) + 1) / count,
    }
    return metrics, records, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rice_maxima" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not args.references.is_file():
        print(f"error: missing references {args.references}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = json.loads(args.references.read_text(encoding="utf-8"))
    ctx = prepare(args.workload, ROOT, refs)
    if args.setup_probe:
        return 0

    print(f"{args.workload}: seed {args.seed}, trace {args.trace}", file=sys.stderr)
    metrics, records, extra = (traced_run if args.trace else untraced_run)(args, ctx)
    units = declared_units()
    result = {
        **summarize(records),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "environment": environment(args.seed),
                **extra,
                "result": result,
                "ops": records,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
