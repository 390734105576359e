"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

Checks, in about a minute:

1. a smoke run of every workload prints, as its last line, JSON with exactly
   the keys correct/attempted/failed/metrics, every end-to-end metric of
   BENCHMARK.json with its unit, and the expected attempted and failed counts;
2. a traced smoke run prints every per-layer metric with its unit;
3. a corrupted reference makes ``correct`` false (exact and Monte Carlo);
4. an op that raises counts as a failed op, not a crash;
5. in a directory holding only BENCHMARK.json and the benchmark, the run
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = BENCH / "out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# workload -> (attempted, failed) of its smoke op list
SMOKE_COUNTS = {
    "exact-lowdeg": (2, 0),
    "exact-highdeg": (2, 1),
    "montecarlo": (4, 0),
    "constants": (1, 0),
}


def run(workload: str, *extra: str, cwd: Path = ROOT, trace: int = 0):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), *extra]  # fmt: skip
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in specs}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, f"metric names/units differ: {set(got) ^ set(expected)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_smoke() -> None:
    for workload, (attempted, failed) in SMOKE_COUNTS.items():
        result = last_json(run(workload, "--smoke"))
        check_shape(result, SPEC["end_to_end"])
        assert result["correct"] is True, workload
        assert (result["attempted"], result["failed"]) == (attempted, failed), result


def test_traced() -> None:
    result = last_json(run("exact-lowdeg", "--smoke", trace=1))
    check_shape(result, SPEC["per_layer"])
    assert result["correct"] is True, result


def test_corrupted_reference() -> None:
    refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    refs["exact"]["10|1|inf|1"]["value"] *= 1.001
    refs["exact"]["8|-inf|inf|inf"]["value"] += 100.0
    path = SCRATCH / "corrupt.json"
    path.write_text(json.dumps(refs), encoding="utf-8")
    for workload in ("exact-lowdeg", "montecarlo"):
        result = last_json(run(workload, "--smoke", "--references", str(path)))
        assert result["correct"] is False, workload
        assert result["failed"] >= 1, result


def test_raise_is_failed_op() -> None:
    sys.path.insert(0, str(BENCH))
    from spans import Tracer
    from workloads import Op, Plan, run_plan, summarize

    def boom():
        raise ZeroDivisionError("injected")

    ops = [
        Op("ok", "test", lambda: 1, lambda out: None),
        Op("boom", "test", boom, lambda out: None),
        Op("known", "test", boom, lambda out: None, expected_failure=True),
    ]
    records = run_plan(Plan(ops), Tracer(True))
    assert [r["status"] for r in records] == ["ok", "raised", "xfail"], records
    assert summarize(records) == {"correct": False, "attempted": 3, "failed": 2}
    assert summarize(records[::2]) == {"correct": True, "attempted": 2, "failed": 1}


def test_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("exact-lowdeg", cwd=bare)
    assert proc.returncode != 0, "run succeeded without the library"
    assert proc.stdout.strip() == "", proc.stdout
    shutil.rmtree(bare)


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failures = 0
    for test in (test_smoke, test_traced, test_corrupted_reference, test_raise_is_failed_op,
                 test_bare_directory):  # fmt: skip
        try:
            test()
        except Exception as exc:  # report every test, then fail overall
            failures += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
