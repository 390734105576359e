"""The four workloads: fixed op lists, the check on every op, and the
end-to-end metrics.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned.  The op list is fixed by the workload, ``--seconds``
and ``--seed`` alone; it never depends on how fast ops run.  The seed fixes the
case order within each pass and the Monte Carlo seeds.  ``NOTES.md`` says why
each workload exists.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from cases import (
    EXACT_CASES,
    EXACT_REL_TOL,
    INF,
    KNOWN_DEFECTS,
    MC_CONFIGS,
    MC_LEVELS,
    case_key,
    parse_key,
)
import host
from spans import Tracer

WORKLOADS = ("exact-lowdeg", "exact-highdeg", "montecarlo", "constants")

# Nominal seconds of one pass (one op for constants) on a 2-core Xeon.  They
# turn --seconds into a fixed number of passes; they are part of the
# benchmark's definition and are not re-measured.
NOMINAL_PASS_S = {
    "exact-lowdeg": 7.2,
    "exact-highdeg": 33.0,
    "montecarlo": 2.0,
    "constants": 2.0,
}
# op_tail_s needs at least 11 ops (the highest percentile with 10 ops beyond).
# Constants gets 15: its ops, each in a fresh interpreter, spread widest, and
# with 11 its tail would be the single fastest op.
MIN_OPS = {"exact-lowdeg": 11, "exact-highdeg": 11, "montecarlo": 11, "constants": 15}
MC_SIGMAS = 4.0
CHILD_TIMEOUT_S = 120

SMOKE_CASES = {
    "exact-lowdeg": [case_key(10, 1.0, INF, 1.0), case_key(10, -INF, -1.0, 1.0)],
    "exact-highdeg": [case_key(1000, 1.0, INF, 1.0), case_key(1000, 1.0, INF, INF)],
}
SMOKE_MC_TRIALS = 2

# Runs one verify-constants call in a fresh interpreter; the timer sits inside
# the child around the call, so interpreter start stays out of the op time.
_CONSTANTS_CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from rice_maxima import cli
buf = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(buf):
    code = cli.main(["verify-constants", "--json"])
seconds = time.perf_counter() - start
print(json.dumps({"code": code, "seconds": seconds, "stdout": buf.getvalue()}))
"""


class Timed(NamedTuple):
    """An op result that carries its own duration (timed inside a child)."""

    value: Any
    seconds: float


@dataclass
class Op:
    case: str
    layer: str
    call: Callable[[], Any]
    # returns None when the result is correct, else the reason it is not
    check: Callable[[Any], str | None]
    expected_failure: bool = False


@dataclass
class Plan:
    ops: list[Op]
    # pooled checks over the whole run; returns {case: reason} for failed ops
    finish: Callable[[], dict[str, str]] = field(default=lambda: {})


@dataclass
class Context:
    """What set-up builds: the library, models and frozen references."""

    root: Path
    refs: dict
    models: dict = field(default_factory=dict)
    schema: Any = None


def prepare(name: str, root: Path, refs: dict) -> Context:
    """Set-up shared by the timed run and the cold ``setup_s`` probes."""
    ctx = Context(root, refs)
    if name == "constants":
        import jsonschema

        from rice_maxima import cli  # noqa: F401  (import cost belongs to set-up)

        path = root / "src" / "rice_maxima" / "schema" / "verify_constants.schema.json"
        ctx.schema = jsonschema.Draft202012Validator(json.loads(path.read_text()))
        return ctx
    from rice_maxima import PolynomialModel

    if name == "montecarlo":
        degrees = {n for n, _, _ in MC_CONFIGS.values()}
    else:
        degrees = {parse_key(key)[0] for key in EXACT_CASES[name]}
    ctx.models = {n: PolynomialModel(n) for n in sorted(degrees)}
    return ctx


# ----------------------------------------------------------------------------
# ops


def exact_op(ctx: Context, key: str) -> Op:
    from rice_maxima import CountQuery, expected_count

    n, lo, hi, u = parse_key(key)
    model = ctx.models[n]
    query = CountQuery(lo, hi, u)
    ref = ctx.refs["exact"][key]

    def call():
        return expected_count(model, query, rel_tol=EXACT_REL_TOL)

    def check(result) -> str | None:
        diff = abs(result.value - ref["value"])
        tol = max(result.abs_error + ref["abs_error"], EXACT_REL_TOL * abs(ref["value"]))
        if not diff <= tol:
            return f"value {result.value!r} is {diff:.3g} from reference {ref['value']!r} (tol {tol:.3g})"
        return None

    return Op(key, "counts", call, check, key in KNOWN_DEFECTS)


class MCPool:
    """Pools each config x level over the run for the |mean - exact| gate."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.parts: dict[str, dict] = {}

    def add(self, cfg: str, seed: int, estimates) -> None:
        # keyed by seed, so an op run twice (traced and untraced) pools once
        self.parts.setdefault(cfg, {})[seed] = estimates

    def check(self) -> dict[str, str]:
        failures = {}
        for cfg, by_seed in self.parts.items():
            n = MC_CONFIGS[cfg][0]
            for level_index, u in enumerate(MC_LEVELS):
                exact = self.refs["exact"][case_key(n, -INF, INF, u)]["value"]
                mean, stderr, trials = pool([run[level_index] for run in by_seed.values()])
                # The sample standard error reads far too small when a level
                # sees few events (3 maxima below u = -1 in 18000 trials at
                # n = 8, where the reference expects 11), so it is floored by
                # the Poisson error the reference implies, and by 1/trials.
                floor = max(math.sqrt(exact / trials), 1.0 / trials)
                gate = MC_SIGMAS * max(stderr, floor)
                if not abs(mean - exact) <= gate:
                    failures[cfg] = (
                        f"u={u:g}: pooled mean {mean:.6g} is {abs(mean - exact):.3g} "
                        f"from exact {exact:.6g} (gate {gate:.3g}, {trials} trials)"
                    )
        return failures


def pool(estimates) -> tuple[float, float, int]:
    """Mean, standard error and trial count of several MCEstimate pooled."""
    total = sum(e.trials for e in estimates)
    s1 = sum(e.mean * e.trials for e in estimates)
    s2 = sum(
        (e.trials - 1) * e.stderr**2 * e.trials + e.trials * e.mean**2 for e in estimates
    )
    mean = s1 / total
    var = max(s2 - s1 * s1 / total, 0.0) / max(total - 1, 1)
    return mean, math.sqrt(var / total), total


def mc_op(ctx: Context, mc_pool: MCPool, cfg: str, seed: int, trials: int) -> Op:
    from rice_maxima import MCConfig, estimate_many

    n, ppu, _ = MC_CONFIGS[cfg]
    model = ctx.models[n]
    config = MCConfig(trials=trials, seed=seed, points_per_unit=ppu)

    def call():
        return estimate_many(model, -INF, INF, MC_LEVELS, config)

    def check(estimates) -> str | None:
        if len(estimates) != len(MC_LEVELS):
            return f"{len(estimates)} estimates for {len(MC_LEVELS)} levels"
        if not all(math.isfinite(e.mean) and math.isfinite(e.stderr) for e in estimates):
            return "non-finite estimate"
        mc_pool.add(cfg, seed, estimates)
        return None

    return Op(f"{cfg}|seed={seed}", "montecarlo", call, check)


def constants_call(root: Path) -> Timed:
    proc = subprocess.run(
        [sys.executable, "-c", _CONSTANTS_CHILD, str(root / "src")],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=root,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return Timed(out, out["seconds"])


def constants_op(ctx: Context, index: int) -> Op:
    ref = ctx.refs["constants"]

    def check(out) -> str | None:
        # exit code 4 is the expected outcome while rows fail (strict xfails)
        if out["code"] not in (0, 4):
            return f"exit code {out['code']}"
        try:
            record = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        errors = [e.message for e in ctx.schema.iter_errors(record)]
        if errors:
            return f"schema: {errors[0]}"
        rows = {row["name"]: row for row in record["rows"]}
        if [row["name"] for row in record["rows"]] != ref["rows"]:
            return "row names differ from the reference rows"
        lost = [name for name in ref["passed_at_seed"] if not rows[name]["passed"]]
        if lost:
            return f"rows no longer pass: {', '.join(lost)}"
        if (out["code"] == 0) != record["all_passed"]:
            return f"exit code {out['code']} disagrees with all_passed"
        return None

    return Op(f"verify-constants#{index}", "cli", lambda: constants_call(ctx.root), check)


# ----------------------------------------------------------------------------
# plans


def passes_for(name: str, seconds: int) -> int:
    passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
    if name in EXACT_CASES:
        per_pass = len(EXACT_CASES[name])
    else:
        per_pass = {"montecarlo": len(MC_CONFIGS), "constants": 1}[name]
    return max(passes, math.ceil(MIN_OPS[name] / per_pass))


def build_plan(name: str, ctx: Context, seed: int, passes: int, smoke: bool = False) -> Plan:
    rng = random.Random(seed)
    if name in EXACT_CASES:
        keys = SMOKE_CASES[name] if smoke else EXACT_CASES[name]
        ops = []
        for _ in range(passes):
            order = list(keys)
            rng.shuffle(order)
            ops += [exact_op(ctx, key) for key in order]
        return Plan(ops)
    if name == "montecarlo":
        mc_pool = MCPool(ctx.refs)
        ops = []
        for _ in range(passes):
            order = list(MC_CONFIGS)
            rng.shuffle(order)
            for cfg in order:
                trials = SMOKE_MC_TRIALS if smoke else MC_CONFIGS[cfg][2]
                ops.append(mc_op(ctx, mc_pool, cfg, rng.randrange(2**31), trials))
        return Plan(ops, mc_pool.check)
    if name == "constants":
        return Plan([constants_op(ctx, i) for i in range(passes)])
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------------
# running


def run_op(op: Op, tracer: Tracer) -> tuple[dict, Any]:
    """Run, time and check one op; returns its record and its result (None
    when it raised)."""
    start = time.perf_counter()
    try:
        with tracer.span(op.layer, trace=op.case):
            out = op.call()
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        record = {"case": op.case, "seconds": time.perf_counter() - start}
        record["status"] = "xfail" if op.expected_failure else "raised"
        record["detail"] = f"{type(exc).__name__}: {exc}"[:400]
        return record, None
    seconds = time.perf_counter() - start
    if isinstance(out, Timed):
        out, seconds = out.value, out.seconds
    record = {"case": op.case, "seconds": seconds}
    try:
        problem = op.check(out)
    except Exception as exc:  # a malformed result is a wrong result
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is None:
        record["status"] = "xpass" if op.expected_failure else "ok"
    else:
        record["status"] = "wrong"
        record["detail"] = problem[:400]
    return record, out


def run_plan(plan: Plan, tracer: Tracer, progress=None) -> list[dict]:
    """Run the ops in order, timing the host kernel before each one."""
    records = []
    for op in plan.ops:
        kernel_s = host.kernel_seconds()
        records.append(run_op(op, tracer)[0] | {"host_kernel_s": kernel_s})
        if progress:
            progress(records[-1])
    apply_pooled(plan, records)
    return records


def apply_pooled(plan: Plan, records: list[dict]) -> None:
    """Mark as wrong every op of a group whose pooled check failed."""
    pooled = plan.finish()
    for record in records:
        reason = pooled.get(record["case"].split("|seed=")[0])
        if reason and record["status"] in ("ok", "xpass"):
            record["status"] = "wrong"
            record["detail"] = reason


FAILED = ("wrong", "raised", "xfail")


def summarize(records: list[dict]) -> dict:
    """attempted, failed and correct for the last-line JSON.

    An expected failure (known defect) counts as failed but leaves the run
    correct; a wrong value or an unexpected exception makes it incorrect.
    """
    failed = sum(1 for r in records if r["status"] in FAILED)
    correct = not any(r["status"] in ("wrong", "raised") for r in records)
    return {"correct": correct, "attempted": len(records), "failed": failed}


def tail_index(count: int) -> int:
    """Index in sorted order of the highest percentile with ten ops beyond it
    (the maximum when fewer than eleven ops ran, as in smoke runs)."""
    return count - 11 if count >= 11 else count - 1


def op_times(records: list[dict]) -> dict[str, float]:
    """Raw wall_s, op_p50_s and op_tail_s, in seconds as measured."""
    times = sorted(r["seconds"] for r in records)
    return {
        "wall_s": sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": times[tail_index(len(times))],
    }


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Op times scaled to the reference host speed, and the pass share."""
    slowdown = host.slowdown([r["host_kernel_s"] for r in records])
    passed = sum(1 for r in records if r["status"] not in FAILED)
    scaled = {name: value / slowdown for name, value in op_times(records).items()}
    return scaled | {"pass_share": passed / len(records)}
