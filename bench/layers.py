"""Per-layer probes for the traced run (``--trace 1``).

Every traced run, whatever its workload, runs the same fixed probes, so each
per-layer metric is always reported.  Each probe times calls into one public
module from outside, inside a span; nothing is traced inside the library.
``NOTES.md`` lists which end-to-end metric each probe should move.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from cases import INF, MC_CONFIGS, MC_LEVELS, PROBE_COUNTS, PROBE_DEGREES
from spans import Tracer, duration
from workloads import CHILD_TIMEOUT_S, Context, constants_op, exact_op, prepare, run_op

BATCHES = 5
# calls per batch, per degree: cheap model accessors, then moments/density
MODEL_REPS = {10: 2000, 100: 500, 1000: 100, 10000: 20}
POINT_REPS = {10: 100, 100: 100, 1000: 30, 10000: 5}
SCALED_REPS = 2000
KERNEL_REPS = 2
KERNEL_TS = (0.05, 0.5, 2.0, 10.0)
STARTUP_PROBES = 3
# Monte Carlo probe trials per configuration (about 0.15-0.35 s each)
MC_PROBE_TRIALS = {"n8p64": 1000, "n64p64": 200, "n256p64": 16, "n256p512": 2}

_COLD_H_INTEGRAL = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from rice_maxima import h_integral
pairs = [(f, p) for f in (1, 2, 3, 4) for p in ((1,), (1, 3), (1, 2), (1, 3, 4))]
start = time.perf_counter()
for family, pair in pairs:
    h_integral(family, pair)
print(json.dumps({"seconds": time.perf_counter() - start, "count": len(pairs)}))
"""


def per_call_s(tracer: Tracer, name: str, fn, reps: int, **attrs) -> float:
    """Median over batches of the time per call of ``fn``; one span per batch."""
    per_call = []
    for _ in range(BATCHES):
        with tracer.span(name, reps=reps, **attrs) as span:
            for _ in range(reps):
                fn()
        per_call.append(duration(span) / reps)
    return statistics.median(per_call)


def _points(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One probe point in each of the six pieces ``expected_count`` integrates
    (cut at -1-d, -1+d, 0, 1-d, 1+d): the four with |x| <= 1, then the two
    tails."""
    from rice_maxima import split_points

    d = split_points(n)[-1] - 1.0
    inner = (-1.0 + 0.5 * d, -0.5 * (1.0 - d), 0.5 * (1.0 - d), 1.0 - 0.5 * d)
    return inner, (-1.0 - 2.0 * d, 1.0 + 2.0 * d)


def model_density_probes(tracer: Tracer, metrics: dict) -> None:
    from rice_maxima import PolynomialModel, maxima_density, moments

    for n in PROBE_DEGREES:
        with tracer.span("probe", trace=f"layers.n{n}"):
            model = PolynomialModel(n)
            reps = MODEL_REPS[n]
            metrics[f"model.effective_rank_us.n{n}"] = 1e6 * per_call_s(
                tracer, "model", lambda: model.effective_rank, reps, call="effective_rank"
            )
            metrics[f"model.variance_weights_us.n{n}"] = 1e6 * per_call_s(
                tracer, "model", model.variance_weights, reps, call="variance_weights"
            )
            inner, outer = _points(n)
            reps = POINT_REPS[n]
            moment_s = {}
            density_s = []
            for x in inner + outer:
                moment_s[x] = per_call_s(
                    tracer, "moments", lambda: moments(model, x, clamp_rho=True), reps, x=x
                )
                density_s.append(
                    per_call_s(tracer, "density", lambda: maxima_density(model, x, 1.0), reps, x=x)
                )
            metrics[f"moments.inner_us.n{n}"] = 1e6 * statistics.fmean(moment_s[x] for x in inner)
            metrics[f"moments.outer_us.n{n}"] = 1e6 * statistics.fmean(moment_s[x] for x in outer)
            eval_us = 1e6 * statistics.fmean(density_s)
            metrics[f"density.eval_us.n{n}"] = eval_us
            metrics[f"density.self_us.n{n}"] = eval_us - 1e6 * statistics.fmean(moment_s.values())


def scaled_probe(tracer: Tracer, metrics: dict) -> None:
    from rice_maxima import ScaledValue

    a = ScaledValue.from_float(3.0e200)
    b = ScaledValue.from_float(-7.5e-150)

    def five_ops():
        (a * b) / a + b
        a.powi(7).to_float()

    with tracer.span("probe", trace="layers.scaled"):
        metrics["scaled.op_us"] = 1e6 * per_call_s(tracer, "scaled", five_ops, SCALED_REPS) / 5


def count_probes(tracer: Tracer, ctx: Context, metrics: dict, records: list) -> None:
    """One count per degree (``PROBE_COUNTS``), checked against its reference."""
    for n, key in PROBE_COUNTS.items():
        record, result = run_op(exact_op(ctx, key), tracer)
        records.append(record)
        evals = result.metadata["evaluations"] if result is not None else 0
        count_s = record["seconds"]
        metrics[f"counts.evals_per_count.n{n}"] = evals
        metrics[f"counts.count_s.n{n}"] = count_s
        eval_s = metrics[f"density.eval_us.n{n}"] * 1e-6
        metrics[f"quadrature.self_share.n{n}"] = 1.0 - evals * eval_s / count_s


def mc_probes(tracer: Tracer, seed: int, metrics: dict) -> None:
    from rice_maxima import PolynomialModel, count_maxima_below, sample_coefficients

    for cfg, (n, ppu, _) in MC_CONFIGS.items():
        trials = MC_PROBE_TRIALS[cfg]
        model = PolynomialModel(n)
        with tracer.span("probe", trace=f"montecarlo.{cfg}"):
            with tracer.span("montecarlo.sample", trials=trials) as span:
                coeff = sample_coefficients(model, trials, seed)
            if ppu == 64:
                metrics[f"montecarlo.sample_us_per_trial.n{n}"] = 1e6 * duration(span) / trials
            with tracer.span("montecarlo.count", trials=trials) as span:
                counts = count_maxima_below(model, coeff, -INF, INF, MC_LEVELS, points_per_unit=ppu)
        metrics[f"montecarlo.count_ms_per_trial.{cfg}"] = 1e3 * duration(span) / trials
        metrics[f"montecarlo.maxima_per_trial.{cfg}"] = float(counts[:, MC_LEVELS.index(INF)].mean())


def _child(tracer: Tracer, name: str, args: list[str], root) -> tuple[float, str]:
    """Run a fresh interpreter to completion; wall seconds and stdout."""
    with tracer.span(name) as span:
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=root
        )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} child exited {proc.returncode}: {proc.stderr[-400:]}")
    return duration(span), proc.stdout


def constants_probes(tracer: Tracer, ctx: Context, metrics: dict, records: list) -> None:
    from rice_maxima.kernels import KernelId, h_kernel

    src = str(ctx.root / "src")
    kernels = [KernelId(f, i) for f in (1, 2, 3, 4) for i in (1, 2, 3, 4)]

    def all_kernels():
        for t in KERNEL_TS:
            for kid in kernels:
                h_kernel(kid, t)

    with tracer.span("probe", trace="constants"):
        calls = len(KERNEL_TS) * len(kernels)
        metrics["kernels.h_kernel_us"] = 1e6 * per_call_s(tracer, "kernels", all_kernels, KERNEL_REPS) / calls
        _, out = _child(tracer, "expansion", ["-c", _COLD_H_INTEGRAL, src], ctx.root)
        cold = json.loads(out.strip().splitlines()[-1])
        metrics["expansion.h_integral_ms"] = 1e3 * cold["seconds"] / cold["count"]
        record, _ = run_op(constants_op(ctx, 0), tracer)
        records.append(record)
        metrics["cli.verify_constants_s"] = record["seconds"]
        startup = [
            _child(tracer, "cli.startup", ["-c", f"import sys; sys.path.insert(0, {src!r}); import rice_maxima.cli"], ctx.root)[0]
            for _ in range(STARTUP_PROBES)
        ]
        metrics["cli.startup_s"] = statistics.median(startup)


def overhead(ops, tracer: Tracer, records: list) -> float:
    """Traced over untraced time minus one, on the same ops run in pairs (the
    order within a pair alternates)."""
    untraced = Tracer(False)
    totals = {True: 0.0, False: 0.0}
    for index, op in enumerate(ops):
        for enabled in (False, True) if index % 2 == 0 else (True, False):
            record, _ = run_op(op, tracer if enabled else untraced)
            records.append(record)
            totals[enabled] += record["seconds"]
    return totals[True] / totals[False] - 1.0


def run_probes(root: Path, refs: dict, seed: int, tracer: Tracer, records: list) -> dict:
    from rice_maxima import PolynomialModel

    ctx = prepare("constants", root, refs)
    ctx.models = {n: PolynomialModel(n) for n in PROBE_DEGREES}
    metrics: dict = {}
    model_density_probes(tracer, metrics)
    scaled_probe(tracer, metrics)
    count_probes(tracer, ctx, metrics, records)
    mc_probes(tracer, seed, metrics)
    constants_probes(tracer, ctx, metrics, records)
    return metrics
