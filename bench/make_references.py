"""Regenerate ``bench/references.json``, the frozen answers the benchmark checks.

Run from the repository root:

    python3 bench/make_references.py

It writes three sections:

- ``exact``: (value, abs_error) for every exact-workload case, every Monte
  Carlo whole-line case and every per-layer count probe, computed at a tighter tolerance than the benchmark
  asks for.  The known-defect cases (u = inf on an interval reaching
  |x| = inf at n >= 1000) cannot be computed directly; their reference is the
  count up to |x| = X = 1e9/n, inside the region the density can be
  evaluated, plus the analytic far tail f(X) * X of a density decaying like
  1/x^2.  The tail is below 2e-8 of the count, and a thousandth of it is
  charged to abs_error.
- ``constants``: the 28 ``verify-constants`` row names and the rows that pass.
- ``meta``: the tolerances used.

The benchmark never runs this script; a change to the library that moves a
frozen value beyond its tolerance is a correctness failure, not a reason to
regenerate.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

from cases import (  # noqa: E402
    EXACT_CASES,
    INF,
    KNOWN_DEFECTS,
    MC_CONFIGS,
    MC_LEVELS,
    PROBE_COUNTS,
    case_key,
    parse_key,
)
from rice_maxima import (  # noqa: E402
    CountQuery,
    DegenerateCovariance,
    PolynomialModel,
    ToleranceNotMet,
    expected_count,
    maxima_density,
    verify_constants,
)

# Tighter than the benchmark's 1e-8 where the library reaches it; a tighter
# tolerance can push the far-tail blocks into the degenerate region, so each
# case falls back to the next looser one.
REF_REL_TOLS = (1e-10, 1e-9, 1e-8)
TAIL_ERROR_SHARE = 1e-3


def _count(model: PolynomialModel, lo: float, hi: float, u: float):
    for rel_tol in REF_REL_TOLS:
        try:
            return expected_count(model, CountQuery(lo, hi, u), rel_tol=rel_tol), rel_tol
        except (ToleranceNotMet, DegenerateCovariance):
            continue
    raise RuntimeError(f"no reference tolerance met for n={model.degree} ({lo}, {hi}) u={u}")


def _truncated(model: PolynomialModel, lo: float, hi: float, u: float) -> dict:
    cap = 1e9 / model.degree
    result, rel_tol = _count(model, max(lo, -cap), min(hi, cap), u)
    tail = 0.0
    if hi == INF:
        tail += maxima_density(model, cap, u) * cap
    if lo == -INF:
        tail += maxima_density(model, -cap, u) * cap
    return {
        "value": result.value + tail,
        "abs_error": result.abs_error + TAIL_ERROR_SHARE * tail,
        "rel_tol": rel_tol,
        "method": f"count to |x| = {cap:g} plus f(X) X tail",
    }


def exact_references() -> dict:
    keys = [key for keys in EXACT_CASES.values() for key in keys]
    keys += [
        case_key(n, -INF, INF, u) for n, _, _ in MC_CONFIGS.values() for u in MC_LEVELS
    ]
    keys += list(PROBE_COUNTS.values())
    out = {}
    models = {}
    for key in dict.fromkeys(keys):
        n, lo, hi, u = parse_key(key)
        model = models.setdefault(n, PolynomialModel(n))
        if key in KNOWN_DEFECTS:
            out[key] = _truncated(model, lo, hi, u) | {"known_defect": True}
        else:
            result, rel_tol = _count(model, lo, hi, u)
            out[key] = {
                "value": result.value,
                "abs_error": result.abs_error,
                "rel_tol": rel_tol,
                "known_defect": False,
            }
        print(key, out[key]["value"], out[key]["abs_error"], file=sys.stderr, flush=True)
    return out


def constants_references() -> dict:
    rows = verify_constants()
    return {
        "rows": [row.name for row in rows],
        "passed_at_seed": [row.name for row in rows if row.passed],
    }


def main() -> int:
    refs = {
        "meta": {"ref_rel_tols": list(REF_REL_TOLS), "tail_error_share": TAIL_ERROR_SHARE},
        "exact": exact_references(),
        "constants": constants_references(),
    }
    path = BENCH / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
