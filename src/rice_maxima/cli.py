"""Command-line front-end for the three evaluation paths.

Subcommands
-----------
density           pointwise density of local maxima below a level
expect            expected count on an interval (adaptive quadrature)
asymptotic        large-degree expansion on a canonical interval
montecarlo        simulation estimate on an interval
verify-constants  recompute the frozen reference table and report pass/fail
compare           (n, u) matrix of exact vs asymptotic vs simulation

Conventions
-----------
Levels and interval endpoints accept ``inf`` and ``-inf``.  Intervals are
given either as ``lo,hi`` or by canonical name: ``pos-tail`` (1, inf),
``neg-tail`` (-inf, -1), ``unit`` (0, 1), ``neg-unit`` (-1, 0).  Increment
deviations default to 1 for every k; ``--sigma-file`` (one value per line,
length n) feeds the general model to the exact and simulation engines.
The expansion covers only the unit-deviation model and exits with code 2
for any other.

Every subcommand accepts ``--json``.  JSON output is deterministic — the
wall-time field stays null unless ``--timing`` is given — and validates
against the schema files shipped in ``rice_maxima/schema``.  Infinities
are serialized as the strings ``"inf"`` and ``"-inf"``.

Exit codes: 0 success; 1 usage error; 2 degenerate or invalid model;
3 quadrature tolerance not met (the best estimate is still printed);
4 reference verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import time

from . import __version__
from .counts import CountQuery, expected_count
from .density import maxima_density
from .errors import (
    DegenerateCovariance,
    DegenerateModel,
    NonFiniteResult,
    ToleranceNotMet,
)
from .expansion import FAMILY_BOUNDS, FAMILY_INTERVALS, theorem_expansion
from .model import PolynomialModel
from .montecarlo import _MINIMUMS, MCConfig, estimate_many
from .reference import verify_constants

__all__ = ["build_parser", "main"]

_NAME_TO_FAMILY = {name: fam for fam, name in FAMILY_INTERVALS.items()}
_BOUNDS_TO_FAMILY = {bounds: fam for fam, bounds in FAMILY_BOUNDS.items()}

_OK, _USAGE, _DEGENERATE, _TOLERANCE, _VERIFY = 0, 1, 2, 3, 4

# error raised by a subcommand -> exit code; ``main`` prints "error: <message>"
_EXIT_CODES = {
    DegenerateModel: _DEGENERATE,
    DegenerateCovariance: _DEGENERATE,
    NonFiniteResult: _DEGENERATE,
    ToleranceNotMet: _TOLERANCE,
    ValueError: _USAGE,
    OSError: _USAGE,
}

_LEVEL_HELP = "level (inf/-inf allowed)"
_INTERVAL_HELP = "'lo,hi' or pos-tail | neg-tail | unit | neg-unit"


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 (not 2) on usage errors and
    accepts ``-inf`` / ``-1,0``-style tokens as option values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# argument types


def _level(text: str) -> float:
    lowered = text.strip().lower()
    if lowered in {"inf", "+inf", "infinity"}:
        return math.inf
    if lowered in {"-inf", "-infinity"}:
        return -math.inf
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if math.isnan(value):
        raise argparse.ArgumentTypeError("NaN is not a valid value")
    return value


def _finite(text: str) -> float:
    value = _level(text)
    if math.isinf(value):
        raise argparse.ArgumentTypeError("a finite value is required here")
    return value


def _positive_float(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _interval(text: str) -> tuple[float, float]:
    lowered = text.strip().lower()
    if lowered in _NAME_TO_FAMILY:
        return FAMILY_BOUNDS[_NAME_TO_FAMILY[lowered]]
    parts = text.split(",")
    if len(parts) != 2:
        names = ", ".join(sorted(_NAME_TO_FAMILY))
        raise argparse.ArgumentTypeError(
            f"expected 'lo,hi' or one of [{names}], got {text!r}"
        )
    lo, hi = _level(parts[0]), _level(parts[1])
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"interval needs lo < hi, got {text!r}")
    return lo, hi


def _integer(minimum: int):
    """Parser of integers >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _list_of(item):
    """Parser of a non-empty comma-separated list of ``item`` values."""

    def parse(text: str) -> tuple:
        items = tuple(item(part) for part in text.split(",") if part.strip())
        if not items:
            raise argparse.ArgumentTypeError("the list must not be empty")
        return items

    return parse


# ---------------------------------------------------------------------------
# shared helpers


def _load_model(degree: int, sigma_file: str | None) -> PolynomialModel:
    if sigma_file is None:
        return PolynomialModel(degree)
    values = []
    with open(sigma_file, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped:
                values.append(float(stripped))
    return PolynomialModel(degree, sigma=tuple(values))


def _is_unit(model: PolynomialModel) -> bool:
    return model.sigma0 == 0.0 and all(s == 1.0 for s in model.sigma)


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _single_result(args, interval, method, value, abs_error=None, stderr=None) -> dict:
    """Record body of a subcommand that reports one value for one model."""
    return {
        "model": {"n": args.n, "sigma": args.sigma_file or "unit"},
        "query": {"interval": interval, "u": args.u},
        "results": [
            {"method": method, "value": value, "abs_error": abs_error, "stderr": stderr}
        ],
    }


# ---------------------------------------------------------------------------
# subcommands: each computes and returns (record body, text, exit code); the
# errors of ``_EXIT_CODES`` propagate to ``main``


def _cmd_density(args, model):
    value = maxima_density(model, args.x, args.u)
    body = _single_result(args, (args.x, args.x), "density", value)
    return body, f"{value:.17g}", _OK


def _cmd_expect(args, model):
    code = _OK
    query = CountQuery(*args.interval, args.u)
    try:
        result = expected_count(model, query, rel_tol=args.rel_tol)
    except ToleranceNotMet as exc:
        if exc.result is None:
            raise
        print(f"warning: {exc}", file=sys.stderr)
        result, code = exc.result, _TOLERANCE
    value, abs_error = float(result.value), float(result.abs_error)
    body = _single_result(args, args.interval, result.method, value, abs_error)
    return body, f"{result.value:.17g} +- {result.abs_error:.3g}", code


def _cmd_asymptotic(args, model):
    family = _BOUNDS_TO_FAMILY.get(args.interval)
    if family is None:
        raise ValueError(
            "the expansion is defined on the four canonical intervals "
            "only (pos-tail, neg-tail, unit, neg-unit)"
        )
    if not _is_unit(model):
        raise DegenerateModel("the expansion covers only unit increment deviations")
    expansion = theorem_expansion(family, args.n, args.u)
    if expansion.warned:
        print(
            f"warning: u={args.u:g} is outside the validity scale "
            f"({expansion.validity})",
            file=sys.stderr,
        )
    text = (
        f"{expansion.value:.17g}\n"
        f"  log term : {expansion.log_term:.17g} "
        f"(coefficient {expansion.log_coefficient:.12g})\n"
        f"  constant : {expansion.constant:.17g}\n"
        f"  u term   : {expansion.u_term:.17g} "
        f"(coefficient {expansion.u_coefficient:.12g})\n"
        f"  {expansion.validity}"
    )
    return _single_result(args, args.interval, "expansion", expansion.value), text, _OK


def _cmd_montecarlo(args, model):
    config = MCConfig(args.trials, args.seed, args.points_per_unit)
    (estimate,) = estimate_many(model, *args.interval, [args.u], config)
    body = _single_result(
        args, args.interval, "monte-carlo", float(estimate.mean),
        stderr=float(estimate.stderr),
    )
    text = (
        f"{estimate.mean:.17g} +- {estimate.stderr:.3g} "
        f"(trials={estimate.trials}, seed={estimate.seed})"
    )
    return body, text, _OK


def _cmd_verify_constants(args, _model):
    rows = verify_constants(args.rel_tol)
    failed = sum(1 for row in rows if not row.passed)
    header = (
        f"{'name':<26} {'computed':>18} {'reference':>18} "
        f"{'diff':>10} {'tol':>8} status"
    )
    lines = [header, "-" * len(header)]
    lines += [
        f"{row.name:<26} {row.computed:>18.12g} {row.reference:>18.12g} "
        f"{row.diff:>10.2e} {row.tolerance:>8.0e} "
        f"{'pass' if row.passed else 'FAIL'}"
        for row in rows
    ]
    lines.append(f"{len(rows) - failed} of {len(rows)} rows within tolerance")
    rows_json = [dataclasses.asdict(row) for row in rows]
    body = {"rows": rows_json, "all_passed": failed == 0}
    return body, "\n".join(lines), _OK if failed == 0 else _VERIFY


def _cmd_compare(args, _model):
    lo, hi = args.interval
    family = _BOUNDS_TO_FAMILY.get(args.interval)
    cells = []
    code = _OK
    config = MCConfig(args.trials, args.seed, args.points_per_unit)
    for n in args.n_list:
        model = _load_model(n, args.sigma_file)
        estimates = estimate_many(model, lo, hi, args.u_list, config)
        for u, estimate in zip(args.u_list, estimates):
            try:
                query = CountQuery(lo, hi, u)
                exact = expected_count(model, query, rel_tol=args.rel_tol)
            except ToleranceNotMet as exc:
                print(f"warning: n={n} u={u:g}: {exc}", file=sys.stderr)
                exact = exc.result
                code = _TOLERANCE
            asymptotic = None
            if family is not None and _is_unit(model) and 0.0 < u < math.inf:
                asymptotic = theorem_expansion(family, n, u).value
            cells.append(
                {
                    "n": n,
                    "u": float(u),
                    "exact": float(exact.value),
                    "exact_err": float(exact.abs_error),
                    "asymptotic": asymptotic,
                    "mc_mean": float(estimate.mean),
                    "mc_stderr": float(estimate.stderr),
                }
            )
    body = {
        "model": {"n": list(args.n_list), "sigma": args.sigma_file or "unit"},
        "query": {"interval": [lo, hi], "u": list(args.u_list)},
        "cells": cells,
    }
    lines = ["n,u,exact,exact_err,asymptotic,mc_mean,mc_stderr"]  # the cell keys
    for cell in cells:
        lines.append(",".join("" if v is None else repr(v) for v in cell.values()))
    return body, "\n".join(lines), code


# ---------------------------------------------------------------------------
# parser


def _subcommand(subparsers, name, func, summary, *, sigma=True):
    """A subparser with the options every subcommand shares."""
    p = subparsers.add_parser(name, help=summary)
    p.add_argument(
        "--json", action="store_true", help="emit a JSON record instead of text"
    )
    p.add_argument(
        "--timing",
        action="store_true",
        help="measure wall time (JSON wall_time stays null without this)",
    )
    if sigma:
        p.add_argument(
            "--sigma-file",
            metavar="PATH",
            help="increment standard deviations, one per line, length n",
        )
    p.set_defaults(func=func)
    return p


def _add_query(p, u_help=_LEVEL_HELP, interval_help=_INTERVAL_HELP) -> None:
    """``--n``, ``--u`` and, unless ``interval_help`` is None, ``--interval``."""
    p.add_argument("--n", type=_integer(1), required=True, help="polynomial degree")
    p.add_argument("--u", type=_level, required=True, help=u_help)
    if interval_help is not None:
        p.add_argument("--interval", type=_interval, required=True, help=interval_help)


def _add_simulation(p, trials: int) -> None:
    """The Monte Carlo options; ``trials`` is the default sample size."""
    p.add_argument("--trials", type=_integer(1), default=trials, help="sample size")
    p.add_argument("--seed", type=_integer(0), default=0, help="base seed")
    p.add_argument(
        "--points-per-unit",
        type=_integer(_MINIMUMS["points_per_unit"]),
        default=MCConfig.points_per_unit,
        help="critical-point scan resolution",
    )


def _density_options(p) -> None:
    _add_query(p, interval_help=None)
    p.add_argument("--x", type=_finite, required=True, help="evaluation point")


def _expect_options(p) -> None:
    _add_query(p)
    p.add_argument(
        "--rel-tol", type=_positive_float, default=1e-8, help="relative tolerance"
    )


def _asymptotic_options(p) -> None:
    _add_query(
        p,
        "level (finite, > 0)",
        "pos-tail | neg-tail | unit | neg-unit (or the same bounds as 'lo,hi')",
    )


def _montecarlo_options(p) -> None:
    _add_query(p)
    _add_simulation(p, trials=10000)


def _verify_constants_options(p) -> None:
    p.add_argument(
        "--rel-tol",
        type=_positive_float,
        default=None,
        help="replace the per-row absolute tolerances with rel-tol * |reference|",
    )


def _compare_options(p) -> None:
    p.add_argument(
        "--n-list",
        type=_list_of(_integer(1)),
        required=True,
        help="comma-separated degrees, e.g. 200,500,1000",
    )
    p.add_argument(
        "--u-list",
        type=_list_of(_level),
        required=True,
        help="comma-separated levels (inf allowed)",
    )
    p.add_argument("--interval", type=_interval, required=True, help=_INTERVAL_HELP)
    _add_simulation(p, trials=20000)
    p.add_argument(
        "--rel-tol",
        type=_positive_float,
        default=1e-8,
        help="relative tolerance for the exact column",
    )


# name -> (handler, summary, options, whether it takes --sigma-file)
_COMMANDS = {
    "density": (
        _cmd_density,
        "pointwise density of local maxima below a level",
        _density_options,
        True,
    ),
    "expect": (
        _cmd_expect,
        "expected count on an interval by adaptive quadrature",
        _expect_options,
        True,
    ),
    "asymptotic": (
        _cmd_asymptotic,
        "large-degree expansion on a canonical interval",
        _asymptotic_options,
        True,
    ),
    "montecarlo": (
        _cmd_montecarlo,
        "simulation estimate on an interval",
        _montecarlo_options,
        True,
    ),
    "verify-constants": (
        _cmd_verify_constants,
        "recompute the frozen reference table and report pass/fail",
        _verify_constants_options,
        False,
    ),
    "compare": (
        _cmd_compare,
        "(n, u) matrix of exact vs asymptotic vs simulation (CSV by default)",
        _compare_options,
        True,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command`` alone; the
    usage line names all of them either way."""
    parser = _Parser(
        prog="rice-maxima",
        description=(
            "Expected local maxima below a level for random polynomials "
            "whose coefficients form a Gaussian random walk."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    everything = "{" + ",".join(_COMMANDS) + "}"
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar=None if command is None else everything
    )
    for name in _COMMANDS if command is None else (command,):
        func, summary, options, sigma = _COMMANDS[name]
        options(_subcommand(subparsers, name, func, summary, sigma=sigma))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand that runs is the only one built; --help, --version and
    # usage errors before a subcommand get the whole tree
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _USAGE
    try:
        model = _load_model(args.n, args.sigma_file) if "n" in args else None
        start = time.perf_counter()
        body, text, code = args.func(args, model)
        wall = time.perf_counter() - start if args.timing else None
        if args.json:
            record = {"command": args.command, **body}
            record.update(version=__version__, wall_time=wall)
            print(json.dumps(_jsonable(record), indent=2))
        else:
            print(text)
        if wall is not None:
            print(f"wall time: {wall:.3f} s", file=sys.stderr)
        return code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
