"""End-to-end tests of the command-line front-end.

Every test drives ``cli.main`` in-process and captures stdout/stderr, so the
assertions cover the real argument parsing, formatting, exit codes and JSON
serialization without spawning subprocesses.  JSON outputs are validated
against the schema files shipped with the package.
"""

import json
import math
from importlib import resources

import jsonschema
import pytest

from rice_maxima import (
    DegenerateCovariance,
    DegenerateModel,
    MCConfig,
    NonFiniteResult,
    PolynomialModel,
    ToleranceNotMet,
    cli,
    counts,
    estimate_many,
    maxima_density,
    theorem_expansion,
)
from rice_maxima.counts import CountQuery, expected_count

INF = math.inf


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = resources.files("rice_maxima").joinpath("schema", name)
    return json.loads(path.read_text(encoding="utf-8"))


def validate(record, schema_name):
    jsonschema.Draft202012Validator(load_schema(schema_name)).validate(record)


class TestTopLevel:
    def test_version(self, capsys):
        code, out, err = run(capsys, "--version")
        assert code == 0
        assert out.strip() == "rice-maxima 0.1.0"

    def test_no_subcommand_is_usage_error(self, capsys):
        code, out, err = run(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, out, err = run(capsys, "maximize")
        assert code == 1

    def test_a_named_subcommand_is_built_alone(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(
            cli, "build_parser", lambda name=None: built.append(name) or build(name)
        )
        query = ("asymptotic", "--n", "100", "--u", "1", "--interval", "unit")
        assert run(capsys, *query)[0] == 0
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "maximize")[0] == 1
        assert built == ["asymptotic", None, None]
        # an error the top level reports after a subcommand shows the usage
        # line of the whole tree
        whole = run(capsys, "maximize")[2].splitlines()[:3]
        code, out, err = run(capsys, *query, "extra")
        assert code == 1
        assert err.splitlines()[:3] == whole
        assert "unrecognized arguments: extra" in err

    @pytest.mark.parametrize(
        "error,want",
        [
            (DegenerateModel("model"), 2),
            (DegenerateCovariance(0.5, "detail"), 2),
            (NonFiniteResult("not finite"), 2),
            (ToleranceNotMet("budget"), 3),
            (ValueError("bad value"), 1),
            (OSError("no file"), 1),
        ],
    )
    def test_error_exit_codes(self, capsys, monkeypatch, error, want):
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, "maxima_density", fail)
        code, out, err = run(capsys, "density", "--n", "5", "--u", "1.0", "--x", "0.5")
        assert code == want
        assert out == ""
        assert err == f"error: {error}\n"


class TestDensity:
    def test_value_matches_library(self, capsys):
        code, out, err = run(capsys, "density", "--n", "5", "--u", "1.0", "--x", "0.5")
        assert code == 0
        assert float(out) == maxima_density(PolynomialModel(5), 0.5, 1.0)

    def test_negative_tokens_parse(self, capsys):
        code, out, err = run(capsys, "density", "--n", "5", "--u", "-1", "--x", "-0.5")
        assert code == 0
        assert float(out) == maxima_density(PolynomialModel(5), -0.5, -1.0)

    def test_json_record_validates(self, capsys):
        code, out, err = run(
            capsys, "density", "--n", "5", "--u", "inf", "--x", "0.5", "--json"
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "run_record.schema.json")
        assert record["command"] == "density"
        assert record["model"] == {"n": 5, "sigma": "unit"}
        assert record["query"] == {"interval": [0.5, 0.5], "u": "inf"}
        assert record["wall_time"] is None
        (result,) = record["results"]
        assert result["method"] == "density"
        assert result["value"] == maxima_density(PolynomialModel(5), 0.5, INF)
        assert result["abs_error"] is None
        assert result["stderr"] is None

    def test_timing_fills_wall_time(self, capsys):
        code, out, err = run(
            capsys, "density", "--n", "3", "--u", "0.0", "--x", "2.0",
            "--json", "--timing",
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "run_record.schema.json")
        assert isinstance(record["wall_time"], float)
        assert record["wall_time"] >= 0.0
        assert "wall time:" in err

    def test_degenerate_model_exits_2(self, capsys):
        code, out, err = run(capsys, "density", "--n", "2", "--u", "inf", "--x", "0.5")
        assert code == 2
        assert "degenerate covariance" in err

    def test_infinite_x_is_usage_error(self, capsys):
        code, out, err = run(capsys, "density", "--n", "5", "--u", "1.0", "--x", "inf")
        assert code == 1

    def test_nan_level_is_usage_error(self, capsys):
        code, out, err = run(capsys, "density", "--n", "5", "--u", "nan", "--x", "0.5")
        assert code == 1


class TestExpect:
    def test_value_matches_library(self, capsys):
        code, out, err = run(
            capsys, "expect", "--n", "5", "--u", "inf", "--interval", "-1,0"
        )
        assert code == 0
        want = expected_count(
            PolynomialModel(5), CountQuery(-1.0, 0.0, INF), rel_tol=1e-8
        )
        value, plus_minus, abs_error = out.split()
        assert plus_minus == "+-"
        assert float(value) == want.value
        assert float(abs_error) == pytest.approx(want.abs_error, rel=1e-2, abs=0.0)

    def test_named_interval_matches_bounds(self, capsys):
        code_a, out_a, _ = run(
            capsys, "expect", "--n", "3", "--u", "0.5", "--interval", "unit"
        )
        code_b, out_b, _ = run(
            capsys, "expect", "--n", "3", "--u", "0.5", "--interval", "0,1"
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_record_validates(self, capsys):
        code, out, err = run(
            capsys, "expect", "--n", "3", "--u", "1.0",
            "--interval", "neg-tail", "--json",
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "run_record.schema.json")
        assert record["command"] == "expect"
        assert record["query"] == {"interval": ["-inf", -1.0], "u": 1.0}
        (result,) = record["results"]
        assert result["method"] == "exact"
        assert isinstance(result["abs_error"], float)
        assert result["stderr"] is None

    def test_tolerance_not_met_exits_3_with_best_estimate(self, capsys, monkeypatch):
        args = (
            "expect", "--n", "200", "--u", "1.0",
            "--interval", "-inf,inf", "--rel-tol", "1e-12",
        )
        code, out, err = run(capsys, *args)
        assert code == 0
        assert float(out.split()[0]) == pytest.approx(0.8524472701, abs=1e-8)
        # A 30-panel budget cannot reach rel_tol=1e-12 on the full line.
        monkeypatch.setattr(counts, "_MAX_PANELS", 30)
        code, out, err = run(capsys, *args)
        assert code == 3
        assert "warning:" in err
        assert float(out.split()[0]) == pytest.approx(0.8524472701, abs=1e-8)

    def test_empty_interval_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "expect", "--n", "5", "--u", "inf", "--interval", "1,1"
        )
        assert code == 1
        assert "lo < hi" in err

    def test_malformed_interval_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "expect", "--n", "5", "--u", "inf", "--interval", "0.5"
        )
        assert code == 1

    def test_nonpositive_rel_tol_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "expect", "--n", "5", "--u", "inf",
            "--interval", "unit", "--rel-tol", "-1e-8",
        )
        assert code == 1

    def test_degenerate_model_exits_2(self, capsys):
        code, out, err = run(
            capsys, "expect", "--n", "2", "--u", "inf", "--interval", "unit"
        )
        assert code == 2
        assert "degenerate covariance" in err


class TestAsymptotic:
    def test_value_matches_library(self, capsys):
        code, out, err = run(
            capsys, "asymptotic", "--n", "100", "--u", "1.0", "--interval", "unit"
        )
        assert code == 0
        expansion = theorem_expansion(3, 100, 1.0)
        assert float(out.splitlines()[0]) == expansion.value
        assert err == ""

    def test_text_lists_the_terms(self, capsys):
        code, out, err = run(
            capsys, "asymptotic", "--n", "100", "--u", "1.0", "--interval", "unit"
        )
        assert code == 0
        assert out == (
            "0.22101920243834805\n"
            "  log term : 0.033571374222359951 (coefficient 0.00485995419156)\n"
            "  constant : 0.18781727400000001\n"
            "  u term   : -0.00036944578401191738 (coefficient -4.11439060485)\n"
            "  valid for u = O(n^(5/4)); remainder O(n^(-1/2))\n"
        )

    def test_bounds_matching_a_canonical_interval_accepted(self, capsys):
        code_a, out_a, _ = run(
            capsys, "asymptotic", "--n", "50", "--u", "0.5", "--interval", "pos-tail"
        )
        code_b, out_b, _ = run(
            capsys, "asymptotic", "--n", "50", "--u", "0.5", "--interval", "1,inf"
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_record_validates(self, capsys):
        code, out, err = run(
            capsys, "asymptotic", "--n", "200", "--u", "0.5",
            "--interval", "neg-unit", "--json",
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "run_record.schema.json")
        (result,) = record["results"]
        assert result["method"] == "expansion"
        assert result["value"] == theorem_expansion(4, 200, 0.5).value

    def test_non_canonical_interval_exits_1(self, capsys):
        code, out, err = run(
            capsys, "asymptotic", "--n", "100", "--u", "1.0", "--interval", "0.2,0.9"
        )
        assert code == 1
        assert "canonical intervals" in err

    def test_non_unit_sigma_exits_2(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("2.0\n" * 100, encoding="utf-8")
        code, out, err = run(
            capsys, "asymptotic", "--n", "100", "--u", "1.0",
            "--interval", "unit", "--sigma-file", str(sigma),
        )
        assert code == 2
        assert "unit increment deviations" in err

    def test_explicit_unit_sigma_file_accepted(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("1.0\n" * 100, encoding="utf-8")
        code, out, err = run(
            capsys, "asymptotic", "--n", "100", "--u", "1.0",
            "--interval", "unit", "--sigma-file", str(sigma),
        )
        assert code == 0
        expansion = theorem_expansion(3, 100, 1.0)
        assert float(out.splitlines()[0]) == expansion.value

    def test_level_beyond_validity_scale_warns_but_succeeds(self, capsys):
        code, out, err = run(
            capsys, "asymptotic", "--n", "16", "--u", "40", "--interval", "pos-tail"
        )
        assert code == 0
        assert "outside the validity scale" in err

    def test_nonpositive_level_exits_1(self, capsys):
        code, out, err = run(
            capsys, "asymptotic", "--n", "100", "--u", "-1", "--interval", "unit"
        )
        assert code == 1


class TestMonteCarlo:
    ARGS = (
        "montecarlo", "--n", "3", "--u", "0.5", "--interval", "-1,1",
        "--trials", "400", "--seed", "7", "--points-per-unit", "32",
    )

    def test_value_matches_library(self, capsys):
        code, out, err = run(capsys, *self.ARGS)
        assert code == 0
        config = MCConfig(trials=400, seed=7, points_per_unit=32)
        (estimate,) = estimate_many(PolynomialModel(3), -1.0, 1.0, [0.5], config)
        mean, plus_minus, stderr, detail = out.split(maxsplit=3)
        assert float(mean) == estimate.mean
        assert float(stderr) == pytest.approx(estimate.stderr, rel=1e-2)
        assert detail.strip() == "(trials=400, seed=7)"

    def test_repeated_runs_are_identical(self, capsys):
        _, out_a, _ = run(capsys, *self.ARGS)
        _, out_b, _ = run(capsys, *self.ARGS)
        assert out_a == out_b

    def test_json_record_validates(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--json")
        assert code == 0
        record = json.loads(out)
        validate(record, "run_record.schema.json")
        (result,) = record["results"]
        assert result["method"] == "monte-carlo"
        assert result["abs_error"] is None
        assert isinstance(result["stderr"], float)

    def test_minus_infinity_level_gives_zero(self, capsys):
        code, out, err = run(
            capsys, "montecarlo", "--n", "3", "--u", "-inf",
            "--interval", "unit", "--trials", "50", "--points-per-unit", "32",
        )
        assert code == 0
        assert float(out.split()[0]) == 0.0

    def test_zero_trials_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "montecarlo", "--n", "3", "--u", "0.5",
            "--interval", "unit", "--trials", "0",
        )
        assert code == 1

    def test_batch_size_is_not_an_option(self, capsys):
        # trials run in fixed blocks on one thread; there is no work-unit
        # size or worker count to set
        for option in (("--batch-size", "64"), ("--workers", "2")):
            code, out, err = run(capsys, *self.ARGS, *option)
            assert code == 1, option

    def test_points_per_unit_below_the_grid_minimum_is_usage_error(self, capsys):
        # the parser's minimum is the one MCConfig enforces
        code, out, err = run(capsys, *self.ARGS, "--points-per-unit", "4")
        assert code == 1
        assert "usage:" in err and "--points-per-unit: must be >= 8, got 4" in err


class TestVerifyConstants:
    def test_known_failures_exit_4(self, capsys):
        code, out, err = run(capsys, "verify-constants")
        assert code == 4
        assert out.count("FAIL") == 13
        assert out.strip().endswith("15 of 28 rows within tolerance")

    def test_loose_rel_tol_exits_0(self, capsys):
        code, out, err = run(capsys, "verify-constants", "--rel-tol", "1000")
        assert code == 0
        assert out.strip().endswith("28 of 28 rows within tolerance")

    def test_json_record_validates(self, capsys):
        code, out, err = run(capsys, "verify-constants", "--json")
        assert code == 4
        record = json.loads(out)
        validate(record, "verify_constants.schema.json")
        assert record["all_passed"] is False
        assert len(record["rows"]) == 28
        assert sum(row["passed"] for row in record["rows"]) == 15


class TestCompare:
    ARGS = (
        "compare", "--n-list", "3,5", "--u-list", "0.5,inf", "--interval", "unit",
        "--trials", "300", "--seed", "1", "--points-per-unit", "32",
    )

    def test_csv_layout_and_asymptotic_column(self, capsys):
        code, out, err = run(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,u,exact,exact_err,asymptotic,mc_mean,mc_stderr"
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["3", "3", "5", "5"]
        assert [row[1] for row in rows] == ["0.5", "inf", "0.5", "inf"]
        for row in rows:
            # asymptotic is filled only for finite positive levels
            if row[1] == "inf":
                assert row[4] == ""
            else:
                n = int(row[0])
                expansion = theorem_expansion(3, n, 0.5)
                assert float(row[4]) == expansion.value
            exact = expected_count(
                PolynomialModel(int(row[0])),
                CountQuery(0.0, 1.0, float(row[1])),
                rel_tol=1e-8,
            )
            assert float(row[2]) == exact.value

    def test_non_canonical_interval_leaves_asymptotic_empty(self, capsys):
        code, out, err = run(
            capsys, "compare", "--n-list", "3", "--u-list", "0.5",
            "--interval", "0.2,0.8", "--trials", "200", "--points-per-unit", "32",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[4] == ""

    def test_json_record_validates(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--json")
        assert code == 0
        record = json.loads(out)
        validate(record, "compare.schema.json")
        assert record["model"]["n"] == [3, 5]
        assert record["query"]["u"] == [0.5, "inf"]
        by_key = {(cell["n"], cell["u"]): cell for cell in record["cells"]}
        assert by_key[(3, "inf")]["asymptotic"] is None
        assert isinstance(by_key[(3, 0.5)]["asymptotic"], float)

    def test_negative_level_list_parses(self, capsys):
        code, out, err = run(
            capsys, "compare", "--n-list", "3", "--u-list", "-1,0",
            "--interval", "unit", "--trials", "100", "--points-per-unit", "32",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["-1.0", "0.0"]

    def test_empty_n_list_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "compare", "--n-list", "", "--u-list", "0.5",
            "--interval", "unit",
        )
        assert code == 1
        assert "must not be empty" in err

    def test_degree_below_three_is_degenerate(self, capsys):
        code, out, err = run(
            capsys, "compare", "--n-list", "2", "--u-list", "0.5",
            "--interval", "unit", "--trials", "100", "--points-per-unit", "32",
        )
        assert code == 2

    def test_tolerance_not_met_exits_3_with_best_estimate(self, capsys, monkeypatch):
        args = (
            "compare", "--n-list", "200", "--u-list", "1", "--interval", "-inf,inf",
            "--trials", "10", "--points-per-unit", "8", "--rel-tol", "1e-12",
        )
        code, converged, err = run(capsys, *args)
        assert code == 0
        assert err == ""
        # A 30-panel budget cannot reach rel_tol=1e-12 on the full line.
        monkeypatch.setattr(counts, "_MAX_PANELS", 30)
        code, out, err = run(capsys, *args)
        assert code == 3
        assert err.startswith("warning: n=200 u=1: quadrature budget exhausted")
        assert out.splitlines()[0] == converged.splitlines()[0]
        row, full = out.splitlines()[1].split(","), converged.splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(float(full[2]), abs=1e-8)
        assert row[5:] == full[5:]  # the simulation columns are unaffected


class TestSigmaFile:
    def test_values_feed_the_model(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("2.0\n0.5\n1.5\n1.0\n3.0\n", encoding="utf-8")
        code, out, err = run(
            capsys, "density", "--n", "5", "--u", "1.0", "--x", "0.5",
            "--sigma-file", str(sigma),
        )
        assert code == 0
        model = PolynomialModel(5, sigma=(2.0, 0.5, 1.5, 1.0, 3.0))
        assert float(out) == maxima_density(model, 0.5, 1.0)

    def test_json_records_the_path(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("1.0\n" * 5, encoding="utf-8")
        code, out, err = run(
            capsys, "density", "--n", "5", "--u", "1.0", "--x", "0.5",
            "--sigma-file", str(sigma), "--json",
        )
        assert code == 0
        record = json.loads(out)
        validate(record, "run_record.schema.json")
        assert record["model"]["sigma"] == str(sigma)

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "density", "--n", "5", "--u", "1.0", "--x", "0.5",
            "--sigma-file", str(tmp_path / "absent.txt"),
        )
        assert code == 1
        assert "error:" in err

    def test_wrong_length_is_an_invalid_model(self, capsys, tmp_path):
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("1.0\n1.0\n1.0\n", encoding="utf-8")
        code, out, err = run(
            capsys, "density", "--n", "5", "--u", "1.0", "--x", "0.5",
            "--sigma-file", str(sigma),
        )
        assert code == 2
        assert "sigma must have exactly 5 entries" in err
