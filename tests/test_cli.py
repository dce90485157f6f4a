"""Command-line interface: exit codes, report shape, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from sasakigeo import core, subriemannian
from sasakigeo.cli import EXIT_BUDGET, EXIT_INVARIANT, EXIT_PASS, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_json(text):
    payload = json.loads(text)
    assert payload["schema"] == 1
    return payload


class TestExitCodes:
    def test_passing_check_returns_zero(self, capsys):
        code, out, _ = run(capsys, "check-identities", "--model", "s3", "--points", "50")
        payload = parse_json(out)
        assert code == EXIT_PASS
        assert payload["passed"] is True
        assert len(payload["identities"]) >= 6

    def test_failed_invariant_returns_two(self, capsys):
        # an absurd tolerance turns finite residuals into failures
        code, out, _ = run(
            capsys,
            "check-identities", "--model", "s3", "--points", "50", "--tol", "1e-30",
        )
        assert code == EXIT_INVARIANT
        assert parse_json(out)["passed"] is False

    def test_budget_exhaustion_returns_three(self, capsys):
        # the target is farther than the allowed search horizon
        code, out, _ = run(
            capsys,
            "cc-distance", "--model", "heisenberg",
            "--from", "0,0,0", "--to", "3,0,0", "--t-max", "1.0",
        )
        payload = parse_json(out)
        assert code == EXIT_BUDGET
        assert payload["status"] == "budget-exhausted"
        assert payload["distance"] is None

    def test_unknown_model_returns_one(self, capsys):
        code, _, err = run(capsys, "check-identities", "--model", "s9")
        assert code == EXIT_USAGE
        assert "unknown model key" in err

    def test_malformed_vector_returns_one(self, capsys):
        code, _, err = run(
            capsys, "cc-distance", "--model", "heisenberg", "--from", "0,zz,0",
            "--to", "1,0,0",
        )
        assert code == EXIT_USAGE
        assert "malformed" in err

    def test_non_finite_vector_returns_one(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("search ran on a non-finite endpoint")

        monkeypatch.setattr(subriemannian, "cc_distance", no_search)
        code, out, err = run(
            capsys, "cc-distance", "--model", "heisenberg", "--from", "nan,0,0",
            "--to", "1,0,0",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "non-finite" in err

    def test_non_finite_mu_returns_one(self, capsys):
        code, out, err = run(capsys, "dhomothety", "--model", "s3", "--mu", "nan")
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err
        code, out, err = run(capsys, "check-identities", "--model", "s3-dhom:nan")
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    def test_non_finite_alpha0_returns_one(self, capsys):
        code, out, err = run(capsys, "geodesic", "--model", "s3", "--alpha0", "nan")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--alpha0" in err and "non-finite" in err

    def test_nan_in_report_returns_one(self, capsys, monkeypatch):
        # a NaN reaching the emitter is an error, never a report with NaN
        def nan_miss(*args, **kwargs):
            return subriemannian.ShootingResult(
                "budget-exhausted", None, None, math.nan, None, False, 4.0, True, 0
            )

        monkeypatch.setattr(subriemannian, "cc_distance", nan_miss)
        code, out, err = run(
            capsys, "cc-distance", "--model", "heisenberg", "--from", "0,0,0",
            "--to", "1,0,0",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "JSON" in err

    def test_diameter_without_converged_pair_reports_null(self, capsys, monkeypatch):
        def no_pair_converged(model, pairs, cfg):
            return subriemannian.DiameterReport(model.key, math.nan, None, [], True)

        monkeypatch.setattr(subriemannian, "estimate_diameter", no_pair_converged)
        code, out, _ = run(capsys, "diameter", "--model", "s3", "--pairs", "1")
        assert code == EXIT_BUDGET
        assert parse_json(out)["estimate"] is None

    def test_vector_with_leading_minus_is_a_value(self, capsys):
        # "--to -1,0,0,0" used to fail with "argument --to: expected one
        # argument"; only "--to=-1,0,0,0" worked
        reports = []
        for to in (["--to", "-1,0,0,0"], ["--to=-1,0,0,0"]):
            code, out, _ = run(capsys, "cc-distance", "--from", "1,0,0,0", *to)
            assert code == EXIT_PASS
            payload = parse_json(out)
            payload.pop("timestamp")
            reports.append(payload)
        assert reports[0] == reports[1]
        assert abs(reports[0]["distance"] - math.pi) < 1e-12
        code, out, _ = run(capsys, "cc-distance", "--from", "-1,0,0,0", "--to", "1,0,0,0")
        assert code == EXIT_PASS
        assert abs(parse_json(out)["distance"] - math.pi) < 1e-12
        code, out, _ = run(
            capsys, "geodesic", "--point", "0,0,-1,0", "--direction", "-1,0,0,0", "--t-end", "1"
        )
        assert code == EXIT_PASS
        assert parse_json(out)["equation_residual"] < 1e-6

    def test_unknown_flag_still_returns_one(self, capsys):
        base = ["cc-distance", "--from", "1,0,0,0", "--to", "-1,0,0,0"]
        code, out, err = run(capsys, *base, "--bogus")
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --bogus" in err
        code, out, err = run(capsys, "cc-distance", "--from", "1,0,0,0", "--to", "-x")
        assert code == EXIT_USAGE
        assert "argument --to: expected one argument" in err

    def test_overflowing_separation_returns_one(self, capsys):
        # used to print overflow warnings and exit 1 on an inf in the JSON
        for to in ("1e300,0,0", "1e154,0,0"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, out, err = run(
                    capsys, "cc-distance", "--model", "heisenberg", "--from", "0,0,0", "--to", to
                )
            assert code == EXIT_USAGE, to
            assert out == ""
            assert "endpoints too far apart: the search's squared distances overflow" in err, err
            assert "Traceback" not in err

    def test_wrong_dimension_returns_one(self, capsys):
        code, _, err = run(
            capsys, "cc-distance", "--model", "heisenberg", "--from", "0,0",
            "--to", "1,0,0",
        )
        assert code == EXIT_USAGE
        assert "components" in err

    def test_bad_subcommand_returns_one(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE
        # the pairs run serially: `diameter` has no `--threads` flag
        code, out, err = run(capsys, "diameter", "--threads", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --threads 2" in err

    def test_malformed_numeric_flag_returns_one(self, capsys, monkeypatch):
        assert main(["diameter", "--pairs", "many"]) == EXIT_USAGE

        def no_run(*args, **kwargs):
            raise AssertionError("a command ran on a non-finite flag")

        for name in ("cc_distance", "integrate_geodesic", "estimate_diameter"):
            monkeypatch.setattr(subriemannian, name, no_run)
        monkeypatch.setattr(core, "verify_structure", no_run)
        heis = ["--model", "heisenberg", "--from", "0,0,0", "--to", "1,0,0"]
        nonfinite = "non-finite value"
        negative = "horizon must be positive"
        # finite, but more steps than an array can index: int() of the step
        # count used to overflow with a traceback
        huge = "horizon '1e308' is too large"
        nonpositive = "non-positive value"
        count = "non-positive count"
        cases = [
            (["geodesic", "--t-end", "inf"], "--t-end", nonfinite),
            (["geodesic", "--t-end", "nan"], "--t-end", nonfinite),
            (["geodesic", "--t-end", "-1"], "--t-end", negative),
            (["geodesic", "--t-end", "0"], "--t-end", negative),
            (["geodesic", "--t-end", "1e308"], "--t-end", huge),
            (["geodesic", "--alpha0=-inf"], "--alpha0", nonfinite),
            (["cc-distance", *heis, "--t-max", "inf"], "--t-max", nonfinite),
            (["cc-distance", *heis, "--t-max", "-1"], "--t-max", negative),
            (["cc-distance", *heis, "--t-max", "1e308"], "--t-max", huge),
            (["cc-distance", *heis, "--alpha0-max", "nan"], "--alpha0-max", nonfinite),
            (["cc-distance", *heis, "--alpha0-max", "-1"], "--alpha0-max", nonpositive),
            (["cc-distance", *heis, "--alpha0-max", "0"], "--alpha0-max", nonpositive),
            (["check-identities", "--tol", "nan"], "--tol", nonfinite),
            (["check-identities", "--tol", "-1"], "--tol", nonpositive),
            (["check-identities", "--tol", "0"], "--tol", nonpositive),
            (["dhomothety", "--mu", "inf"], "--mu", nonfinite),
            (["dhomothety", "--mu", "-1"], "--mu", nonpositive),
            (["dhomothety", "--mu", "0"], "--mu", nonpositive),
            (["functionals", "--amplitude", "nan"], "--amplitude", nonfinite),
            (["myers-verify", "--pairs", "0"], "--pairs", count),
            (["myers-verify", "--pairs", "-1"], "--pairs", count),
            (["diameter", "--pairs", "0"], "--pairs", count),
            (["geodesic", "--steps", "0"], "--steps", count),
            (["geodesic", "--steps", "5"], "--steps", "need at least 16 steps"),
            (["geodesic", "--steps", "15"], "--steps", "need at least 16 steps"),
            (["check-identities", "--points", "-3"], "--points", count),
            (["check-identities", "--points", "two"], "--points", "invalid int value"),
            (["functionals", "--nodes", "-4"], "--nodes", count),
            (["functionals", "--nodes", "3"], "--nodes", "need at least 16 nodes"),
            (["functionals", "--nodes", "8"], "--nodes", "need at least 16 nodes"),
            (["functionals", "--nodes", "15"], "--nodes", "need at least 16 nodes"),
            (["functionals", "--grid", "64x128x2"], "--grid", "expected <n_theta>x<n_phi>"),
            (["functionals", "--grid", "64"], "--grid", "expected <n_theta>x<n_phi>"),
            (["functionals", "--grid", "ax128"], "--grid", "expected <n_theta>x<n_phi>"),
        ]
        for argv, flag, what in cases:
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert out == ""
            assert f"argument {flag}: {what}" in err, err

    def test_step_below_the_floor_returns_one(self, capsys):
        # tiny horizons used to exit 2 on a round-off residual, or 1 on a NaN
        # report after an overflow warning
        floor = f"below the floor {subriemannian.MIN_STEP:g}"
        for argv in (["--t-end", "1e-10"], ["--t-end", "1e-200"], ["--t-end", "1", "--steps", "3000000000"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, "geodesic", *argv)
            assert code == EXIT_USAGE, argv
            assert out == ""
            assert floor in err, err
        code, out, _ = run(capsys, "geodesic", "--t-end", "1e-8")
        assert code == EXIT_PASS
        assert parse_json(out)["equation_residual"] < 1e-6

    def test_out_of_range_size_returns_one(self, capsys):
        # all used to escape as a traceback or a numpy message
        ratio = "deformation ratio must be a finite positive number in [1e-4, 1e4]"
        cases = [
            (["functionals", "--lmax", "-1"], "need lmax >= 0"),
            # a well-formed grid that S2Grid rejects keeps S2Grid's message
            (["functionals", "--grid", "0x128"], "need lmax >= 0 and n_theta, n_phi >= 1"),
            (["functionals", "--grid", "16x128"], "need n_theta > lmax for exact analysis"),
            (["dhomothety", "--mu", "2", "--samples", "0"], "samples must be at least 1"),
            (["dhomothety", "--mu", "1e-300"], ratio),
            (["dhomothety", "--mu", "1e20"], ratio),
            (["check-identities", "--model", "s3-dhom:1e300"], ratio),
        ]
        for argv, what in cases:
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert out == ""
            assert f"sasakigeo: error: {what}" in err, err
            assert "Traceback" not in err

    def test_non_finite_values_csv_returns_one(self, capsys, tmp_path):
        values = np.zeros((64, 128))
        values[3, 5] = np.nan
        csv = tmp_path / "values.csv"
        np.savetxt(csv, values, delimiter=",")
        code, out, err = run(capsys, "functionals", "--values-csv", str(csv))
        assert code == EXIT_USAGE
        assert out == ""
        assert "non-finite" in err, err

    def test_unwritable_output_returns_one(self, capsys):
        code, _, err = run(
            capsys,
            "check-identities", "--model", "s3", "--points", "20",
            "--output", "/nonexistent-dir/report.json",
        )
        assert code == EXIT_USAGE


class TestReports:
    def test_distance_oracle_through_cli(self, capsys):
        code, out, _ = run(
            capsys,
            "cc-distance", "--model", "heisenberg", "--from", "0,0,0", "--to", "1,0,0",
        )
        payload = parse_json(out)
        assert code == EXIT_PASS
        assert abs(payload["distance"] - 1.0) < 1e-3

    def test_geodesic_csv_columns(self, capsys, tmp_path):
        csv = tmp_path / "path.csv"
        code, out, _ = run(
            capsys,
            "geodesic", "--model", "s3", "--alpha0", "0.4",
            "--t-end", "1.0", "--steps", "1000", "--csv", str(csv),
        )
        assert code == EXIT_PASS
        header = csv.read_text().splitlines()[0]
        assert header == "t,x0,x1,x2,x3,v0,v1,v2,v3,alpha0,H"
        table = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert table.shape == (1001, 11)
        payload = parse_json(out)
        assert payload["invariants"]["h_drift"] < 1e-8

    def test_diameter_within_bound(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--model", "s3", "--pairs", "2", "--seed", "7",
        )
        payload = parse_json(out)
        assert code == EXIT_PASS
        assert payload["within_bound"] is True
        assert payload["estimate"] <= payload["bound"] * 1.01

    def test_dhomothety_report(self, capsys):
        code, out, _ = run(
            capsys, "dhomothety", "--model", "s3", "--mu", "2.0",
            "--samples", "2000",
        )
        payload = parse_json(out)
        assert code == EXIT_PASS
        assert abs(payload["volume"]["measured_ratio"] - 0.25) < 1e-2
        assert payload["ricci_bound"]["passed"] is True

    def test_functionals_report(self, capsys):
        code, out, _ = run(capsys, "functionals", "--l", "2", "--m", "1")
        payload = parse_json(out)
        assert code == EXIT_PASS
        assert payload["calibration"]["constant"] == 0.5
        assert payload["diagnostics"]["path_independence_residual"] < 1e-6

    def test_functionals_reject_higher_dimension(self, capsys):
        code, _, err = run(capsys, "functionals", "--model", "s5")
        assert code == EXIT_USAGE


class TestDeterminism:
    def strip_timestamp(self, payload):
        copy = dict(payload)
        copy.pop("timestamp")
        return copy

    def test_identical_seeds_identical_payloads(self, capsys, tmp_path):
        args = ["diameter", "--model", "s3", "--pairs", "2", "--seed", "7"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--output", str(first)]) == EXIT_PASS
        assert main(args + ["--output", str(second)]) == EXIT_PASS
        a = self.strip_timestamp(json.loads(first.read_text()))
        b = self.strip_timestamp(json.loads(second.read_text()))
        assert a == b

    def test_different_seeds_differ(self, capsys, tmp_path):
        out1 = tmp_path / "s0.json"
        out2 = tmp_path / "s1.json"
        main(["check-identities", "--points", "40", "--seed", "0", "--output", str(out1)])
        main(["check-identities", "--points", "40", "--seed", "1", "--output", str(out2)])
        a = self.strip_timestamp(json.loads(out1.read_text()))
        b = self.strip_timestamp(json.loads(out2.read_text()))
        assert a != b
