"""Command-line interface: exit codes, report shape, determinism."""

import json
import math

import numpy as np
import pytest

from sasakigeo import subriemannian
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
        def no_pair_converged(model, pairs, cfg, threads=1):
            return subriemannian.DiameterReport(model.key, math.nan, None, [], True)

        monkeypatch.setattr(subriemannian, "estimate_diameter", no_pair_converged)
        code, out, _ = run(capsys, "diameter", "--model", "s3", "--pairs", "1")
        assert code == EXIT_BUDGET
        assert parse_json(out)["estimate"] is None

    def test_wrong_dimension_returns_one(self, capsys):
        code, _, err = run(
            capsys, "cc-distance", "--model", "heisenberg", "--from", "0,0",
            "--to", "1,0,0",
        )
        assert code == EXIT_USAGE
        assert "components" in err

    def test_bad_subcommand_returns_one(self, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_malformed_numeric_flag_returns_one(self, capsys, monkeypatch):
        assert main(["diameter", "--pairs", "many"]) == EXIT_USAGE

        def no_run(*args, **kwargs):
            raise AssertionError("a command ran on a non-finite flag")

        for name in ("cc_distance", "integrate_geodesic"):
            monkeypatch.setattr(subriemannian, name, no_run)
        heis = ["--model", "heisenberg", "--from", "0,0,0", "--to", "1,0,0"]
        cases = [
            (["geodesic", "--t-end", "inf"], "--t-end"),
            (["geodesic", "--t-end", "nan"], "--t-end"),
            (["geodesic", "--alpha0=-inf"], "--alpha0"),
            (["cc-distance", *heis, "--t-max", "inf"], "--t-max"),
            (["cc-distance", *heis, "--alpha0-max", "nan"], "--alpha0-max"),
            (["check-identities", "--tol", "nan"], "--tol"),
            (["dhomothety", "--mu", "inf"], "--mu"),
            (["functionals", "--amplitude", "nan"], "--amplitude"),
        ]
        for argv, flag in cases:
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert out == ""
            assert f"argument {flag}: non-finite value" in err, err

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
        assert main(args + ["--output", str(second), "--threads", "2"]) == EXIT_PASS
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
