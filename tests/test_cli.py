"""Command line behaviour: exit codes, report shape, determinism."""

import json
import warnings

import pytest

from finslerkit.checks import check_ids
from finslerkit.cli import main


def run_verify(tmp_path, *extra, metric="euclidean2", checks="struct.symmetry"):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--metric",
            metric,
            "--checks",
            checks,
            "--points",
            "4",
            "--seed",
            "3",
            "--out",
            str(out),
            *extra,
        ]
    )
    return code, out


# conformal sphere2 with sigma = 1000: e^sigma overflows a float
HUGE_SIGMA = {"family": "conformal", "sigma": 1000.0,
              "base": {"family": "riemannian", "preset": "sphere2"}}


def spec_file(tmp_path, spec):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestVerify:
    def test_passing_run_exits_zero(self, tmp_path, capsys):
        code, out = run_verify(tmp_path, checks="struct.spray_defect,struct.symmetry")
        assert code == 0
        report = json.loads(out.read_text())
        ids = [c["id"] for c in report["checks"]]
        assert ids == sorted(ids)
        assert {c["verdict"] for c in report["checks"]} <= {"PASS", "REPORT-ONLY"}
        cfg = report["config"]
        assert cfg["metric"] == "euclidean2"
        assert cfg["points"] == 4
        assert cfg["seed"] == 3
        captured = capsys.readouterr()
        assert "PASS" in captured.err

    def test_all_checks_on_flat_metric(self, tmp_path):
        code, out = run_verify(tmp_path, checks="all")
        report = json.loads(out.read_text())
        assert len(report["checks"]) == len(check_ids())
        verdicts = {c["id"]: c["verdict"] for c in report["checks"]}
        assert verdicts["curv.flatness"] == "PASS"
        assert code == 0

    def test_curved_metric_fails_flatness(self, tmp_path):
        code, out = run_verify(tmp_path, metric="sphere2", checks="curv.flatness")
        assert code == 1
        report = json.loads(out.read_text())
        rec = report["checks"][0]
        assert rec["verdict"] == "FAIL"
        assert rec["witness"] is not None

    def test_report_only_does_not_fail_the_run(self, tmp_path):
        code, out = run_verify(
            tmp_path, metric="sphere2", checks="prop2.14.lie,struct.symmetry"
        )
        assert code == 0
        report = json.loads(out.read_text())
        verdicts = {c["id"]: c["verdict"] for c in report["checks"]}
        assert verdicts["prop2.14.lie"] == "REPORT-ONLY"

    def test_reports_are_byte_identical(self, tmp_path):
        code1, out1 = run_verify(tmp_path, checks="all")
        blob1 = out1.read_bytes()
        out1.unlink()
        code2, out2 = run_verify(tmp_path, checks="all")
        assert blob1 == out2.read_bytes()

    def test_metric_file_input(self, tmp_path):
        spec = {
            "family": "randers",
            "base": {"family": "riemannian", "preset": "sphere2"},
            "b": [0.1, 0.0],
        }
        mfile = tmp_path / "metric.json"
        mfile.write_text(json.dumps(spec))
        code, out = run_verify(
            tmp_path, metric=str(mfile), checks="struct.homogeneity,prop.randers"
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "randers" in report["config"]["metric_name"]

    def test_degenerate_probe_is_a_check_fail(self, tmp_path):
        spec = {
            "family": "conformal",
            "base": {"family": "euclidean", "dim": 2},
            "sigma": {"terms": [{"coef": 50, "powers": [2, 0]}]},
        }
        code, out = run_verify(tmp_path, metric=spec_file(tmp_path, spec), checks="all")
        assert code == 1
        report = json.loads(out.read_text())
        assert len(report["checks"]) == len(check_ids())
        rec = {c["id"]: c for c in report["checks"]}["thm2.13.involutive"]
        assert rec["verdict"] == "FAIL"
        assert rec["details"]["error"].startswith("DegenerateFieldError: ")
        assert "ChartPoint(" in rec["details"]["error"]

    def test_indefinite_metric_is_reported_not_raised(self, tmp_path):
        spec = {"family": "riemannian", "dim": 2, "a": [[1, 0], [0, -1]]}
        # some points of the sample leave the positivity cone, where L's square
        # root fails; every failing check names the point its batch failed at
        code, out = run_verify(tmp_path, "--points", "20", "--seed", "0",
                               metric=spec_file(tmp_path, spec), checks="all")
        assert code == 1
        report = json.loads(out.read_text())
        assert len(report["checks"]) == len(check_ids())
        errors = [c["details"]["error"] for c in report["checks"] if c["verdict"] == "FAIL"]
        assert errors and all("ChartPoint(" in error for error in errors), errors
        assert {error.split(":")[0] for error in errors} == {"NumericalError"}

    def test_float_overflow_is_a_check_fail(self, tmp_path, capsys):
        # e^1000 overflows a float: every check FAILs and the report is written.
        # Each error names the first point of the sample, jets.fd's too
        code, out = run_verify(tmp_path, "--points", "20", "--seed", "0",
                               metric=spec_file(tmp_path, HUGE_SIGMA), checks="all")
        assert code == 1
        report = json.loads(out.read_text())
        assert [c["id"] for c in report["checks"]] == check_ids()
        first = ("ChartPoint(x=(0.32870804957149025, -0.5525118869667113), "
                 "y=(1.6972870697854454, 0.27801267231818655))")
        for rec in report["checks"]:
            assert rec["verdict"] == "FAIL"
            assert rec["details"]["error"] == f"OverflowError: math range error at {first}"
        assert "Traceback" not in capsys.readouterr().err

    def test_numpy_overflow_is_a_check_fail(self, tmp_path):
        # e^(400 x^1) is finite, but L^2 overflows in the jet products: under
        # warnings as errors, numpy's overflow is each check's FAIL, naming
        # the point whose L^2 overflows, and the report is written
        spec = {"family": "conformal",
                "sigma": {"terms": [{"coef": 400, "powers": [1, 0]}]},
                "base": {"family": "riemannian", "preset": "sphere2"}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_verify(tmp_path, "--points", "20", "--seed", "0",
                                   metric=spec_file(tmp_path, spec), checks="all")
        assert code == 1
        report = json.loads(out.read_text())
        assert [c["id"] for c in report["checks"]] == check_ids()
        assert all(c["verdict"] == "FAIL" for c in report["checks"])
        at = ("ChartPoint(x=(0.990613385466532, 0.25592586184123167), "
              "y=(1.5271611855478908, -1.1347679647956048))")
        errors = {c["id"]: c["details"].get("error") for c in report["checks"]}
        assert errors.pop("jets.fd") is None  # a residual FAIL, no error
        eq214 = errors.pop("eq2.14")  # its probe's float power overflows first
        assert eq214.startswith("OverflowError: ") and eq214.endswith(f" at {at}")
        assert set(errors.values()) == {
            f"FloatingPointError: overflow encountered in multiply at {at}"}


class TestUsageErrors:
    def test_unknown_metric(self, tmp_path):
        code, _ = run_verify(tmp_path, metric="banana2")
        assert code == 2

    def test_unknown_check_id(self, tmp_path):
        code, _ = run_verify(tmp_path, checks="struct.nonsense")
        assert code == 2

    def test_tolerance_must_be_below_floor(self, tmp_path):
        code, _ = run_verify(tmp_path, "--tol", "1e-2", "--floor", "1e-3")
        assert code == 2

    def test_dimension_below_two_is_rejected(self, tmp_path, capsys):
        spec = {"family": "euclidean", "dim": 1}
        code, _ = run_verify(tmp_path, metric=spec_file(tmp_path, spec))
        assert code == 2
        assert "dimension must be at least 2, got 1" in capsys.readouterr().err

    def test_points_must_be_positive(self, tmp_path):
        code, _ = run_verify(tmp_path, "--points", "0")
        assert code == 2

    def test_bad_point_syntax_for_eval(self):
        code = main(
            ["eval", "--metric", "euclidean2", "--at", "x=0.1", "--object", "g"]
        )
        assert code == 2


class TestListChecks:
    def test_every_registered_check_is_listed(self, capsys):
        assert main(["list-checks"]) == 0
        text = capsys.readouterr().out
        for check_id in check_ids():
            assert check_id in text


class TestEval:
    def test_metric_tensor_print(self, capsys):
        code = main(
            [
                "eval",
                "--metric",
                "euclidean2",
                "--at",
                "x=0.0,0.0;y=1.0,0.0",
                "--object",
                "g",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "g =" in text

    def test_scalar_curvature_of_the_sphere(self, capsys):
        code = main(
            [
                "eval",
                "--metric",
                "sphere2",
                "--at",
                "x=0.25,-0.4;y=0.8,0.5",
                "--object",
                "Sc",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        value = float(text.strip().splitlines()[-1])
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_float_overflow_is_an_error_exit(self, tmp_path, capsys):
        code = main(["eval", "--metric", spec_file(tmp_path, HUGE_SIGMA),
                     "--at", "x=0.1,0.2;y=1.0,0.5", "--object", "Sc"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: math range error at ChartPoint(x=(0.1, 0.2), y=(1.0, 0.5))\n")
