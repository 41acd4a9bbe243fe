"""Command line behaviour: exit codes, report shape, determinism."""

import hashlib
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


SPHERE = {"family": "riemannian", "preset": "sphere2"}
# one field of the wrong type, left out, or not read by its family, in each spec
MALFORMED = {
    "a": ("a", {"family": "riemannian", "dim": 2, "a": 5}),
    # L reads the upper triangle alone, so a lower-triangular table would lose a[1][0]
    "a-lower": ("a", {"family": "riemannian", "dim": 2, "a": [[1, 0], [0.5, 1]]}),
    "b": ("b", {"family": "randers", "b": 3, "base": SPHERE}),
    "powers": ("powers", {"family": "conformal", "base": SPHERE,
                          "sigma": {"terms": [{"coef": 1.0, "powers": 5}]}}),
    "dim": ("dim", {"family": "riemannian", "dim": [2], "a": [[1, 0], [0, 1]]}),
    "b-missing": ("b", {"family": "randers", "base": SPHERE}),
    "dim-missing": ("dim", {"family": "euclidean"}),
    "preset": ("preset", {"family": "riemannian", "preset": "sphere3", "dim": 2,
                          "a": [[1, 0], [0, 1]]}),
    # a key the family does not read
    "preset-euclidean": ("preset", {"family": "euclidean", "dim": 2, "preset": "sphere2"}),
    "preset-dim": ("dim", {"family": "riemannian", "preset": "sphere2", "dim": 3, "a": 5}),
    "sigam": ("sigam", {"family": "conformal", "base": SPHERE, "sigma": 0.3, "sigam": 0.3}),
    "name": ("name", {"family": "riemannian", "dim": 2, "a": [[1, 0], [0, 1]], "name": ["x"]}),
    "term-key": ("coef2", {"family": "conformal", "base": SPHERE, "sigma": {
        "terms": [{"coef": 0.3, "powers": [1, 0], "coef2": 1.0}]}}),
    "poly-key": ("term", {"family": "randers", "base": SPHERE, "b": [
        0.1, {"terms": [], "term": {"coef": 0.1, "powers": [0, 1]}}]}),
}
# one field left out of each spec: the error names it
MISSING = {
    "dim": {"family": "euclidean"},
    "a": {"family": "riemannian", "dim": 2},
    "b": {"family": "randers", "base": SPHERE},
    "base": {"family": "randers", "b": [0.1, 0.0]},
    "sigma": {"family": "conformal", "base": SPHERE},
    "terms": {"family": "conformal", "sigma": {"coef": 1.0}, "base": SPHERE},
    "coef": {"family": "conformal", "base": SPHERE, "sigma": {"terms": [{"powers": [1, 0]}]}},
    "powers": {"family": "conformal", "base": SPHERE, "sigma": {"terms": [{"coef": 1.0}]}},
}
# an integer field holding a fractional number, a string or a bool: each is
# rejected, not truncated or converted
NOT_INTEGER = {
    "dim=2.7": ("dim", {"family": "riemannian", "dim": 2.7, "a": [[1, 0], [0, 1]]}),
    "dim='2'": ("dim", {"family": "riemannian", "dim": "2", "a": [[1, 0], [0, 1]]}),
    "dim=true": ("dim", {"family": "euclidean", "dim": True}),
    "dim=3.5": ("dim", {"family": "minkowski_quartic", "dim": 3.5}),
    "powers=1.5": ("powers", {"family": "conformal", "base": SPHERE,
                              "sigma": {"terms": [{"coef": 1.0, "powers": [1.5, 0]}]}}),
    "powers='1'": ("powers", {"family": "conformal", "base": SPHERE,
                              "sigma": {"terms": [{"coef": 1.0, "powers": ["1", 0]}]}}),
}
# a number field holding a string or a bool: each is rejected, not converted
NOT_A_NUMBER = {
    "coef='0.5'": ("coef", {"family": "conformal", "base": SPHERE,
                            "sigma": {"terms": [{"coef": "0.5", "powers": [1, 0]}]}}),
    "a=true": ("a", {"family": "riemannian", "dim": 2, "a": [[True, 0], [0, 1]]}),
    "b=false": ("b", {"family": "randers", "b": [False, 0.1], "base": SPHERE}),
    "sigma='1'": ("sigma", {"family": "conformal", "sigma": "1", "base": SPHERE}),
}


# sha256 of the standard output of `finsler eval` for every --object at one
# point of three metrics (numpy 2.4.6): the readout of a frame's point 0 must
# print the bytes the values printed before the frame had a point axis
EVAL_AT = {"sphere2": "x=0.25,-0.4;y=0.8,0.5", "randers_sphere2": "x=0.25,-0.4;y=0.8,0.5",
           "minkowski_quartic3": "x=0.1,-0.2,0.3;y=0.9,0.4,-0.6"}
EVAL_SHA256 = {
    ("sphere2", "g"):
        "86bd893a184ccec920602a8386d103bb19f8224455e45e62d65e71468b767b63",
    ("sphere2", "C"):
        "8f0049a0a9c0238110c05fa19f2c722a5087470567238309264298f97ada7679",
    ("sphere2", "G"):
        "72fcf4ebc24743b9c64504c95de89b827e6edc9b63ed0f51a4d352b1a7f1b9b5",
    ("sphere2", "N"):
        "eb35cd4a5040df1e33b8fd83f9de53f4f6f431726bf44e653f419dbf31538dee",
    ("sphere2", "F"):
        "dca46de83e02df91592d59b8b6397b8e110b1fffd2df20cdb2db41fc693d198e",
    ("sphere2", "R"):
        "da642ee96dce6529d6645b6babbaa07446324d5e72b40a22eaee5366d5f5ffe1",
    ("sphere2", "Ric"):
        "7bb137f729bc5fa0e8bf0b0ac3eeaa75159e252c1f46a4a338238fea49f8778f",
    ("sphere2", "Sc"):
        "9dd2de251a4ac3a5096e014d2673252a9a72842aa0b38a6101d6e8cb49c78d85",
    ("randers_sphere2", "g"):
        "139f5ee50b94c850928ffddbbffdb3eb181a45232f5efd795c944390f9b55c8a",
    ("randers_sphere2", "C"):
        "d9418c17e5971f65357540aa5a1e4c2d084d06763bb3d1e99c3c6a1aec00fac2",
    ("randers_sphere2", "G"):
        "eed16349f0b17df593d3c794a097a2354e0fe1de0bf4539d76538e932fcca544",
    ("randers_sphere2", "N"):
        "d427ce13048db113fdecb10d6aca108bc9d456b06f838b75b8a5b978193c862e",
    ("randers_sphere2", "F"):
        "023ab8f01a2e1f397387f2f78d65eb5345051cbeec51feef598ba8d492394516",
    ("randers_sphere2", "R"):
        "158fa71a761eaaa9af45f9803623fc07e9940b81efb1b34ef154846b357074ff",
    ("randers_sphere2", "Ric"):
        "8d2742491eaaffd55fddf2a95fb38da6bf853ccee9b338acff4431e9ab8f489c",
    ("randers_sphere2", "Sc"):
        "be9c6a52a3e7c521521008e395b95cfbef2bfb7b06d0b0f5e341aa019559e27f",
    ("minkowski_quartic3", "g"):
        "d5b5f07b9f97406433341307d0e7cf6b1106eadb49b1bf6c1492634a038987c3",
    ("minkowski_quartic3", "C"):
        "14919dd05fd6d0b0e63fa2bffa2750fd92c41fc1a0eee517249fe78eca0e5ff6",
    ("minkowski_quartic3", "G"):
        "5b92427b0a946f6e54274ce5d9f9d0cb26885d7103e6c1c5d8accfa09e94b660",
    ("minkowski_quartic3", "N"):
        "854a45f7921d3692d51253346a682e539afd520e65d680f60de3acf117c68af0",
    ("minkowski_quartic3", "F"):
        "2b32d8e78afb4a137908052711fea13c18b462b3ac71e5561262c692b5777490",
    ("minkowski_quartic3", "R"):
        "b16703a116a9c4d07df224a4a3ccad3d6b0bb32e5ab198f3244b250583c399c4",
    ("minkowski_quartic3", "Ric"):
        "0d67e6d4b8d8cdd6f78c377f9c7629d57a20af94deb785d6938ad705625b25c9",
    ("minkowski_quartic3", "Sc"):
        "1acce6635f4fb3e97b806fa781ddba551a3c25e93d5e44ccb529ad04e6713bc1",
}


def spec_file(tmp_path, spec):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _run_spec(tmp_path, capsys, command, spec):
    """(exit code, captured output) of `verify` or of `eval --object g` on a
    metric spec."""
    path = spec_file(tmp_path, spec)
    if command == "verify":
        code, _ = run_verify(tmp_path, metric=path)
    else:
        code = main(["eval", "--metric", path, "--at", "x=0.1,0.2;y=1.0,0.5", "--object", "g"])
    return code, capsys.readouterr()


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

    def test_a_repeated_check_id_is_reported_once(self, tmp_path):
        code, out = run_verify(tmp_path, checks="struct.symmetry, thm2.6,struct.symmetry")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["checks"] == ["struct.symmetry", "thm2.6"]
        assert [c["id"] for c in report["checks"]] == ["struct.symmetry", "thm2.6"]

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


    def test_an_underflowed_lagrangian_is_the_first_failing_point(self, tmp_path):
        # e^(800 x^1) underflows to 0 at point 0 (x^1 = -0.994) and overflows
        # at a later point (x^1 = 1.095), where the stacked evaluation of L
        # raises; the point-by-point pass finds point 0 outside the cone first
        spec = {"family": "conformal",
                "sigma": {"terms": [{"coef": 800, "powers": [1, 0]}]},
                "base": {"family": "riemannian", "preset": "sphere2"}}
        code, out = run_verify(tmp_path, "--points", "200", "--seed", "3",
                               metric=spec_file(tmp_path, spec), checks="all")
        assert code == 1
        report = json.loads(out.read_text())
        first = ("ChartPoint(x=(-0.9944419988553015, -0.6316547841693607), "
                 "y=(0.3802031486641992, -0.5163080301612353))")
        late = ("ChartPoint(x=(1.0950414116066363, -0.5179172070029004), "
                "y=(-0.22696709811076618, 0.9112405241890745))")
        errors = {c["id"]: c["details"].get("error") for c in report["checks"]}
        assert errors.pop("jets.fd") is None  # its three points all evaluate
        # its probe h(x) L^2 is evaluated before L's jet, and the probe's
        # point-by-point pass meets the overflow; L = 0 is no error of the probe
        assert errors.pop("eq2.14") == f"OverflowError: math range error at {late}"
        assert set(errors.values()) == {
            f"DomainError: Lagrangian is 0 <= 0 at {first}; "
            "point lies outside the positivity cone"}


class TestUsageErrors:
    def test_unknown_metric(self, tmp_path):
        code, _ = run_verify(tmp_path, metric="banana2")
        assert code == 2

    def test_unknown_check_id(self, tmp_path):
        code, _ = run_verify(tmp_path, checks="struct.nonsense")
        assert code == 2

    @pytest.mark.parametrize("checks", [",", " ", " , "])
    def test_a_check_list_naming_no_id(self, tmp_path, capsys, checks):
        # an empty report would read as an all-clear
        code, out = run_verify(tmp_path, checks=checks)
        assert code == 2
        assert capsys.readouterr().err == "error: --checks names no check id\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("at", ["x=0.1,,0.2;y=1.0,0.5", "x=0.1,0.2,;y=1.0,0.5"])
    def test_an_empty_point_component_is_rejected(self, capsys, at):
        # an empty component must not be dropped, leaving x = (0.1, 0.2)
        code = main(["eval", "--metric", "sphere2", "--at", at, "--object", "Sc"])
        assert code == 2
        assert capsys.readouterr().err == "error: --at gives an empty component of 'x'\n"

    @pytest.mark.parametrize("at, key", [("x=nan,0.2;y=1.0,0.5", "x"),
                                         ("x=1e400,0.2;y=1.0,0.5", "x"),
                                         ("x=0.1,0.2;y=1.0,-inf", "y")])
    def test_a_non_finite_point_component_is_rejected(self, capsys, at, key):
        # a coordinate that is not a finite number is a malformed point, not
        # a failed evaluation (exit 1)
        code = main(["eval", "--metric", "sphere2", "--at", at, "--object", "Sc"])
        assert code == 2
        assert capsys.readouterr().err == f"error: --at gives a non-finite component of {key!r}\n"

    def test_a_repeated_point_key_is_rejected(self, capsys):
        # the last of a repeated key must not silently win
        code = main(["eval", "--metric", "sphere2", "--at", "x=0.1,0.2;x=0.3,0.4;y=1.0,0.5",
                     "--object", "Sc"])
        assert code == 2
        assert capsys.readouterr().err == "error: --at gives 'x' twice\n"

    @pytest.mark.parametrize("command", ["verify", "eval"])
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_spec_is_a_configuration_error(self, tmp_path, capsys, command, case):
        # a field of the wrong type, a missing field or a field the family
        # does not read is a configuration error naming the field, not a
        # traceback, and not the exit code of a failed check
        field, spec = MALFORMED[case]
        code, out = _run_spec(tmp_path, capsys, command, spec)
        assert code == 2
        assert out.err.startswith(f"error: metric field {field!r} ")
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("command", ["verify", "eval"])
    @pytest.mark.parametrize("field", sorted(MISSING))
    def test_a_missing_field_is_named(self, tmp_path, capsys, command, field):
        code, out = _run_spec(tmp_path, capsys, command, MISSING[field])
        assert code == 2
        assert out.err == f"error: metric field {field!r} is missing\n"

    @pytest.mark.parametrize("command", ["verify", "eval"])
    @pytest.mark.parametrize("case", sorted(NOT_INTEGER))
    def test_a_non_integer_in_an_integer_field_is_rejected(self, tmp_path, capsys, command,
                                                           case):
        field, spec = NOT_INTEGER[case]
        code, out = _run_spec(tmp_path, capsys, command, spec)
        assert code == 2
        assert out.err.startswith(f"error: metric field {field!r} must hold integers")
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("command", ["verify", "eval"])
    @pytest.mark.parametrize("case", sorted(NOT_A_NUMBER))
    def test_a_non_number_in_a_number_field_is_rejected(self, tmp_path, capsys, command,
                                                        case):
        field, spec = NOT_A_NUMBER[case]
        code, out = _run_spec(tmp_path, capsys, command, spec)
        assert code == 2
        assert out.err.startswith(f"error: metric field {field!r} must hold numbers")
        assert "Traceback" not in out.err

    def test_whole_floats_read_as_integers(self, tmp_path, capsys):
        printed = []
        # and an int in a number field (a coef, a constant entry) reads as its float
        for dim, power, one in ((2, 1, 1), (2.0, 1.0, 1.0)):
            terms = [{"coef": 0.3, "powers": [power, 0]}, {"coef": one, "powers": [0, 0]}]
            spec = {"family": "conformal", "sigma": {"terms": terms},
                    "base": {"family": "riemannian", "dim": dim, "a": [[one, 0], [0, one]]}}
            code, out = _run_spec(tmp_path, capsys, "eval", spec)
            assert code == 0
            printed.append(out.out)
        assert printed[0] == printed[1] and "g =" in printed[0]


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

    @pytest.mark.parametrize("metric, obj", list(EVAL_SHA256), ids="-".join)
    def test_eval_prints_the_pinned_bytes(self, capsys, metric, obj):
        assert main(["eval", "--metric", metric, "--at", EVAL_AT[metric], "--object", obj]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == EVAL_SHA256[metric, obj], out

    def test_float_overflow_is_an_error_exit(self, tmp_path, capsys):
        code = main(["eval", "--metric", spec_file(tmp_path, HUGE_SIGMA),
                     "--at", "x=0.1,0.2;y=1.0,0.5", "--object", "Sc"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: math range error at ChartPoint(x=(0.1, 0.2), y=(1.0, 0.5))\n")
