"""Tests of the benchmark itself: grading, span reduction, inputs and output.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import spans
import worker
import workloads
from conftest import BENCH, ROOT


def _report(metric, verdicts=None, residual="0"):
    verdicts = dict(verdicts or {})
    checks = [{"id": cid, "verdict": verdicts.get(cid, v), "max_residual": residual}
              for cid, (v, _) in oracle.expected_verdicts(metric).items()]
    return json.dumps({"checks": checks})


def _exit_code(report_text):
    return int(any(c["verdict"] == oracle.FAIL for c in json.loads(report_text)["checks"]))


def test_expected_report_has_no_failures():
    text = _report("sphere2")
    grade = oracle.grade_report("sphere2", text, _exit_code(text))
    assert grade == {"attempted": 23, "failed": 0, "correct": True, "failures": []}


@pytest.mark.parametrize("check_id, verdict", [
    ("prop.randers", oracle.FAIL),
    ("thm2.6", oracle.FAIL),
    ("curv.flatness", oracle.PASS),
    ("prop2.14.lie", oracle.PASS),
])
def test_flipped_verdict_counts_as_failure(check_id, verdict):
    text = _report("sphere2", {check_id: verdict})
    grade = oracle.grade_report("sphere2", text, _exit_code(text))
    assert grade["failed"] == 1
    assert grade["correct"]
    assert check_id in grade["failures"][0]


def test_nonfinite_residual_on_expected_pass_fails():
    text = _report("sphere2", residual="inf")
    grade = oracle.grade_report("sphere2", text, 1)
    # curv.flatness FAILs and two checks are REPORT-ONLY, so their residual is free
    assert grade["failed"] == 20


def test_exit_code_inconsistent_with_report_is_not_correct():
    assert not oracle.grade_report("sphere2", _report("sphere2"), 0)["correct"]


def test_raising_verify_counts_every_check_as_failed(tmp_path):
    class RaisingCli:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    res = worker._run_sweep(RaisingCli, workloads.Sweep("sphere2", 5), 0, str(tmp_path))
    assert (res["attempted"], res["failed"]) == (23, 23)
    assert not res["correct"] and not res["completed"]
    assert any("RuntimeError: boom" in f for f in res["failures"])


def test_raising_rep_is_not_timed_as_a_fast_run():
    spec = workloads.Sweep("sphere2", 1000)
    reps = [{"completed": True, "run_s": 10.0, "peak_rss_mb": 90.0},
            {"completed": False, "run_s": 0.01, "peak_rss_mb": 40.0},
            {"completed": True, "run_s": 12.0, "peak_rss_mb": 92.0}]
    values = run.end_to_end(spec, reps, [0.2, 0.3, 0.25])
    assert values["run_s"] == 11.0
    assert values["points_per_s"] == pytest.approx(2000 / 22.0)
    assert values["setup_s"] == 0.25
    assert values["peak_rss_mb"] == 90.0


def test_scalar_grading():
    assert oracle.grade_scalar("sphere2", 2.0 + 5e-8) is None
    assert oracle.grade_scalar("sphere2", 2.0 + 2e-7) is not None
    assert oracle.grade_scalar("euclidean3", float("nan")) is not None
    assert oracle.grade_scalar("randers_sphere2", 1.37) is None
    assert oracle.grade_scalar("euclidean2", None) == "query raised"


def test_self_time_is_duration_minus_children():
    ticks = iter([0, 10, 30, 40, 45, 100])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "outer")()
    names, nid, parent, start, end = tracer.arrays()
    dur = end - start
    assert [names[i] for i in nid] == ["outer", "inner", "inner"]
    assert parent.tolist() == [-1, 0, 0]
    assert dur.tolist() == [100, 20, 5]
    assert spans.self_times(parent, dur).tolist() == [75, 20, 5]


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def fail():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap(fail, "fail")()
    tracer.wrap(lambda: None, "after")()
    assert tracer.parent.tolist() == [-1, -1]
    assert tracer.stack == [-1]


def test_different_seeds_give_different_points():
    from finslerkit.structures import by_name

    spec = workloads.TowerStream(("sphere2", "euclidean3"), 4)
    points = {seed: [p for _, _, p in workloads.tower_queries(by_name, spec, seed)]
              for seed in (0, 1)}
    assert points[0] == [p for _, _, p in workloads.tower_queries(by_name, spec, 0)]
    assert not set(points[0]) & set(points[1])
    assert len(set(points[0])) == spec.points
    sweep = by_name("sphere2")
    assert sweep.sample(5, 0) != sweep.sample(5, 1)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_tables_match_benchmark_json():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layer_names = set(spans.layer_metrics(spans.Tracer(), oracle.CHECK_IDS))
    assert layer_names | {"trace.overhead_s"} == set(workloads.PER_LAYER)


def _run_benchmark(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "eval_tower", "--seed", "3",
           "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run_benchmark("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2100
    expected = {m["name"]: m["unit"] for m in _benchmark()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


_TRACED_VERIFY = """
import contextlib, io, sys
sys.path[:0] = [{src!r}, {bench!r}]
from finslerkit import cli, frame
import oracle, spans

def verify(path):
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["verify", "--metric", "sphere2", "--points", "3", "--out", path])
    with open(path) as fh:
        return fh.read()

plain = verify({a!r})
frame.point_frame.cache_clear()
tracer = spans.Tracer()
spans.instrument(tracer)
traced = verify({b!r})
m = spans.layer_metrics(tracer, oracle.CHECK_IDS)
print(plain == traced, m["frame.frames_built"], m["checks.thm2.6.s"] > 0,
      m["picalc.calls"] > 0, m["jets.mul.calls"] > 0, m["cli.report.s"] > 0)
"""


def test_traced_report_is_byte_identical(tmp_path):
    code = _TRACED_VERIFY.format(src=os.path.join(ROOT, "src"), bench=BENCH,
                                 a=str(tmp_path / "a.json"), b=str(tmp_path / "b.json"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    # 3 points: base, scaled, Randers star and two conformal tildes per point
    assert proc.stdout.split() == ["True", "15", "True", "True", "True", "True"]
