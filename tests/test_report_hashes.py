"""Pinned sha256 of `finsler verify` reports and of `finsler list-checks`.

Every residual of a report is printed to 17 significant digits, so a hash
pins each residual to the last bit, and also each verdict, each witness and
each error message. A change that moves any of them changes a hash here;
such a change must say which value moved and why.

The hashes were taken with Python 3.11.7 and numpy 2.4.6. Another numpy may
round a BLAS product or an einsum differently in the last bit, and then
these tests fail without any change to finslerkit.
"""

import hashlib
import json

import pytest

from finslerkit.checks import FAIL, REPORT_ONLY, check_ids, run_checks
from finslerkit.cli import main
from finslerkit.structures import by_name

REPORTS = {
    ("conformal_quartic2", 20): "46b09f40ff2e50e1d4b9be2492bfbbd0b9422d94df494c6cc2eaaf6e23c2156e",
    ("euclidean2", 20): "377c97e9e5b18b9a633cd1861dfa0e5b3a82db2f51d5686e3c46a16182d283f8",
    ("euclidean3", 20): "33604b837f3a00056704ab248f40cc7ec4a85b504d02234b3d6e43e53621845c",
    ("minkowski_quartic2", 20): "a6491e508ba5377ebcdb355fbbfb1515300dfa8074c64a76713c8570f938a7fe",
    ("minkowski_quartic3", 20): "86996c0c738bf9110f81babde84d1e91c6f6ef646243d7df2dfcd21c2344a1e7",
    ("randers_sphere2", 20): "933201e15c92f532375d32c34df24e57ca4b66da782d0254c4e26a40f53baf59",
    ("sphere2", 20): "ad0042ebcd042394c9529c8002159d944041ba58464da88f3fefe5eb98b4d3ee",
    ("euclidean3", 200): "e832417dfd3d8c10603d754c8890166231a1395e410666d42c08cf26e11e727a",
    ("sphere2", 200): "cfd2c9084d2f39c94c74e43e914eb1d7e677e0b47fe78078d79010c858ac7330",
    ("sphere2", 1000): "ef9d38f6c39b1bbcd6ad47d842cb1a23aa68e452679b7bd4b611ff4f4309da10",
}

# an indefinite form: every point of the sample fails, some at L (NumericalError)
# and some at g (SingularMetricError); a batch meets L's error first, so every
# failing check reports it, naming the first point outside the positivity cone
INDEFINITE = {"family": "riemannian", "dim": 2, "a": [[1, 0], [0, -1]]}
INDEFINITE_SHA256 = "b0dddae35d1247b1f95e82d2a81f4f95f0d54eee8048caa81f5c003e38a599d1"

# g is indefinite only near the origin, where a_11 = |x|^2 - 0.1 < 0: the first
# failing point of these samples comes late (index 15 at seed 0, 12 at seed 30),
# so each error names that point, and prop2.14.lie, which reads the first half
# of the sample only, still reports
LATE = {"family": "riemannian", "dim": 2,
        "a": [[1, 0], [0, {"terms": [{"coef": 1, "powers": [2, 0]},
                                     {"coef": 1, "powers": [0, 2]},
                                     {"coef": -0.1, "powers": [0, 0]}]}]]}
LATE_SHA256 = {
    0: "a75d3dad6636b9fc341b6533460144e0817e9c967c7754664e203a72a86ff684",
    30: "868dce659cec0b19caff79991e674b0d465674a94870c9ce09fe202168be71d4",
}

# --floor 1e3 (20 points, seed 0): no negative control clears the floor, so
# eq2.14 and thm2.16.conformal turn their identity PASS into a FAIL, and
# thm2.8.curved reads the curved sample as flat (REPORT-ONLY)
FLOOR_1E3_SHA256 = {
    "sphere2": "d378e6d0725aba69d65e3f3e6d6a03b0df2b2c7b56eb8510c3ee0f33aed24810",
    "conformal_quartic2": "3c7c195267de30e5c9986196896f5def5553edb1b13df7b4bc5eafda89c89072",
}

LIST_CHECKS_SHA256 = "b43d4a60a46758d38e1f3137e438b9eaa99a3f20439b2027cc525529a25e73a5"


def _verify_sha256(tmp_path, metric, points, seed=0, floor="1e-3"):
    out = tmp_path / "report.json"
    main(["verify", "--metric", metric, "--checks", "all", "--points", str(points),
          "--seed", str(seed), "--floor", floor, "--out", str(out)])
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("metric,points", sorted(REPORTS))
def test_verify_report_hash(tmp_path, metric, points):
    assert _verify_sha256(tmp_path, metric, points) == REPORTS[metric, points]


def test_indefinite_report_hash(tmp_path, monkeypatch):
    # the report records the --metric argument, so the spec path is part of it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "indef.json").write_text(json.dumps(INDEFINITE))
    assert _verify_sha256(tmp_path, "indef.json", 20) == INDEFINITE_SHA256


@pytest.mark.parametrize("seed", sorted(LATE_SHA256))
def test_late_failure_report_hash(tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "late.json").write_text(json.dumps(LATE))
    assert _verify_sha256(tmp_path, "late.json", 20, seed) == LATE_SHA256[seed]


@pytest.mark.parametrize("metric", sorted(FLOOR_1E3_SHA256))
def test_floor_1e3_report_hash(tmp_path, metric):
    assert _verify_sha256(tmp_path, metric, 20, floor="1e3") == FLOOR_1E3_SHA256[metric]


def test_negative_controls_fail_below_a_high_floor():
    results = {r.check_id: r for r in
               run_checks(by_name("sphere2"), check_ids(), 20, 0, 1e-7, 1e3)}
    aniso, conformal, curved = (results[c] for c in
                                ("eq2.14", "thm2.16.conformal", "thm2.8.curved"))
    assert aniso.verdict == FAIL and aniso.witness is not None
    assert aniso.details["note"] == "negative control failed to exceed floor"
    assert conformal.verdict == FAIL and conformal.witness is not None
    assert conformal.details["note"] == "nonconstant sigma produced no breakage witness"
    assert curved.verdict == REPORT_ONLY and curved.threshold == 1e3


def test_list_checks_hash(capsys):
    main(["list-checks"])
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == LIST_CHECKS_SHA256
