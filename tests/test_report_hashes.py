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
    ("conformal_quartic2", 20): "bde91091df40c5d6c482f2368e39c4e0112ff8868ea21a13703ce89c3bedcaa7",
    ("euclidean2", 20): "b22100739fc09bee2932eea48567a44b310af9bac4bb7e4874afc0118d330f4f",
    ("euclidean3", 20): "e2b21f1ce297f32446cfbe5c55fa500afe02f29a86ae0ea05705195e00615209",
    ("minkowski_quartic2", 20): "7e61539785a0b6b8bc4b73bf9b728a93c27d2bff7166680ea626e3f801f7b431",
    ("minkowski_quartic3", 20): "8948158ce6b88a3e409b3b360fc5c612f4e0163e8c4303537ff37ff6efad22a9",
    ("randers_sphere2", 20): "255761631f37b50decb3c18319b9d4bcd9b6b0845bffb929ead0d7d0306f438a",
    ("sphere2", 20): "db2ad6f344b0084d1709bbd7b42ae6b91720ce40d96b4d5817da785d3160f3be",
    ("euclidean3", 200): "e832417dfd3d8c10603d754c8890166231a1395e410666d42c08cf26e11e727a",
    ("sphere2", 200): "723ec179962390877737980875a8ce59168544dfedd81ae8f024e75ea3bff41a",
    ("sphere2", 1000): "6d2aeee756d862626b40bfd58e886e5d75b8c85e73ecbb2a2b80ca1b6b015078",
}

# an indefinite form: every point of the sample fails, some at L (NumericalError)
# and some at g (SingularMetricError); a batch meets L's error first, so every
# failing check reports it, naming the first point outside the positivity cone
INDEFINITE = {"family": "riemannian", "dim": 2, "a": [[1, 0], [0, -1]]}
INDEFINITE_SHA256 = "b0dddae35d1247b1f95e82d2a81f4f95f0d54eee8048caa81f5c003e38a599d1"

# g is indefinite only near the origin, where a_11 = |x|^2 - 0.1 < 0: the first
# failing point of these samples comes late (index 15 at seed 0, 12 at seed 30),
# so each error names that point; prop2.14.lie reduces the whole sample like
# every other check, so it FAILs with that error too
LATE = {"family": "riemannian", "dim": 2,
        "a": [[1, 0], [0, {"terms": [{"coef": 1, "powers": [2, 0]},
                                     {"coef": 1, "powers": [0, 2]},
                                     {"coef": -0.1, "powers": [0, 0]}]}]]}
LATE_SHA256 = {
    0: "336c0b4f70e1737b7195de43ec96b6adb8fcd2f018bd7000376fd76ef8533ff1",
    30: "dac7fb30618868540e1999c8b0e8b154173f705e1997cbc1a965a4dd7c4b1b70",
}

# --floor 1e3 (20 points, seed 0): no negative control clears the floor, so
# eq2.14 and thm2.16.conformal turn their identity PASS into a FAIL, and
# thm2.8.curved reads the curved sample as flat (REPORT-ONLY)
FLOOR_1E3_SHA256 = {
    "sphere2": "8702aa1fb15414af1e797de66453bf1857d19cc5bb4b87cab2f3f0e541b550e1",
    "conformal_quartic2": "c4e86121140f31e45c00a0b307d98d47c8f7f5222423c7fdac3426708c0667c9",
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
