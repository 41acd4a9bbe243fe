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
    ("conformal_quartic2", 20): "9b33d301d246e482f8bb6c58387dfb7dbea62ef816fe5eebcab51a98c70dbe6e",
    ("euclidean2", 20): "b22100739fc09bee2932eea48567a44b310af9bac4bb7e4874afc0118d330f4f",
    ("euclidean3", 20): "e2b21f1ce297f32446cfbe5c55fa500afe02f29a86ae0ea05705195e00615209",
    ("minkowski_quartic2", 20): "7e61539785a0b6b8bc4b73bf9b728a93c27d2bff7166680ea626e3f801f7b431",
    ("minkowski_quartic3", 20): "8948158ce6b88a3e409b3b360fc5c612f4e0163e8c4303537ff37ff6efad22a9",
    ("randers_sphere2", 20): "d277241563d2ea2338d1216e5a4f7a5ebd46f05bc504529b4d6318fca64db956",
    ("sphere2", 20): "d10fbe17d649aceab0ff90da9a7d27314e9a24ef9b21a5648131ec689754064b",
    ("euclidean3", 200): "e832417dfd3d8c10603d754c8890166231a1395e410666d42c08cf26e11e727a",
    ("sphere2", 200): "1e209769b978dd7ed4206f838fefd85dbee18bf0f715d997b23380a3232ff6d2",
    ("sphere2", 1000): "ca7e9dfdf669e3e3ef992a3dbba4c066b134d6345dae22bb61529f5016ddd0ac",
}

# an indefinite form: every point of the sample fails, some at L (NumericalError)
# and some at g (SingularMetricError); a batch meets L's error first, so every
# failing check reports it, naming the first point outside the positivity cone
INDEFINITE = {"family": "riemannian", "dim": 2, "a": [[1, 0], [0, -1]]}
INDEFINITE_SHA256 = "b0dddae35d1247b1f95e82d2a81f4f95f0d54eee8048caa81f5c003e38a599d1"

# g is indefinite only near the origin, where a_11 = |x|^2 - 0.1 < 0: the first
# failing point of these samples comes late (index 15 at seed 0, 12 at seed 30),
# so each error names that point; prop2.14.lie reduces the whole sample like
# every other check, so it FAILs with that error too, and so do
# struct.cartan_contraction (C3 reads the guarded g_jets) and thm2.16.conformal
# (it lowers its probe on the sample frame before either tilde)
LATE = {"family": "riemannian", "dim": 2,
        "a": [[1, 0], [0, {"terms": [{"coef": 1, "powers": [2, 0]},
                                     {"coef": 1, "powers": [0, 2]},
                                     {"coef": -0.1, "powers": [0, 0]}]}]]}
LATE_SHA256 = {
    0: "1648670d5dca41894d88bb7e8e8088195d0e58bac596e454c6d0f626e569eb95",
    30: "d852247f4898584b1e73089c3be2e9783e32766f36585c7f82dce5685d5d808b",
}

# --floor 1e3 (20 points, seed 0): no negative control clears the floor, so
# eq2.14 and thm2.16.conformal turn their identity PASS into a FAIL,
# thm2.8.curved reads the curved sample as flat (REPORT-ONLY), and prop.randers
# FAILs, since its non-closed form stays below the floor on both structures
FLOOR_1E3_SHA256 = {
    "sphere2": "2bef0826129ee7d53e2c7859a6878868911f73941f5634f4840bc391fd2e763c",
    "conformal_quartic2": "9274d345681a01115de057efa612b700f729ea277e01dabe69931e969af7b6de",
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
