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
    ("conformal_quartic2", 20): "ac20a7ea6c44d7d9924a46877c51cdf3d86106572f489df00b5a50c75e25f51d",
    ("euclidean2", 20): "cf6f800fd38859582b8fde25a32a15bdcb9668f0596b60e8e1b1e11a930ac2a2",
    ("euclidean3", 20): "6d86e68ab58c420b8ec2b83a15e786a87945fb7a9a6b21a56595378cbbb3bcfd",
    ("minkowski_quartic2", 20): "53cd3e50d39b42ef5d199fc228fefffece63d3570f6a3c54161e3ebf3e4a9b9c",
    ("minkowski_quartic3", 20): "9dfaafaec9036f13e0fd5d3683b488f5069d2e067edf7db9fad069c20c81d3d1",
    ("randers_sphere2", 20): "4175dbf06d0e2bdd47d1377e8987ff0d0af4bfc91d070ceaaaf5efd6c682b1d1",
    ("sphere2", 20): "5423bb361d44235141fffafdab585baaaa0a9564c8f496a41f5b939399c78e9e",
    ("euclidean3", 200): "588fdd60f793da31045e66195a36e3da71ae0b266f9322de60ba20e7bacfb8d0",
    ("sphere2", 200): "51667556dfdfb9e1edb50266dd65b72437a66cbaa4e1473c1335b681da74ed99",
    ("sphere2", 1000): "7b8da834aa83b916aa6a1e039335e58400d6a7e0d5520581957833b472c41b8b",
}

# an indefinite form: every point of the sample fails, some at L (NumericalError)
# and some at g (SingularMetricError); a batch meets L's error first, so every
# failing check reports it, naming the first point outside the positivity cone
INDEFINITE = {"family": "riemannian", "dim": 2, "a": [[1, 0], [0, -1]]}
INDEFINITE_SHA256 = "e45d65703e1de537196088ad0ba3eb3ebe69bad6b268fdf86dc9857c45e7dffc"

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
    0: "d1fa24c2a7629cf35c3e0cf634864c97f15dd649f0a58d3b2a94db766eb9f0e1",
    30: "fcd8751fcb52ebc32ae4687da314936f378de3c381daf3f0c1f587d50dfbb320",
}

# --floor 1e3 (20 points, seed 0): no negative control clears the floor, so
# eq2.14 and thm2.16.conformal turn their identity PASS into a FAIL,
# thm2.8.curved reads the curved sample as flat (REPORT-ONLY), and prop.randers
# FAILs, since its non-closed form stays below the floor on both structures
FLOOR_1E3_SHA256 = {
    "sphere2": "271df1e9699f1b6cfd480c521779dbca11e5417f4218fca9ce634a467f5c1064",
    "conformal_quartic2": "c7b6fab1396e4c7b78a8a72319fd1e81f9c1bf2e4c550bbb3bd7932f666c3f13",
}

LIST_CHECKS_SHA256 = "51e996201e4fc1ef8b1b26bf8884bbe3d616c618805daa907812fe7c97510277"


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
