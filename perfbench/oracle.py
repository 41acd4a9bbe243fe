"""Expected results, derived from the mathematics, and the grading of outputs.

A sweep operation is one check of a `finsler verify` report. It fails when
verify raised or wrote no report, when its verdict differs from the verdict
the mathematics predicts, or when a check expected to PASS carries a
non-finite residual. An eval operation is one `Sc` query; it fails when it
raised, when `Sc` is non-finite, or when `Sc` is off its analytic value.
"""

from __future__ import annotations

import json
import math

PASS, FAIL, REPORT_ONLY = "PASS", "FAIL", "REPORT-ONLY"

# The verdict the mathematics predicts for each check on the round sphere
# (sphere2: curvature 1, a Riemannian structure in a conformal chart), and why.
# Every registered check is an identity or a certified non-vanishing claim
# that holds on any admissible structure, so most are expected to PASS.
EXPECTED_SPHERE2 = {
    "struct.homogeneity": (PASS, "L is positively 1-homogeneous in y"),
    "struct.cartan_contraction": (PASS, "C_ijk is a third y-derivative of L^2/2"),
    "struct.spray_defect": (PASS, "G solves the geodesic equation by construction"),
    "struct.conservativity": (PASS, "the Barthel connection preserves E"),
    "struct.torsion": (PASS, "N^i_j = dy_j G^i has symmetric y-derivatives"),
    "struct.metricity": (PASS, "the Cartan connection is metric"),
    "struct.symmetry": (PASS, "the Cartan connection is torsion-free"),
    "struct.deflection": (PASS, "F^i_kj y^k = N^i_j holds for the Cartan connection"),
    "struct.projectors": (PASS, "h and v are complementary projectors"),
    "curv.contraction": (PASS, "R^i_hjk y^h = R^i_jk holds for every structure"),
    "curv.flatness": (FAIL, "the sphere has flag curvature 1, so R^i_hjk != 0"),
    "thm2.6": (PASS, "identity for every field X"),
    "thm2.8.flat": (REPORT_ONLY, "the flat-case theorem does not apply: R^i_jk != 0"),
    "thm2.8.curved": (PASS, "R != 0 and (y1)^2/2 has a non-closed gradient"),
    "dbar.sq": (PASS, "identity for every scalar f"),
    "eq2.12": (PASS, "identity for every scalar f"),
    "eq2.13": (PASS, "the sphere has constant flag curvature 1"),
    "eq2.14": (PASS, "identity for f = h(x) L^r; the anisotropic probe exceeds the floor"),
    "thm2.13.involutive": (PASS, "identity for every closed X"),
    "prop2.14.lie": (REPORT_ONLY, "hypothesis-conditional; the check never asserts"),
    "prop.randers": (PASS, "b = (0.2, 0) is constant, hence closed, so closedness "
                           "transfers between L and L + b_i y^i"),
    "thm2.16.conformal": (PASS, "identity for every sigma; nonconstant sigma breaks "
                                "closedness"),
    "jets.fd": (PASS, "jets are exact; central differences agree to their "
                      "truncation error"),
}
CHECK_IDS = tuple(sorted(EXPECTED_SPHERE2))
_EXPECTED = {"sphere2": EXPECTED_SPHERE2}


def expected_verdicts(metric: str) -> dict:
    """check id -> (verdict, reason) for a catalog metric this benchmark sweeps."""
    return _EXPECTED[metric]


def grade_report(metric: str, report_text, exit_code) -> dict:
    """Grade one verify report. `report_text` is None when verify raised or
    wrote nothing; that counts every expected check as failed."""
    expected = expected_verdicts(metric)
    attempted = len(expected)
    if not report_text:
        return {"attempted": attempted, "failed": attempted, "correct": False,
                "failures": ["verify produced no report"]}
    try:
        records = {r["id"]: r for r in json.loads(report_text)["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return {"attempted": attempted, "failed": attempted, "correct": False,
                "failures": [f"malformed report: {exc}"]}
    failures = []
    for cid, (verdict, _) in expected.items():
        rec = records.get(cid)
        if rec is None:
            failures.append(f"{cid}: missing from report")
        elif rec["verdict"] != verdict:
            failures.append(f"{cid}: verdict {rec['verdict']}, expected {verdict}")
        elif verdict == PASS and not math.isfinite(float(rec["max_residual"])):
            failures.append(f"{cid}: non-finite residual {rec['max_residual']}")
    any_fail = any(r.get("verdict") == FAIL for r in records.values())
    # verify exits 1 exactly when some check FAILs; anything else means the
    # report and the process disagree, so the output cannot be trusted
    correct = exit_code == (1 if any_fail else 0)
    return {"attempted": attempted, "failed": len(failures), "correct": correct,
            "failures": failures}


# Analytic scalar curvature Sc = g^jh Ric_jh. The round unit sphere has
# Sc = 2 in dimension two; a locally Minkowski structure (L independent of
# x) has G = N = F = 0 and so Sc = 0. The Randers and conformal entries have
# no closed form here and are checked for finiteness only.
ANALYTIC_SC = {
    "sphere2": 2.0,
    "euclidean2": 0.0,
    "euclidean3": 0.0,
    "minkowski_quartic2": 0.0,
    "minkowski_quartic3": 0.0,
    "randers_sphere2": None,
    "conformal_quartic2": None,
}
SC_TOL = 1e-7


def grade_scalar(metric: str, value) -> str | None:
    """None when an Sc query result is right, else the reason it failed."""
    if value is None:
        return "query raised"
    if not math.isfinite(value):
        return f"non-finite Sc {value!r}"
    want = ANALYTIC_SC[metric]
    if want is not None and abs(value - want) > SC_TOL:
        return f"Sc {value!r}, expected {want!r}"
    return None
