"""Behaviour of lowered forms under Randers drift and conformal rescaling."""

import re

import numpy as np
import pytest

from finslerkit import picalc as pc
from finslerkit.checks import FAIL, PASS, REPORT_ONLY, run_checks
from finslerkit.errors import NumericalError
from finslerkit.fields import ComponentField, constant_field, covector_jets
from finslerkit.frame import PointFrame, point_frame
from finslerkit.jets import sqrt
from finslerkit.structures import (
    by_name,
    conformal_change,
    euclidean,
    minkowski_quartic,
    randers_change,
    sphere2,
    structure_from_spec,
)

from conftest import CATALOG_NAMES

ALL_NAMES = CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"]

B = (0.2, 0.0)


def drift_transfer(fr, frs):
    """The drift transfer of the Randers change `frs.structure` of fr's structure."""
    return pc.drift_closedness_transfer(fr, frs, covector_jets(fr, frs.structure.meta["b_fn"]))


class TestDriftTransfer:
    def test_flat_base_identity_and_literal_gap(self):
        e = euclidean(2)
        star = randers_change(e, lambda x: B)
        pts = e.sample(5, seed=113)
        literal_worst = 0.0
        for p in pts:
            rep = drift_transfer(point_frame(e, p), point_frame(star, p))
            assert rep.identity_residual < 1e-12
            assert rep.dual_path_residual < 1e-10
            assert abs(rep.ell_pairing) < 1e-12
            assert abs(rep.star_ell_pairing) < 1e-12
            assert rep.base_defect < 1e-10
            assert rep.star_defect < 1e-10
            literal_worst = max(literal_worst, rep.literal_residual)
        # naive transcription of the form identity fails even on flat ground
        assert literal_worst > 1e-4

    def test_curved_base_identity_and_matching_verdicts(self):
        s = sphere2()
        star = by_name("randers_sphere2")
        base_seen = 0.0
        star_seen = 0.0
        for p in s.sample(5, seed=113):
            rep = drift_transfer(point_frame(s, p), point_frame(star, p))
            assert rep.identity_residual < 1e-10 * rep.base_form_scale
            assert rep.dual_path_residual < 1e-9 * rep.base_form_scale
            base_seen = max(base_seen, rep.base_defect)
            star_seen = max(star_seen, rep.star_defect)
        # the shared form is non-closed for both derivatives here
        assert base_seen > 1e-3
        assert star_seen > 1e-3

    def test_drift_companion_is_vertical_to_ell(self):
        s = sphere2()
        star = randers_change(s, lambda x: B)
        for p in s.sample(3, seed=127):
            rep = drift_transfer(point_frame(s, p), point_frame(star, p))
            assert abs(rep.ell_pairing) < 1e-11
            assert abs(rep.star_ell_pairing) < 1e-11


class TestDriftPrecondition:
    """db from the drift's order-1 jets: exact, one value per frame point."""

    @staticmethod
    def _frame():
        e = euclidean(2)
        return PointFrame(e, tuple(e.sample(30, seed=131)))

    def test_constant_covector_is_closed(self):
        defect = pc.drift_precondition_defect(covector_jets(self._frame(), lambda x: B))
        assert defect.shape == (30,) and np.all(defect == 0.0)

    def test_gradient_covector_is_closed(self):
        b_fn = lambda x: (0.1 * x[1], 0.1 * x[0])  # the gradient of 0.1 x1 x2
        defect = pc.drift_precondition_defect(covector_jets(self._frame(), b_fn))
        assert defect.shape == (30,) and np.all(defect == 0.0)

    def test_shear_covector_is_detected(self):
        defect = pc.drift_precondition_defect(covector_jets(self._frame(),
                                                              lambda x: (0.2 * x[1], 0.0)))
        assert defect.shape == (30,) and np.all(defect == 0.2)

    @pytest.mark.parametrize("b_fn,first", [
        (lambda x: (float("nan") * x[0], 0.0), lambda p: True),
        (lambda x: (sqrt(x[0]), 0.3 * x[0]), lambda p: p.x[0] <= 0.0),
    ], ids=["nan", "sqrt-domain"])
    def test_a_bad_covector_names_its_first_point(self, b_fn, first):
        fr = self._frame()
        at = next(p for p in fr.point if first(p))
        with pytest.raises(NumericalError, match=re.escape(f" at {at}")):
            pc.drift_precondition_defect(covector_jets(fr, b_fn))


def _spec_result(spec, points, seed):
    (res,) = run_checks(structure_from_spec(spec), ["prop.randers"], points, seed, 1e-7, 1e-3)
    return res


# a closed drift b = d(0.1 x1 x2) over sphere2, and the shear b = (0.2 x2, 0),
# which is not closed, over euclidean2
GRADIENT_DRIFT = {"family": "randers", "base": {"family": "riemannian", "preset": "sphere2"},
                  "b": [{"terms": [{"coef": 0.1, "powers": [0, 1]}]},
                        {"terms": [{"coef": 0.1, "powers": [1, 0]}]}]}
SHEAR_DRIFT = {"family": "randers", "base": {"family": "euclidean", "dim": 2},
               "b": [{"terms": [{"coef": 0.2, "powers": [0, 1]}]}, 0]}


class TestRandersVerdict:
    """prop.randers gives one verdict for the whole sample: the shared form is
    closed for both structures at every point, or not closed for both."""

    @pytest.mark.parametrize("points", [20, 200])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_catalog_metric_passes_on_every_seed(self, name, points):
        for seed in range(10):
            (res,) = run_checks(by_name(name), ["prop.randers"], points, seed, 1e-7, 1e-3)
            assert res.verdict == PASS, (seed, res)
            assert res.details["verdict_agreement"] == "yes"
            assert res.details["precondition_db"] == 0.0

    def test_a_closed_gradient_drift_passes(self):
        res = _spec_result(GRADIENT_DRIFT, 200, 0)
        assert res.verdict == PASS and res.details["precondition_db"] == 0.0
        # the shared form is not closed, and both structures say so
        assert res.details["base_closedness_max"] > 1e-3
        assert res.details["star_closedness_max"] > 1e-3

    def test_a_shear_drift_is_not_applicable(self):
        res = _spec_result(SHEAR_DRIFT, 200, 0)
        assert res.verdict == REPORT_ONLY
        assert res.details == {"note": "not applicable: drift is not closed",
                               "precondition_db": 0.2}

    def test_defects_between_tol_and_floor_fail_at_the_largest(self):
        # at floor 1e3 the non-closed form of sphere2 stays below the floor on
        # both structures: neither outcome holds, and the FAIL witnesses the
        # first point of the largest defect
        s = by_name("sphere2")
        (res,) = run_checks(s, ["prop.randers"], 20, 0, 1e-7, 1e3)
        assert res.verdict == FAIL and res.details["verdict_agreement"] == "no"
        largest = max(res.details["base_closedness_max"], res.details["star_closedness_max"])
        assert res.witness["value"] == largest


class TestConformalTransfer:
    def test_constant_rescale_is_pure_scaling(self):
        s = sphere2()
        X = ComponentField(lambda x, y: [1.0 + 0.3 * y[1], x[0]], name="probe")
        tilde = conformal_change(s, lambda x: 0.25)
        for p in s.sample(4, seed=137):
            fr = point_frame(s, p)
            frt = point_frame(tilde, p)
            rep = pc.conformal_closedness_transfer(fr, (frt,), X.jets(fr))[0]
            assert rep.scaling_residual < 1e-10 * rep.scale
            assert rep.leibniz_residual < 1e-10 * rep.scale
            sigma = frt.structure.meta["sigma_fn"]
            assert fr.field_jet(lambda x, y: sigma(x), 1).value == 0.25

    def test_linear_sigma_on_flat_base_frozen_value(self):
        e = euclidean(2)
        X = constant_field([0.0, 1.0])
        tilde = conformal_change(e, lambda x: x[0])
        for p in e.sample(3, seed=137):
            fr = point_frame(e, p)
            frt = point_frame(tilde, p)
            rep = pc.conformal_closedness_transfer(fr, (frt,), X.jets(fr))[0]
            assert rep.leibniz_residual < 1e-10 * rep.scale
            # base form is closed, so the wedge term is the whole derivative
            assert rep.tilde_base_defect < 1e-10
            assert rep.prediction_residual < 1e-10 * rep.scale
            expected = 2.0 * np.exp(2.0 * p.x[0])
            actual = pc.dbar_p(frt, frt.flat_jets(X.jets(fr)))  # dbar~ i_X g~
            assert actual[0, 0, 1] == pytest.approx(expected, rel=1e-11)
            assert rep.actual_defect == np.abs(actual).max()
            assert rep.actual_defect > 1e-3

    def test_leibniz_shape_on_quartic_base(self):
        q = minkowski_quartic(2)
        X = ComponentField(lambda x, y: [y[0], 0.5 - x[1]], name="probe")
        tilde = conformal_change(q, lambda x: 0.3 * x[0])
        actual_seen = 0.0
        for p in q.sample(4, seed=139):
            fr = point_frame(q, p)
            rep = pc.conformal_closedness_transfer(fr, (point_frame(tilde, p),), X.jets(fr))[0]
            assert rep.leibniz_residual < 1e-9 * rep.scale
            actual_seen = max(actual_seen, rep.actual_defect)
        assert actual_seen > 1e-3

    def test_catalog_conformal_structure_round_trip(self):
        q = minkowski_quartic(2)
        tilde = by_name("conformal_quartic2")
        X = constant_field([0.7, -0.2])
        p = tilde.sample(1, seed=149)[0]
        fr = point_frame(q, p)
        rep = pc.conformal_closedness_transfer(fr, (point_frame(tilde, p),), X.jets(fr))[0]
        assert rep.leibniz_residual < 1e-9 * rep.scale
