"""Behaviour of lowered forms under Randers drift and conformal rescaling."""

import math

import numpy as np
import pytest

from finslerkit import picalc as pc
from finslerkit.fields import ComponentField, constant_field
from finslerkit.frame import point_frame
from finslerkit.structures import (
    by_name,
    conformal_change,
    euclidean,
    minkowski_quartic,
    randers_change,
    sphere2,
)

B = (0.2, 0.0)


class TestDriftTransfer:
    def test_flat_base_identity_and_literal_gap(self):
        e = euclidean(2)
        star = randers_change(e, B)
        pts = e.sample(5, seed=113)
        literal_worst = 0.0
        for p in pts:
            rep = pc.drift_closedness_transfer(point_frame(e, p), point_frame(star, p))
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
            rep = pc.drift_closedness_transfer(point_frame(s, p), point_frame(star, p))
            assert rep.identity_residual < 1e-10 * rep.base_form_scale
            assert rep.dual_path_residual < 1e-9 * rep.base_form_scale
            base_seen = max(base_seen, rep.base_defect)
            star_seen = max(star_seen, rep.star_defect)
        # the shared form is non-closed for both derivatives here
        assert base_seen > 1e-3
        assert star_seen > 1e-3

    def test_drift_companion_is_vertical_to_ell(self):
        s = sphere2()
        star = randers_change(s, B, validate=False)
        for p in s.sample(3, seed=127):
            rep = pc.drift_closedness_transfer(point_frame(s, p), point_frame(star, p))
            assert abs(rep.ell_pairing) < 1e-11
            assert abs(rep.star_ell_pairing) < 1e-11


class TestDriftPrecondition:
    def test_constant_covector_is_closed(self):
        e = euclidean(2)
        pts = e.sample(4, seed=131)
        assert pc.drift_precondition_defect(lambda x: B, pts, 2) < 1e-9

    def test_gradient_covector_is_closed(self):
        e = euclidean(2)
        pts = e.sample(4, seed=131)
        b_fn = lambda x: (0.1 * 2 * x[0], 0.1 * 2 * x[1])
        assert pc.drift_precondition_defect(b_fn, pts, 2) < 1e-8

    def test_shear_covector_is_detected(self):
        e = euclidean(2)
        pts = e.sample(4, seed=131)
        b_fn = lambda x: (0.2 * x[1], 0.0)
        defect = pc.drift_precondition_defect(b_fn, pts, 2)
        assert defect == pytest.approx(0.2, rel=1e-6)

    @pytest.mark.parametrize("b_fn", [
        lambda x: B,
        lambda x: (0.2 * x[1] * x[0], x[0] ** 3 - x[1]),
        lambda x: (math.sqrt(x[0]) if x[0] > 0.0 else float("nan"), 0.3 * x[0]),
        lambda x: (float("nan"), 0.0),
    ], ids=["constant", "polynomial", "nan-somewhere", "nan-everywhere"])
    def test_equals_the_per_point_loop(self, b_fn):
        pts = euclidean(2).sample(30, seed=5)
        got = pc.drift_precondition_defect(b_fn, pts, 2)
        want = _reference_precondition(b_fn, pts, 2)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def _reference_precondition(b_fn, points, n):
    """One Jacobian per point and the builtin max over the points, so a point
    whose asymmetry is NaN never replaces the running maximum."""
    worst = 0.0
    h = 1e-5
    for p in points:
        x = list(p.x)
        jac = np.empty((n, n))
        for i in range(n):
            xp = list(x)
            xm = list(x)
            xp[i] += h
            xm[i] -= h
            bp = np.array([float(v) for v in b_fn(xp)])
            bm = np.array([float(v) for v in b_fn(xm)])
            jac[:, i] = (bp - bm) / (2 * h)
        worst = max(worst, float(np.max(np.abs(jac - jac.T))))
    return worst


class TestConformalTransfer:
    def test_constant_rescale_is_pure_scaling(self):
        s = sphere2()
        X = ComponentField(
            [lambda x, y: 1.0 + 0.3 * y[1], lambda x, y: x[0]], name="probe"
        )
        tilde = conformal_change(s, 0.25)
        for p in s.sample(4, seed=137):
            rep = pc.conformal_closedness_transfer(point_frame(s, p), point_frame(tilde, p), X)
            assert rep.scaling_residual < 1e-10 * rep.scale
            assert rep.leibniz_residual < 1e-10 * rep.scale
            assert rep.sigma_value == 0.25

    def test_linear_sigma_on_flat_base_frozen_value(self):
        e = euclidean(2)
        X = constant_field([0.0, 1.0])
        tilde = conformal_change(e, lambda x: x[0])
        for p in e.sample(3, seed=137):
            rep = pc.conformal_closedness_transfer(point_frame(e, p), point_frame(tilde, p), X)
            assert rep.leibniz_residual < 1e-10 * rep.scale
            # base form is closed, so the wedge term is the whole derivative
            assert rep.tilde_base_defect < 1e-10
            assert rep.prediction_residual < 1e-10 * rep.scale
            expected = 2.0 * np.exp(2.0 * p.x[0])
            assert rep.actual[0, 1] == pytest.approx(expected, rel=1e-11)
            assert rep.actual_defect > 1e-3

    def test_leibniz_shape_on_quartic_base(self):
        q = minkowski_quartic(2)
        X = ComponentField(
            [lambda x, y: y[0], lambda x, y: 0.5 - x[1]], name="probe"
        )
        tilde = conformal_change(q, lambda x: 0.3 * x[0])
        actual_seen = 0.0
        for p in q.sample(4, seed=139):
            rep = pc.conformal_closedness_transfer(point_frame(q, p), point_frame(tilde, p), X)
            assert rep.leibniz_residual < 1e-9 * rep.scale
            actual_seen = max(actual_seen, rep.actual_defect)
        assert actual_seen > 1e-3

    def test_catalog_conformal_structure_round_trip(self):
        q = minkowski_quartic(2)
        tilde = by_name("conformal_quartic2")
        X = constant_field([0.7, -0.2])
        p = tilde.sample(1, seed=149)[0]
        rep = pc.conformal_closedness_transfer(point_frame(q, p), point_frame(tilde, p), X)
        assert rep.leibniz_residual < 1e-9 * rep.scale
