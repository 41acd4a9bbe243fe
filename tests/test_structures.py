"""Catalog structures: values, homogeneity, domains, and the JSON spec loader."""

import math

import numpy as np
import pytest

from finslerkit.errors import DomainError, FinslerError, SingularMetricError
from finslerkit.frame import point_frame
from finslerkit.structures import (
    by_name,
    catalog,
    conformal_change,
    euclidean,
    minkowski_quartic,
    randers_change,
    randers_sphere2,
    riemannian,
    sphere2,
    structure_from_spec,
)


class TestCatalog:
    def test_catalog_has_five_structures(self):
        names = [s.name for s in catalog()]
        assert names == [
            "euclidean2",
            "minkowski_quartic2",
            "sphere2",
            "randers_sphere2",
            "conformal_quartic2",
        ]
        assert all(s.n == 2 for s in catalog())

    def test_by_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            by_name("lorentz4")

    @pytest.mark.parametrize("name", ["euclidean3", "minkowski_quartic3"])
    def test_named_three_dimensional_variants(self, name):
        s = by_name(name)
        assert s.n == 3

    @pytest.mark.parametrize(
        "name",
        [
            "euclidean2",
            "minkowski_quartic2",
            "sphere2",
            "randers_sphere2",
            "conformal_quartic2",
        ],
    )
    def test_lagrangian_positive_and_homogeneous(self, name):
        s = by_name(name)
        for p in s.sample(6, seed=21):
            val = s.L(p.x, p.y)
            assert val > 0
            scaled = s.L(p.x, tuple(1.7 * v for v in p.y))
            assert scaled == pytest.approx(1.7 * val, rel=1e-12)


class TestSpecificValues:
    def test_euclidean_is_the_flat_norm(self):
        s = euclidean(2)
        assert s.L((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0, rel=1e-15)

    def test_sphere_metric_factor(self):
        s = sphere2()
        # a_ij = 4 delta_ij / (1 + |x|^2)^2, so L(x, e1) = 2/(1 + |x|^2)
        x = (0.5, -0.5)
        assert s.L(x, (1.0, 0.0)) == pytest.approx(2.0 / 1.5, rel=1e-14)

    def test_quartic_value(self):
        s = minkowski_quartic(2)
        assert s.L((0.0, 0.0), (1.0, 1.0)) == pytest.approx(2.0 ** 0.25, rel=1e-14)

    def test_randers_adds_drift_term(self):
        s = randers_sphere2()
        base = sphere2()
        p = s.sample(1, seed=2)[0]
        assert s.L(p.x, p.y) == pytest.approx(
            base.L(p.x, p.y) + 0.2 * p.y[0], rel=1e-13
        )

    def test_conformal_scales_pointwise(self):
        base = minkowski_quartic(2)
        s = conformal_change(base, lambda x: 0.3 * x[0])
        p = s.sample(1, seed=4)[0]
        assert s.L(p.x, p.y) == pytest.approx(
            np.exp(0.3 * p.x[0]) * base.L(p.x, p.y), rel=1e-13
        )

    def test_quartic_domain_excludes_axis_directions(self):
        s = minkowski_quartic(2)
        assert not s.domain((0.0, 0.0), (1.0, 0.0))
        assert s.domain((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(DomainError):
            point_frame(s, __import__("finslerkit").ChartPoint((0.0, 0.0), (1.0, 0.001)))


class TestRandersValidation:
    def test_strong_drift_rejected(self):
        with pytest.raises(SingularMetricError):
            randers_change(euclidean(2), lambda x: (1.2, 0.0))

    def test_strong_drift_names_the_first_point_past_the_unit_ball(self):
        # |b|_g >= 1 first at the second sample point; the message gives the
        # value a frame at that point alone computes
        base = sphere2()
        b = lambda x: (x[0], 0.0)
        for p in base.sample(12, seed=0):
            bv = np.array(b(p.x), dtype=float)
            norm2 = float(bv @ point_frame(base, p).g_inv @ bv)
            if norm2 >= 1.0:
                break
        assert p == base.sample(12, seed=0)[1]
        with pytest.raises(SingularMetricError) as err:
            randers_change(base, b)
        assert str(err.value) == (f"|b|_g = {math.sqrt(norm2):.3f} >= 1 at {p}; "
                                  "the changed metric degenerates")

    def test_validation_can_be_skipped(self):
        s = randers_change(euclidean(2), lambda x: (1.2, 0.0), validate=False)
        assert s.n == 2

    def test_metadata_links_base(self):
        s = randers_sphere2()
        assert s.meta["base"].name == "sphere2"
        assert tuple(s.meta["b_fn"]((0.0, 0.0))) == (0.2, 0.0)


class TestSpecLoader:
    def test_euclidean_family(self):
        s = structure_from_spec({"family": "euclidean", "dim": 3})
        assert s.n == 3
        assert s.L((0, 0, 0), (1.0, 2.0, 2.0)) == pytest.approx(3.0, rel=1e-14)

    def test_riemannian_preset(self):
        s = structure_from_spec({"family": "riemannian", "preset": "sphere2"})
        ref = sphere2()
        p = ref.sample(1, seed=6)[0]
        assert s.L(p.x, p.y) == pytest.approx(ref.L(p.x, p.y), rel=1e-13)

    def test_riemannian_coefficient_table(self):
        # a_11 = 1 + x1^2, a_22 = 2, a_12 = 0
        spec = {
            "family": "riemannian",
            "dim": 2,
            "a": [
                [{"terms": [{"coef": 1.0, "powers": [0, 0]},
                            {"coef": 1.0, "powers": [2, 0]}]}, 0.0],
                [0.0, 2.0],
            ],
        }
        s = structure_from_spec(spec)
        val = s.L((0.5, 0.0), (1.0, 1.0))
        assert val == pytest.approx(np.sqrt(1.25 + 2.0), rel=1e-13)

    def test_randers_over_base(self):
        spec = {
            "family": "randers",
            "base": {"family": "riemannian", "preset": "sphere2"},
            "b": [0.1, 0.05],
        }
        s = structure_from_spec(spec)
        ref = sphere2()
        p = s.sample(1, seed=8)[0]
        assert s.L(p.x, p.y) == pytest.approx(
            ref.L(p.x, p.y) + 0.1 * p.y[0] + 0.05 * p.y[1], rel=1e-13
        )

    def test_conformal_over_base(self):
        spec = {
            "family": "conformal",
            "base": {"family": "minkowski_quartic", "dim": 2},
            "sigma": {"terms": [{"coef": 0.3, "powers": [1, 0]}]},
        }
        s = structure_from_spec(spec)
        base = minkowski_quartic(2)
        p = s.sample(1, seed=10)[0]
        assert s.L(p.x, p.y) == pytest.approx(
            np.exp(0.3 * p.x[0]) * base.L(p.x, p.y), rel=1e-13
        )

    def test_unknown_family_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            structure_from_spec({"family": "kropina", "dim": 2})


class TestFrameGuards:
    def test_riemannian_metric_callable_recorded(self):
        s = sphere2()
        a = s.meta["a_fn"]((0.0, 0.0))
        assert np.allclose(a, 4.0 * np.eye(2))

    def test_custom_riemannian_positive_definite_guard(self):
        # a degenerate coefficient matrix must surface once the frame is used
        bad = riemannian(lambda x: np.zeros((2, 2)), 2, name="degenerate")
        p = bad.sample(1, seed=1)[0]
        with pytest.raises(FinslerError):
            point_frame(bad, p).g
