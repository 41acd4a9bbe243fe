"""Curvature tensors against the Riemannian oracle, flatness controls,
and the scalar-form shape of the vh-torsion."""

import numpy as np
import pytest

import riemann_oracle as oracle
from finslerkit import curvature as cv
from finslerkit.chart import ChartPoint
from finslerkit.frame import point_frame
from finslerkit.structures import by_name, sphere2

from conftest import CATALOG_NAMES, CURVED_NAMES, FLAT_NAMES

SPHERE_POINTS = sphere2().sample(6, seed=47)


class TestSphereOracle:
    @pytest.mark.parametrize("p", SPHERE_POINTS, ids=range(len(SPHERE_POINTS)))
    def test_curvature_tensor_closed_form(self, p):
        fr = point_frame(sphere2(), p)
        assert np.abs(fr.hcurv - oracle.sphere_riemann(p.x)).max() < 1e-12

    @pytest.mark.parametrize("p", SPHERE_POINTS[:3], ids=range(3))
    def test_curvature_tensor_fd_oracle(self, p):
        fr = point_frame(sphere2(), p)
        assert np.abs(fr.hcurv - oracle.riemann(oracle.sphere_metric, np.array(p.x))).max() < 1e-6

    @pytest.mark.parametrize("p", SPHERE_POINTS, ids=range(len(SPHERE_POINTS)))
    def test_ricci_and_scalar(self, p):
        fr = point_frame(sphere2(), p)
        assert np.abs(fr.ricci - oracle.sphere_ricci(p.x)).max() < 1e-12
        assert fr.scalar == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("p", SPHERE_POINTS, ids=range(len(SPHERE_POINTS)))
    def test_vh_torsion_closed_form(self, p):
        fr = point_frame(sphere2(), p)
        assert np.abs(fr.Rhat - oracle.sphere_vh_torsion(p.x, p.y)).max() < 1e-12

    def test_module_level_accessors(self):
        p = SPHERE_POINTS[0]
        s = sphere2()
        fr = point_frame(s, p)
        assert np.abs(fr.hcurv - oracle.sphere_riemann(p.x)).max() < 1e-12
        assert np.abs(fr.ricci - oracle.sphere_ricci(p.x)).max() < 1e-12
        assert fr.scalar == pytest.approx(2.0, abs=1e-9)
        assert np.abs(fr.Rhat - oracle.sphere_vh_torsion(p.x, p.y)).max() < 1e-12


class TestContraction:
    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    def test_torsion_is_the_y_trace_of_curvature(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=53):
            assert np.abs(cv.curvature_contraction_defect(point_frame(s, p))).max() < 1e-10


class TestFlatness:
    @pytest.mark.parametrize("name", [n for n in FLAT_NAMES])
    def test_flat_structures_have_zero_curvature(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=53):
            assert np.abs(point_frame(s, p).hcurv).max() < 1e-12
            assert np.abs(point_frame(s, p).Rhat).max() < 1e-12

    @pytest.mark.parametrize("name", CURVED_NAMES)
    def test_curved_structures_are_detected(self, name):
        s = by_name(name)
        worst = max(np.abs(point_frame(s, p).hcurv).max() for p in s.sample(4, seed=53))
        assert worst > 1e-3


class TestHomogeneity:
    def test_curvature_tensor_degree_zero(self):
        s = by_name("randers_sphere2")
        p = s.sample(1, seed=59)[0]
        q = ChartPoint(p.x, tuple(1.6 * v for v in p.y))
        a = point_frame(s, p).hcurv
        b = point_frame(s, q).hcurv
        assert np.abs(a - b).max() < 1e-9

    def test_vh_torsion_degree_one(self):
        s = by_name("randers_sphere2")
        p = s.sample(1, seed=59)[0]
        q = ChartPoint(p.x, tuple(1.6 * v for v in p.y))
        a = point_frame(s, p).Rhat
        b = point_frame(s, q).Rhat
        assert np.abs(b - 1.6 * a).max() < 1e-9


class TestScalarFormShape:
    def test_sphere_fits_with_unit_kappa(self):
        s = sphere2()
        for p in SPHERE_POINTS[:4]:
            res = cv.scalar_form_check(point_frame(s, p), kappa=lambda x, y: 1.0)
            assert res.relative_residual < 1e-10
            assert res.supplied

    def test_sphere_free_fit_is_exact(self):
        s = sphere2()
        res = cv.scalar_form_check(point_frame(s, SPHERE_POINTS[0]))
        assert res.relative_residual < 1e-10
        assert not res.supplied
        assert res.torsion_norm > 0.1

    def test_wrong_kappa_leaves_residual(self):
        s = sphere2()
        res = cv.scalar_form_check(point_frame(s, SPHERE_POINTS[0]), kappa=lambda x, y: 0.0)
        assert res.relative_residual > 0.1

    def test_flat_structure_fits_trivially(self):
        s = by_name("minkowski_quartic2")
        p = s.sample(1, seed=61)[0]
        res = cv.scalar_form_check(point_frame(s, p))
        assert res.torsion_norm < 1e-12
        assert res.relative_residual < 1e-12

    def test_omega_combines_kappa_and_its_fiber_slope(self):
        # omega = (L^2/3) u + kappa L ell; with constant kappa the u part drops
        s = sphere2()
        p = SPHERE_POINTS[2]
        fr = point_frame(s, p)
        res = cv.scalar_form_check(fr, kappa=lambda x, y: 1.0)
        assert np.abs(res.omega - fr.L * fr.ell).max() < 1e-10
