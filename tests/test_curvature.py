"""Curvature tensors against the Riemannian oracle, flatness controls,
and the scalar-form shape of the vh-torsion."""

import numpy as np
import pytest

import riemann_oracle as oracle
from finslerkit import curvature as cv
from finslerkit.chart import ChartPoint
from finslerkit.checks import FAIL, PASS, run_checks
from finslerkit.frame import PointFrame, point_frame
from finslerkit.structures import FinslerStructure, by_name, sphere2, structure_from_spec

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


def _ricci_kappa(fr):
    """The flag curvature of the frame's flags from the Ricci rung,
    Ric_jh y^j y^h / ((n-1) L^2): the oracle of eq2.13's kappa."""
    ric = np.einsum("...jh,...j,...h->...", fr.ricci, fr.y, fr.y)
    return ric / ((fr.n - 1) * fr.L * fr.L)


def _phi(x):
    """phi = psi2 o psi1, psi1(a, b) = (a, b + 0.2 a^2), psi2(a, b) = (a + 0.15 b^2, b),
    and its Jacobian; x may hold floats or jets."""
    a, b = x
    c = b + 0.2 * (a * a)
    return (a + 0.15 * (c * c), c), ((1.0 + 0.12 * (a * c), 0.3 * c), (0.4 * a, 1.0))


def _phi_inverse(x):
    a = x[0] - 0.15 * x[1] ** 2
    return (a, x[1] - 0.2 * a * a)


def _pullback(s):
    """s in the chart x = phi(x~): L~(x~, y~) = L(phi(x~), Dphi(x~) y~)."""
    def L(x, y):
        px, J = _phi(x)
        return s.L(px, tuple(J[i][0] * y[0] + J[i][1] * y[1] for i in range(2)))

    return FinslerStructure(n=2, L=L, name=f"pullback({s.name})")


def _poly(coef, powers):
    return {"terms": [{"coef": coef, "powers": powers}]}


# eq2.13 on 3D structures, where omega has a part transverse to ell: a
# gradient drift b = d(0.1 x1 x2) is projectively flat, so of scalar flag
# curvature; a shear drift and a conformal factor are not
EUCLIDEAN3 = {"family": "euclidean", "dim": 3}
EQ213_CONTROLS = {
    "gradient_drift3": ({"family": "randers", "base": EUCLIDEAN3,
                         "b": [_poly(0.1, [0, 1, 0]), _poly(0.1, [1, 0, 0]), 0]}, PASS),
    "shear_drift3": ({"family": "randers", "base": EUCLIDEAN3,
                      "b": [_poly(0.2, [0, 1, 0]), 0, 0]}, FAIL),
    "conformal3": ({"family": "conformal", "base": EUCLIDEAN3,
                    "sigma": _poly(0.3, [1, 0, 0])}, FAIL),
}


def _same_kappa(a, kappa):
    return (np.abs(a - kappa) <= 1e-12 * np.maximum(1.0, np.abs(kappa))).all()


class TestScalarFormShape:
    def test_sphere_kappa_is_one(self):
        s = sphere2()
        res = cv.scalar_form_check(PointFrame(s, tuple(s.sample(200, seed=0))))
        assert np.abs(res.kappa - 1.0).max() < 1e-12
        assert (res.residual / res.scale).max() < 1e-12

    def test_sphere_free_fit_is_exact(self):
        s = sphere2()
        fr = point_frame(s, SPHERE_POINTS[0])
        res = cv.scalar_form_check(fr)
        assert res.residual / res.scale < 1e-10
        assert np.abs(fr.Rhat).max() > 0.1

    def test_flat_structure_fits_trivially(self):
        s = by_name("minkowski_quartic2")
        p = s.sample(1, seed=61)[0]
        fr = point_frame(s, p)
        res = cv.scalar_form_check(fr)
        assert np.abs(fr.Rhat).max() < 1e-12
        assert res.residual / res.scale < 1e-12

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    def test_kappa_is_the_ricci_trace(self, name):
        s = by_name(name)
        fr = PointFrame(s, tuple(s.sample(200, seed=0)))
        kappa = cv.scalar_form_check(fr).kappa
        assert _same_kappa(_ricci_kappa(fr), kappa)

    @pytest.mark.parametrize("name", CURVED_NAMES)
    def test_kappa_is_chart_invariant(self, name):
        s = by_name(name)
        pts = s.sample(200, seed=0)
        pulled = []
        for p in pts:
            x = _phi_inverse(p.x)
            pulled.append(ChartPoint(x, tuple(np.linalg.solve(_phi(x)[1], p.y))))
        kappa = cv.scalar_form_check(PointFrame(s, tuple(pts))).kappa
        pulled_kappa = cv.scalar_form_check(PointFrame(_pullback(s), tuple(pulled))).kappa
        assert _same_kappa(pulled_kappa, kappa)

    @pytest.mark.parametrize("name", sorted(EQ213_CONTROLS))
    def test_3d_controls(self, name):
        spec, verdict = EQ213_CONTROLS[name]
        s = structure_from_spec(spec)
        (res,) = run_checks(s, ["eq2.13"], 200, 0, 1e-7, 1e-3)
        assert res.verdict == verdict, res
        fr = PointFrame(s, tuple(s.sample(200, seed=0)))
        kappa = cv.scalar_form_check(fr).kappa
        assert _same_kappa(_ricci_kappa(fr), kappa)
        assert np.ptp(kappa) > 1e-3  # kappa is not constant on any of them
