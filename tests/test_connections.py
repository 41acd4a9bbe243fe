"""Spray, nonlinear connection, and linear connection against the
Riemannian oracle and the structural certificates."""

from operator import attrgetter

import numpy as np
import pytest

import riemann_oracle as oracle
from finslerkit import connections as cn
from finslerkit import picalc as pc
from finslerkit.chart import ChartPoint
from finslerkit.frame import PointFrame, point_frame
from finslerkit.structures import by_name, sphere2

from conftest import CATALOG_NAMES

SPHERE_POINTS = sphere2().sample(5, seed=31)


class TestRiemannianOracleMatch:
    """On a Riemannian structure the whole tower has classical closed forms."""

    @pytest.mark.parametrize("p", SPHERE_POINTS, ids=range(len(SPHERE_POINTS)))
    def test_linear_coefficients_are_christoffels(self, p):
        fr = point_frame(sphere2(), p)
        gam = oracle.sphere_christoffel(p.x)
        assert np.abs(fr.F - gam).max() < 1e-12

    @pytest.mark.parametrize("p", SPHERE_POINTS, ids=range(len(SPHERE_POINTS)))
    def test_spray_and_nonlinear_connection(self, p):
        fr = point_frame(sphere2(), p)
        gam = oracle.sphere_christoffel(p.x)
        y = np.array(p.y)
        assert np.abs(fr.G - 0.5 * np.einsum("ijk,j,k->i", gam, y, y)).max() < 1e-12
        assert np.abs(fr.N - np.einsum("ijm,m->ij", gam, y)).max() < 1e-12

    def test_fd_oracle_agrees_too(self):
        p = SPHERE_POINTS[0]
        fr = point_frame(sphere2(), p)
        assert np.abs(fr.F - oracle.christoffel(oracle.sphere_metric, np.array(p.x))).max() < 1e-8

    def test_metric_matches_coefficients(self):
        p = SPHERE_POINTS[1]
        fr = point_frame(sphere2(), p)
        assert np.abs(fr.g - oracle.sphere_metric(p.x)).max() < 1e-12
        # Riemannian structures have no fiber dependence in g
        assert np.abs(fr.C3).max() < 1e-12


class TestStructuralCertificates:
    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    def test_spray_certificate(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=13):
            assert cn.spray_defect(point_frame(s, p)) < 1e-10

    def test_spray_certificate_flags_wrong_spray(self, monkeypatch):
        # a fault injected into the frame's G rung: the certificate reads G
        # from the frame, and G's descriptor looks its func up at call time
        s = sphere2()
        p = SPHERE_POINTS[2]
        assert cn.spray_defect(point_frame(s, p)) < 1e-10
        monkeypatch.setattr(PointFrame.__dict__["G"], "func", lambda fr: fr.G_jets.value + 0.05)
        assert cn.spray_defect(point_frame(s, p)) > 1e-3

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_conservativity(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=13):
            assert cn.conservativity_defect(point_frame(s, p)) < 1e-10

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_barthel_torsion_free(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=13):
            fr = point_frame(s, p)
            dN = fr.N_jets.dy[0]  # [i, j, k] = dy_k N^i_j
            assert np.abs(dN - np.transpose(dN, (0, 2, 1))).max() < 1e-10

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_horizontal_coefficients_symmetric(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=13):
            assert cn.torsion_defect(point_frame(s, p)) < 1e-10

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_metricity_both_parts(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=13):
            h, v = cn.metricity_defect(point_frame(s, p))
            assert h < 1e-10
            assert v < 1e-10

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_deflection(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=13):
            assert cn.deflection_defect(point_frame(s, p)) < 1e-10

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_projectors(self, name):
        s = by_name(name)
        for p in s.sample(4, seed=13):
            assert cn.projector_defects(point_frame(s, p)) < 1e-12


class TestHorizontalDerivative:
    def test_energy_is_horizontally_constant(self):
        s = sphere2()
        p = SPHERE_POINTS[3]
        fr = point_frame(s, p)
        dE = fr.delta_values(fr.field_jet(lambda x, y: 0.5 * s.L(x, y) ** 2, 1))
        assert np.abs(dE).max() < 1e-12

    def test_positional_scalar_reduces_to_base_gradient(self):
        s = sphere2()
        p = SPHERE_POINTS[0]
        f = lambda x, y: x[0] ** 2 - 2.0 * x[1]
        fr = point_frame(s, p)
        df = fr.delta_values(fr.field_jet(f, 1))[0]
        assert df[0] == pytest.approx(2 * p.x[0], rel=1e-12)
        assert df[1] == pytest.approx(-2.0, rel=1e-12)

    def test_single_component_form(self):
        s = sphere2()
        p = SPHERE_POINTS[0]
        f = lambda x, y: x[0] * y[1]
        fr = point_frame(s, p)
        df = fr.delta_values(fr.field_jet(f, 1))[0]
        # delta_k f = d_k f - N^m_k dy_m f with dy_m f = x^0 for m = 1 only
        N = fr.N[0]
        assert df[0] == pytest.approx(p.y[1] - N[1, 0] * p.x[0], rel=1e-12)
        assert df[1] == pytest.approx(-N[1, 1] * p.x[0], rel=1e-12)


class TestCovariantDerivative:
    def test_tautological_field_is_parallel(self):
        # nabla_h of eta vanishes: delta_j y^i = -N^i_j cancels F^i_kj y^k
        s = sphere2()
        eta = lambda x, y: [y[0], y[1]]
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(s, p)
            A = pc.a_operator(fr, fr.field_jet(eta, 1))
            assert np.abs(A).max() < 1e-12

    def test_cartan_pair_shapes(self):
        s = by_name("minkowski_quartic2")
        p = s.sample(1, seed=40)[0]
        fr = point_frame(s, p)
        F, C = fr.F, fr.Cmix  # a point axis of length 1, then the tensor axes
        assert F.shape == (1, 2, 2, 2)
        assert C.shape == (1, 2, 2, 2)
        C = C[0]
        # vertical coefficients contract to zero against y on the last slot
        y = np.array(p.y)
        assert np.abs(np.einsum("ijk,k->ij", C, y)).max() < 1e-12

    @pytest.mark.parametrize("attr", ["g", "g_inv", "C3", "Cmix", "ell", "phi",
                                      "G", "N", "F", "Rhat", "hcurv", "ricci",
                                      "g_jets.coeffs", "ginv_jets.coeffs",
                                      "G_jets.coeffs", "N_jets.coeffs",
                                      "_dg_jets.coeffs", "F_jets.coeffs"])
    def test_frame_arrays_are_read_only(self, attr):
        # one frame is shared by every check of a run
        s = sphere2()
        p = SPHERE_POINTS[4]
        arr = attrgetter(attr)(point_frame(s, p))
        before = arr.copy()
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] += 123.0
        assert np.array_equal(attrgetter(attr)(point_frame(s, p)), before)
