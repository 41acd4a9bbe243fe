"""Musical isomorphisms, the horizontal exterior derivative, the operator
A_X, and the identity suite built on them, each on the order-1 jets of its
fields and forms."""

import numpy as np
import pytest

from finslerkit import picalc as pc
from finslerkit.chart import ChartPoint
from finslerkit.errors import CapabilityError, DegenerateFieldError
from finslerkit.frame import PointFrame, matvec, point_frame
from finslerkit.jets import Jet
from finslerkit.picalc import project_away
from finslerkit.structures import by_name, euclidean, minkowski_quartic, sphere2

from conftest import CATALOG_NAMES, FLAT_NAMES
from tower_oracle import dbar_1_on_fields, form_jets

SPHERE = sphere2()
SPHERE_POINTS = SPHERE.sample(5, seed=71)
RNG = np.random.default_rng(2024)


def mixed_probe(n, seed=0):
    rng = np.random.default_rng([seed, n])
    cx = rng.uniform(-1, 1, size=(n, n))
    cy = rng.uniform(-1, 1, size=(n, n))

    def fn(x, y):
        return [sum(cx[i][j] * x[j] + cy[i][j] * y[j] for j in range(n)) for i in range(n)]

    return fn


def eta(n):
    """The canonical field eta, with components y^i."""
    return lambda x, y: list(y)


def one_form(comps):
    """The components of a 1-form, keyed by index tuple, from a list."""
    return {(i,): c for i, c in enumerate(comps)}


def const_jets(fr, vec):
    """The order-1 jets of constant components on a frame's points."""
    return Jet.constant(2 * fr.n, 1, np.broadcast_to(vec, (len(fr.point), fr.n)))


class TestMusicals:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_flat_sharp_roundtrip(self, name):
        s = by_name(name)
        p = s.sample(1, seed=73)[0]
        w = np.array([0.7, -0.4])
        fr = point_frame(s, p)
        X = fr.sharp_jets(const_jets(fr, w)).value[0]
        back = fr.flat_jets(const_jets(fr, X)).value[0]
        assert np.abs(back - w).max() < 1e-12

    def test_gradient_is_sharp_of_dbar(self):
        f = lambda x, y: x[0] * x[1] + 0.2 * y[0]
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            grad = pc.gradient_jets(fr, fr.field_jet(f, 2)).value
            df = fr.delta_values(fr.field_jet(f, 1))
            assert np.abs(fr.flat_jets(const_jets(fr, grad)).value - df).max() < 1e-12

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    def test_value_forms_read_the_frame_jets(self, name):
        # the value parts of the frame's musical jets are the value forms
        # g X, g^-1 w and g^-1 dbar f, on a batch of one and of 20 points
        s = by_name(name)
        pts = s.sample(20, seed=5)
        X = mixed_probe(s.n, seed=3)
        form = one_form([(lambda i: lambda x, y: x[i] * y[0] + 0.5)(i) for i in range(s.n)])
        f = lambda x, y: x[0] * y[-1] + x[-1] ** 2
        for fr in (PointFrame(s, pts[0]), PointFrame(s, tuple(pts))):
            df = fr.delta_values(fr.field_jet(f, 1))
            cases = [
                (fr.flat_jets(fr.field_jet(X, 1)), matvec(fr.g, fr.field_jet(X, 1).value)),
                (fr.sharp_jets(form_jets(fr, form)), matvec(fr.g_inv, form_jets(fr, form).value)),
                (pc.gradient_jets(fr, fr.field_jet(f, 2)), matvec(fr.g_inv, df)),
            ]
            for jet, value in cases:
                assert jet.value.shape == value.shape == (len(fr.point), s.n)
                assert np.abs(jet.value - value).max() <= 1e-14 * max(1.0, np.abs(value).max())

    def test_sharp_accepts_one_form_objects(self):
        p = SPHERE_POINTS[0]
        form = one_form([lambda x, y: 1.0, lambda x, y: x[0]])
        fr = point_frame(SPHERE, p)
        arr = fr.sharp_jets(form_jets(fr, form)).value
        direct = fr.sharp_jets(const_jets(fr, np.array([1.0, p.x[0]]))).value
        assert np.abs(arr - direct).max() < 1e-14


class TestDbarDegreeZero:
    # dbar of a scalar f is delta_k f, the frame's delta_values of its jet

    def test_positional_scalar_gives_base_partials(self):
        e = euclidean(2)
        p = e.sample(1, seed=79)[0]
        f = lambda x, y: 3.0 * x[0] - x[1] ** 2
        fr = point_frame(e, p)
        df = fr.delta_values(fr.field_jet(f, 1))[0]
        assert df[0] == pytest.approx(3.0, abs=1e-14)
        assert df[1] == pytest.approx(-2.0 * p.x[1], rel=1e-13)

    def test_energy_is_dbar_closed_everywhere(self):
        for name in CATALOG_NAMES:
            s = by_name(name)
            p = s.sample(1, seed=79)[0]
            E = lambda x, y: 0.5 * s.L(x, y) ** 2
            fr = point_frame(s, p)
            assert np.abs(fr.delta_values(fr.field_jet(E, 1))).max() < 1e-12


class TestDbarHigherDegree:
    def test_one_form_matches_classical_on_flat_base(self):
        e3 = euclidean(3)
        p = e3.sample(1, seed=83)[0]
        w = one_form([
            lambda x, y: x[1],
            lambda x, y: x[0] * x[2],
            lambda x, y: x[2] ** 2,
        ])
        fr = point_frame(e3, p)
        D = pc.dbar(fr, form_jets(fr, w))[0]
        x = p.x
        assert D[0, 1] == pytest.approx(x[2] - 1.0, rel=1e-12, abs=1e-13)
        assert D[0, 2] == pytest.approx(0.0, abs=1e-13)
        assert D[1, 2] == pytest.approx(-x[0], rel=1e-12, abs=1e-13)
        assert np.abs(D + D.T).max() < 1e-14

    def test_degree_cap(self):
        # dbar takes a 1-form alone: the jet of a scalar or of a 2-form is refused
        e3 = euclidean(3)
        fr = point_frame(e3, e3.sample(1, seed=83)[0])
        for jet in (fr.field_jet(lambda x, y: x[0], 1),
                    form_jets(fr, {(0, 1): lambda x, y: x[2]})):
            with pytest.raises(CapabilityError):
                pc.dbar(fr, jet)

    def test_component_formula_is_the_invariant_formula(self):
        # (dbar w)(X, Y) via components against the lift/bracket expression
        w = one_form([lambda x, y: y[0] * x[1], lambda x, y: x[0] + y[1]])
        X = mixed_probe(2, seed=5)
        Y = mixed_probe(2, seed=6)
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            wj, Xj, Yj = form_jets(fr, w), fr.field_jet(X, 1), fr.field_jet(Y, 1)
            D = pc.dbar(fr, wj)[0]
            via_fields = dbar_1_on_fields(fr, wj, Xj, Yj)[0]
            xv, yv = Xj.value[0], Yj.value[0]
            assert float(xv @ D @ yv) == pytest.approx(via_fields, rel=1e-10, abs=1e-11)

    def test_invariant_formula_with_a_missing_component(self):
        # omega_0 is absent: it counts as zero in both formulas
        w = {(1,): lambda x, y: x[0] * y[1] + y[0]}
        X = mixed_probe(2, seed=5)
        Y = mixed_probe(2, seed=6)
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            wj, Xj, Yj = form_jets(fr, w), fr.field_jet(X, 1), fr.field_jet(Y, 1)
            D = pc.dbar(fr, wj)[0]
            assert np.abs(D).max() > 1e-3
            via_fields = dbar_1_on_fields(fr, wj, Xj, Yj)[0]
            assert float(Xj.value[0] @ D @ Yj.value[0]) == pytest.approx(
                via_fields, rel=1e-10, abs=1e-11
            )


class TestAOperator:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_tautological_field_is_parallel(self, name):
        s = by_name(name)
        for p in s.sample(3, seed=89):
            fr = point_frame(s, p)
            assert np.abs(pc.a_operator(fr, fr.field_jet(eta(s.n), 1))).max() < 1e-12

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_adjoint_identity_for_probe_fields(self, name):
        s = by_name(name)
        X = mixed_probe(s.n, seed=1)
        f = lambda x, y: x[0] * x[1] + y[0] * 0.3
        const = lambda x, y: (1.0, -0.5)
        for p in s.sample(3, seed=89):
            fr = point_frame(s, p)
            probes = (fr.field_jet(X, 1), pc.gradient_jets(fr, fr.field_jet(f, 2)),
                      fr.field_jet(const, 1))
            for Xj in probes:
                M, B = (a[0] for a in pc.flat_form_and_selfadjoint_matrix(fr, Xj))
                assert float(np.max(np.abs(M - (B.T - B)))) < 1e-10

    def test_closedness_equals_selfadjointness(self):
        X = mixed_probe(2, seed=11)
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            B = pc.flat_form_and_selfadjoint_matrix(fr, fr.field_jet(X, 1))[1][0]
            assert pc.closedness_defect(fr, fr.field_jet(X, 1))[0] == pytest.approx(
                float(np.max(np.abs(B - B.T))), rel=1e-9, abs=1e-12
            )

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_tautological_field_is_closed(self, name):
        s = by_name(name)
        for p in s.sample(3, seed=89):
            fr = point_frame(s, p)
            assert pc.closedness_defect(fr, fr.field_jet(eta(s.n), 1)) < 1e-12


class TestSecondDerivative:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_nested_dbar_equals_torsion_contraction(self, name):
        s = by_name(name)
        f = lambda x, y: x[0] * y[1] + 0.5 * y[0] * y[0] / s.L(x, y)
        for p in s.sample(3, seed=97):
            res = pc.dbar_sq(point_frame(s, p), f)
            assert res.defect < 1e-10 * res.scale

    def test_nested_derivative_vanishes_on_flat(self):
        e = euclidean(2)
        f = lambda x, y: x[0] * y[1] ** 2
        p = e.sample(1, seed=97)[0]
        fr = point_frame(e, p)
        fj = fr.field_jet(f, 2)
        nested = pc.dbar(fr, fr.delta_jets(fj))
        contracted = np.einsum("...mjk,...m->...jk", fr.Rhat, np.array(fj.dy))
        assert np.abs(nested).max() < 1e-12
        assert np.abs(contracted).max() == 0.0
        # dbar_sq compares the same two arrays
        assert pc.dbar_sq(fr, f).defect[0] == np.abs(nested).max()

    def test_nested_derivative_nonzero_on_sphere(self):
        f = lambda x, y: 0.5 * y[0] * y[0]
        fr = point_frame(SPHERE, SPHERE_POINTS[0])
        nested = pc.dbar(fr, fr.delta_jets(fr.field_jet(f, 2)))
        assert np.abs(nested).max() > 1e-3


class TestGradientIdentity:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_identity_holds(self, name):
        s = by_name(name)
        f = lambda x, y: x[0] * y[0] + x[1]
        for p in s.sample(3, seed=101):
            res = pc.gradient_torsion_identity(point_frame(s, p), f)
            assert res.residual < 1e-9 * res.scale

    def test_positional_gradients_are_closed_even_when_curved(self):
        f = lambda x, y: x[0] ** 2 - x[1]
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            assert pc.closedness_defect(fr, pc.gradient_jets(fr, fr.field_jet(f, 2))) < 1e-11

    def test_fiber_dependent_gradient_not_closed_on_sphere(self):
        f = lambda x, y: 0.5 * y[0] * y[0]
        frames = [point_frame(SPHERE, p) for p in SPHERE_POINTS]
        worst = max(pc.closedness_defect(fr, pc.gradient_jets(fr, fr.field_jet(f, 2)))
                    for fr in frames)
        assert worst > 1e-3

    def test_sides_are_nontrivial_on_sphere(self):
        f = lambda x, y: x[0] * y[0] + x[1]
        seen = 0.0
        for p in SPHERE_POINTS:
            res = pc.gradient_torsion_identity(point_frame(SPHERE, p), f)
            seen = max(seen, min(np.abs(res.lhs).max(), np.abs(res.rhs).max()))
        assert seen > 1e-3


class TestIsotropy:
    def test_isotropic_functions_pass(self):
        h = lambda x, y: (1.0 + 0.4 * x[1]) * SPHERE.L(x, y) ** 2
        for p in SPHERE_POINTS[:3]:
            assert pc.isotropy_residual(point_frame(SPHERE, p), h) < 1e-12

    def test_positional_functions_pass_exactly(self):
        f = lambda x, y: x[0] ** 3 - x[1]
        for p in SPHERE_POINTS[:3]:
            assert pc.isotropy_residual(point_frame(SPHERE, p), f) == 0.0

    def test_anisotropic_function_fails(self):
        f = lambda x, y: y[0] ** 2
        worst = max(pc.isotropy_residual(point_frame(SPHERE, p), f) for p in SPHERE_POINTS)
        assert worst > 1e-2

    def test_quartic_norm_square_is_anisotropic_for_round_metric(self):
        q = minkowski_quartic(2)
        f = lambda x, y: q.L(x, y) ** 2
        p = q.sample(1, seed=103)[0]
        assert pc.isotropy_residual(point_frame(q, p), f) < 1e-12  # in its own structure
        e = euclidean(2)
        pe = ChartPoint(p.x, p.y)
        assert pc.isotropy_residual(point_frame(e, pe), f) > 1e-3  # alien fiber geometry


class TestLieComparison:
    def test_stretch_on_flat_plane(self):
        e = euclidean(2)
        p = e.sample(1, seed=107)[0]
        X = lambda x, y: [x[0], 0.0]  # the stretch
        fr = point_frame(e, p)
        rep = pc.lie_metric_report(fr, fr.field_jet(X, 1))
        assert rep.lie_defect == pytest.approx(2.0, abs=1e-12)
        assert rep.closedness < 1e-12
        assert rep.difference == pytest.approx(2.0, abs=1e-12)

    def test_rotation_on_flat_plane(self):
        e = euclidean(2)
        p = e.sample(1, seed=107)[0]
        X = lambda x, y: [-x[1], x[0]]  # the rotation
        fr = point_frame(e, p)
        rep = pc.lie_metric_report(fr, fr.field_jet(X, 1))
        assert rep.lie_defect < 1e-12
        assert rep.closedness == pytest.approx(2.0, abs=1e-12)

    def test_rotation_is_a_sphere_isometry(self):
        X = lambda x, y: [-x[1], x[0]]  # the rotation
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            rep = pc.lie_metric_report(fr, fr.field_jet(X, 1))
            assert rep.lie_defect < 1e-11


class TestInvolutivity:
    def test_closed_field_complement_is_involutive(self):
        e3 = euclidean(3)
        p = e3.sample(1, seed=109)[0]
        f = lambda x, y: x[0] * x[1] + x[2] ** 2  # X = grad f
        fr = point_frame(e3, p)
        rep = pc.involutivity_report(fr, pc.gradient_jets(fr, fr.field_jet(f, 2)))
        assert rep.identity_defect < 1e-10
        assert rep.defect < 1e-10

    def test_open_field_complement_is_not(self):
        e3 = euclidean(3)
        X = lambda x, y: [1.0 + x[1] ** 2, x[0], 0.4]  # not closed
        worst = 0.0
        for p in e3.sample(4, seed=109):
            fr = point_frame(e3, p)
            rep = pc.involutivity_report(fr, fr.field_jet(X, 1))
            assert rep.identity_defect < 1e-10  # exchange identity always holds
            worst = max(worst, rep.defect)
        assert worst > 1e-3

    def test_finsler_case_identity(self):
        m3 = by_name("minkowski_quartic3")
        X = mixed_probe(3, seed=7)
        for p in m3.sample(3, seed=109):
            fr = point_frame(m3, p)
            rep = pc.involutivity_report(fr, fr.field_jet(X, 1))
            assert rep.identity_defect < 1e-9 * rep.scale

    def test_two_dimensional_complement_has_no_pairs(self):
        p = SPHERE_POINTS[0]
        fr = point_frame(SPHERE, p)
        rep = pc.involutivity_report(fr, fr.field_jet(eta(2), 1))
        # one complement field: no bracket is taken, so nothing raises the scale
        assert rep.defect == 0.0 and rep.identity_defect == 0.0
        assert rep.scale == 1.0

    def test_projection_is_orthogonal(self):
        p = SPHERE_POINTS[1]
        fr = point_frame(SPHERE, p)
        X = mixed_probe(2, seed=9)
        xv = fr.field_jet(X, 1).value[0]
        yv = project_away(fr, np.array([1.0, 0.0]), fr.field_jet(X, 1)).value[0]
        assert abs(yv @ fr.g[0] @ xv) < 1e-14

    def test_degenerate_projection_rejected(self):
        p = SPHERE_POINTS[1]
        zero = lambda x, y: (0.0, 0.0)
        with pytest.raises(DegenerateFieldError):
            fr = point_frame(SPHERE, p)
            project_away(fr, np.array([1.0, 0.0]), fr.field_jet(zero, 1))
