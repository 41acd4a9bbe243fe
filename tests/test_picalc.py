"""Musical isomorphisms, the horizontal exterior derivative, the operator
A_X, and the identity suite built on them."""

from itertools import combinations, permutations

import numpy as np
import pytest

from finslerkit import picalc as pc
from finslerkit.chart import ChartPoint
from finslerkit.errors import CapabilityError, DegenerateFieldError
from finslerkit.fields import (
    ComponentField,
    GradientField,
    PiForm,
    ProjectedField,
    _perm_sign,
    constant_field,
    tautological_field,
)
from finslerkit.frame import point_frame
from finslerkit.structures import by_name, conformal_change, euclidean, minkowski_quartic, sphere2

from conftest import CATALOG_NAMES, FLAT_NAMES

SPHERE = sphere2()
SPHERE_POINTS = SPHERE.sample(5, seed=71)
RNG = np.random.default_rng(2024)


def mixed_probe(n, seed=0):
    rng = np.random.default_rng([seed, n])
    cx = rng.uniform(-1, 1, size=(n, n))
    cy = rng.uniform(-1, 1, size=(n, n))
    comps = []
    for i in range(n):
        def c(x, y, i=i):
            return sum(cx[i][j] * x[j] + cy[i][j] * y[j] for j in range(n))
        comps.append(c)
    return ComponentField(comps, name=f"mixed{seed}")


class TestMusicals:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_flat_sharp_roundtrip(self, name):
        s = by_name(name)
        p = s.sample(1, seed=73)[0]
        w = np.array([0.7, -0.4])
        fr = point_frame(s, p)
        X = pc.sharp(fr, w)
        back = pc.flat(fr, constant_field(X))
        assert np.abs(back - w).max() < 1e-12

    def test_gradient_is_sharp_of_dbar(self):
        f = lambda x, y: x[0] * x[1] + 0.2 * y[0]
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            grad = pc.gradient(fr, f)
            df = pc.dbar_0(fr, f)
            assert np.abs(pc.flat(fr, constant_field(grad)) - df).max() < 1e-12

    def test_sharp_accepts_one_form_objects(self):
        p = SPHERE_POINTS[0]
        form = PiForm.one_form(2, [lambda x, y: 1.0, lambda x, y: x[0]])
        fr = point_frame(SPHERE, p)
        arr = pc.sharp(fr, form)
        direct = pc.sharp(fr, np.array([1.0, p.x[0]]))
        assert np.abs(arr - direct).max() < 1e-14

    def test_sharp_rejects_higher_degree(self):
        p = SPHERE_POINTS[0]
        two = PiForm(2, 2, {(0, 1): lambda x, y: 1.0})
        with pytest.raises(ValueError):
            pc.sharp(point_frame(SPHERE, p), two)


class TestDbarDegreeZero:
    def test_positional_scalar_gives_base_partials(self):
        e = euclidean(2)
        p = e.sample(1, seed=79)[0]
        f = lambda x, y: 3.0 * x[0] - x[1] ** 2
        df = pc.dbar_0(point_frame(e, p), f)
        assert df[0] == pytest.approx(3.0, abs=1e-14)
        assert df[1] == pytest.approx(-2.0 * p.x[1], rel=1e-13)

    def test_energy_is_dbar_closed_everywhere(self):
        for name in CATALOG_NAMES:
            s = by_name(name)
            p = s.sample(1, seed=79)[0]
            E = lambda x, y: 0.5 * s.L(x, y) ** 2
            assert np.abs(pc.dbar_0(point_frame(s, p), E)).max() < 1e-12


class TestDbarHigherDegree:
    def test_one_form_matches_classical_on_flat_base(self):
        e3 = euclidean(3)
        p = e3.sample(1, seed=83)[0]
        w = PiForm.one_form(
            3,
            [
                lambda x, y: x[1],
                lambda x, y: x[0] * x[2],
                lambda x, y: x[2] ** 2,
            ],
        )
        D = pc.dbar_p(point_frame(e3, p), w)
        x = p.x
        assert D[0, 1] == pytest.approx(x[2] - 1.0, rel=1e-12, abs=1e-13)
        assert D[0, 2] == pytest.approx(0.0, abs=1e-13)
        assert D[1, 2] == pytest.approx(-x[0], rel=1e-12, abs=1e-13)
        assert np.abs(D + D.T).max() < 1e-14

    def test_two_form_derivative_alternating_sum(self):
        e3 = euclidean(3)
        p = e3.sample(1, seed=83)[0]
        two = PiForm(3, 2, {(0, 1): lambda x, y: x[2]})
        D = pc.dbar_p(point_frame(e3, p), two)
        assert D[0, 1, 2] == pytest.approx(1.0, abs=1e-13)
        assert D[1, 0, 2] == pytest.approx(-1.0, abs=1e-13)
        assert D[2, 0, 1] == pytest.approx(1.0, abs=1e-13)
        assert D[0, 0, 1] == 0.0

    def test_a_form_and_its_component_jets_give_one_dbar(self):
        s = conformal_change(euclidean(3), lambda x: 0.3 * x[0])
        fr = point_frame(s, tuple(s.sample(4, seed=83)))
        for form in (PiForm.one_form(3, [lambda x, y: x[1] * y[2], lambda x, y: y[0]]),
                     PiForm(3, 2, {(0, 2): lambda x, y: x[1] * y[0]})):
            assert pc.dbar_p(fr, form).tobytes() == pc.dbar_p(fr, form.jets(fr)).tobytes()

    def test_two_form_on_a_batch_equals_each_point_and_the_per_key_sum(self):
        s = conformal_change(euclidean(3), lambda x: 0.3 * x[0])
        pts = s.sample(6, seed=83)
        two = PiForm(3, 2, {(0, 1): lambda x, y: x[2] * y[1],
                            (1, 2): lambda x, y: x[0] * y[0] + y[2]})
        batch = point_frame(s, tuple(pts))
        whole = pc.dbar_p(batch, two)
        assert np.abs(whole).max() > 1e-3
        assert np.array_equal(whole, _per_key_dbar(batch, two))
        for i, p in enumerate(pts):
            assert whole[i].tobytes() == pc.dbar_p(point_frame(s, p), two).tobytes(), p

    def test_degree_cap(self):
        e3 = euclidean(3)
        p = e3.sample(1, seed=83)[0]
        three = PiForm(3, 3, {(0, 1, 2): lambda x, y: x[0]})
        with pytest.raises(CapabilityError):
            pc.dbar_p(point_frame(e3, p), three)

    def test_component_formula_is_the_invariant_formula(self):
        # (dbar w)(X, Y) via components against the lift/bracket expression
        w = PiForm.one_form(2, [lambda x, y: y[0] * x[1], lambda x, y: x[0] + y[1]])
        X = mixed_probe(2, seed=5)
        Y = mixed_probe(2, seed=6)
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            D = pc.dbar_p(fr, w)
            xv = X.values(fr)
            yv = Y.values(fr)
            via_fields = pc.dbar_1_on_fields(fr, w, X, Y)
            assert float(xv @ D @ yv) == pytest.approx(via_fields, rel=1e-10, abs=1e-11)

    def test_invariant_formula_with_a_missing_component(self):
        # omega_0 is absent: it counts as zero in both formulas
        w = PiForm(2, 1, {(1,): lambda x, y: x[0] * y[1] + y[0]})
        X = mixed_probe(2, seed=5)
        Y = mixed_probe(2, seed=6)
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            D = pc.dbar_p(fr, w)
            assert np.abs(D).max() > 1e-3
            via_fields = pc.dbar_1_on_fields(fr, w, X, Y)
            assert float(X.values(fr) @ D @ Y.values(fr)) == pytest.approx(
                via_fields, rel=1e-10, abs=1e-11
            )


def _per_key_dbar(fr, omega):
    """The alternating sum of dbar over the components a form has, key by
    key from 0.0, each from the horizontal derivatives of its own field jet:
    the reference for dbar_p's sum over the form's stacked jet."""
    n, deg = fr.n, omega.degree
    deltas = {key: fr.delta_values(fr.field_jet(fn, 1))
              for key, fn in omega.components.items()}
    out = np.zeros(fr._lead + (n,) * (deg + 1))
    for K in combinations(range(n), deg + 1):
        val = 0.0
        for q in range(deg + 1):
            d = deltas.get(K[:q] + K[q + 1:])
            if d is not None:
                val = val + (-1.0) ** q * d[..., K[q]]
        for perm in permutations(K):
            out[(...,) + perm] = _perm_sign(perm) * val
    return out


class TestPiFormComponents:
    def test_keys_must_increase(self):
        with pytest.raises(ValueError):
            PiForm(2, 2, {(1, 0): lambda x, y: 1.0})


class TestAOperator:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_tautological_field_is_parallel(self, name):
        s = by_name(name)
        for p in s.sample(3, seed=89):
            assert np.abs(pc.a_operator(point_frame(s, p), tautological_field(s.n))).max() < 1e-12

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_adjoint_identity_for_probe_fields(self, name):
        s = by_name(name)
        probes = [
            mixed_probe(s.n, seed=1),
            GradientField(lambda x, y: x[0] * x[1] + y[0] * 0.3),
            constant_field([1.0, -0.5]),
        ]
        for p in s.sample(3, seed=89):
            fr = point_frame(s, p)
            for X in probes:
                M, B = pc.flat_form_and_selfadjoint_matrix(fr, X)
                assert float(np.max(np.abs(M - (B.T - B)))) < 1e-10

    def test_closedness_equals_selfadjointness(self):
        X = mixed_probe(2, seed=11)
        for p in SPHERE_POINTS[:3]:
            fr = point_frame(SPHERE, p)
            _, B = pc.flat_form_and_selfadjoint_matrix(fr, X)
            assert pc.closedness_defect(fr, X) == pytest.approx(
                float(np.max(np.abs(B - B.T))), rel=1e-9, abs=1e-12
            )

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_tautological_field_is_closed(self, name):
        s = by_name(name)
        for p in s.sample(3, seed=89):
            assert pc.closedness_defect(point_frame(s, p), tautological_field(s.n)) < 1e-12


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
        res = pc.dbar_sq(point_frame(e, p), f)
        assert np.abs(res.nested).max() < 1e-12
        assert np.abs(res.contracted).max() == 0.0

    def test_nested_derivative_nonzero_on_sphere(self):
        f = lambda x, y: 0.5 * y[0] * y[0]
        res = pc.dbar_sq(point_frame(SPHERE, SPHERE_POINTS[0]), f)
        assert np.abs(res.nested).max() > 1e-3


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
            assert pc.closedness_defect(point_frame(SPHERE, p), GradientField(f)) < 1e-11

    def test_fiber_dependent_gradient_not_closed_on_sphere(self):
        f = lambda x, y: 0.5 * y[0] * y[0]
        worst = max(pc.closedness_defect(point_frame(SPHERE, p), GradientField(f))
                    for p in SPHERE_POINTS)
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
        X = ComponentField([lambda x, y: x[0], lambda x, y: 0.0], name="stretch")
        rep = pc.lie_metric_report(point_frame(e, p), X)
        assert rep.lie_defect == pytest.approx(2.0, abs=1e-12)
        assert rep.closedness < 1e-12
        assert rep.difference == pytest.approx(2.0, abs=1e-12)

    def test_rotation_on_flat_plane(self):
        e = euclidean(2)
        p = e.sample(1, seed=107)[0]
        X = ComponentField([lambda x, y: -x[1], lambda x, y: x[0]], name="rotation")
        rep = pc.lie_metric_report(point_frame(e, p), X)
        assert rep.lie_defect < 1e-12
        assert rep.closedness == pytest.approx(2.0, abs=1e-12)

    def test_rotation_is_a_sphere_isometry(self):
        X = ComponentField([lambda x, y: -x[1], lambda x, y: x[0]], name="rotation")
        for p in SPHERE_POINTS[:3]:
            rep = pc.lie_metric_report(point_frame(SPHERE, p), X)
            assert rep.lie_defect < 1e-11


class TestInvolutivity:
    def test_closed_field_complement_is_involutive(self):
        e3 = euclidean(3)
        p = e3.sample(1, seed=109)[0]
        X = GradientField(lambda x, y: x[0] * x[1] + x[2] ** 2, name="gradpos")
        rep = pc.involutivity_report(point_frame(e3, p), X)
        assert rep.identity_defect < 1e-10
        assert rep.defect < 1e-10

    def test_open_field_complement_is_not(self):
        e3 = euclidean(3)
        X = ComponentField(
            [lambda x, y: 1.0 + x[1] ** 2, lambda x, y: x[0], lambda x, y: 0.4],
            name="open",
        )
        worst = 0.0
        for p in e3.sample(4, seed=109):
            rep = pc.involutivity_report(point_frame(e3, p), X)
            assert rep.identity_defect < 1e-10  # exchange identity always holds
            worst = max(worst, rep.defect)
        assert worst > 1e-3

    def test_finsler_case_identity(self):
        m3 = by_name("minkowski_quartic3")
        X = mixed_probe(3, seed=7)
        for p in m3.sample(3, seed=109):
            rep = pc.involutivity_report(point_frame(m3, p), X)
            assert rep.identity_defect < 1e-9 * rep.scale

    def test_two_dimensional_complement_has_no_pairs(self):
        p = SPHERE_POINTS[0]
        rep = pc.involutivity_report(point_frame(SPHERE, p), tautological_field(2))
        assert rep.bracket_pairings.size == 0
        assert rep.defect == 0.0

    def test_projection_is_orthogonal(self):
        p = SPHERE_POINTS[1]
        fr = point_frame(SPHERE, p)
        X = mixed_probe(2, seed=9)
        Y = ProjectedField([1.0, 0.0], X)
        xv = X.values(fr)
        yv = Y.values(fr)
        assert abs(yv @ fr.g @ xv) < 1e-14

    def test_degenerate_projection_rejected(self):
        p = SPHERE_POINTS[1]
        zero = constant_field([0.0, 0.0])
        with pytest.raises(DegenerateFieldError):
            ProjectedField([1.0, 0.0], zero).jets(point_frame(SPHERE, p))
