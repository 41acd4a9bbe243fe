"""Catalog structures: values, homogeneity, domains, and the JSON spec loader."""

import json
import warnings

import numpy as np
import pytest

from finslerkit.chart import ChartPoint
from finslerkit.checks import check_ids, run_checks
from finslerkit.cli import main
from finslerkit.errors import DomainError, FinslerError
from finslerkit.frame import PointFrame, point_frame, quad
from finslerkit.structures import (
    by_name,
    conformal_change,
    euclidean,
    minkowski_quartic,
    randers_change,
    randers_sphere2,
    riemannian,
    sphere2,
    structure_from_spec,
)

from conftest import CATALOG_NAMES


class TestCatalog:
    def test_catalog_has_five_structures(self):
        built = [by_name(n) for n in CATALOG_NAMES]
        assert [s.name for s in built] == [
            "euclidean2",
            "minkowski_quartic2",
            "sphere2",
            "randers_sphere2",
            "conformal_quartic2",
        ]
        assert all(s.n == 2 for s in built)

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
            point_frame(s, ChartPoint((0.0, 0.0), (1.0, 0.001)))


STRONG_DRIFT = {"family": "randers", "base": {"family": "euclidean", "dim": 2}, "b": [1.2, 0]}

# one spec of each family, and changes over a base with a domain
SPECS = {
    "euclidean": {"family": "euclidean", "dim": 2},
    "minkowski_quartic": {"family": "minkowski_quartic", "dim": 3},
    "riemannian": {"family": "riemannian", "dim": 2, "a": [[1, 0], [0, 1]]},
    "preset": {"family": "riemannian", "preset": "sphere2"},
    "randers": {"family": "randers", "base": {"family": "riemannian", "preset": "sphere2"},
                "b": [0.1, 0.0]},
    "strong-drift": STRONG_DRIFT,
    "conformal": {"family": "conformal", "base": {"family": "euclidean", "dim": 2},
                  "sigma": 0.3},
    "conformal-quartic": {"family": "conformal", "base": {"family": "minkowski_quartic", "dim": 3},
                          "sigma": {"terms": [{"coef": 0.3, "powers": [1, 0, 0]}]}},
    "randers-quartic": {"family": "randers", "base": {"family": "minkowski_quartic", "dim": 2},
                        "b": [0.1, {"terms": [{"coef": 0.1, "powers": [1, 0]}]}]},
}


class TestRandersValidation:
    # |b| = 1.2 >= 1: L* = |y| + 1.2 y^1 is negative where y leans against b,
    # and the frames that read L* say so at the first such point of their batch

    def test_strong_drift_fails_each_check_at_its_first_point_outside_the_cone(self):
        F = structure_from_spec(STRONG_DRIFT)
        first = next(p for p in F.sample(200, seed=0) if F.L(p.x, p.y) <= 0.0)
        with pytest.raises(DomainError) as err:
            PointFrame(F, (first,)).L_jet
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = run_checks(F, check_ids(), 200, 0, 1e-7, 1e-3)
        outcome = {r.check_id: (r.verdict, r.details.get("error")) for r in results}
        assert outcome.pop("jets.fd") == ("PASS", None)  # its three points are in the cone
        assert set(outcome.values()) == {("FAIL", f"DomainError: {err.value}")}

    def test_strong_drift_verify_writes_its_report(self, tmp_path):
        spec, out = tmp_path / "strong.json", tmp_path / "report.json"
        spec.write_text(json.dumps(STRONG_DRIFT))
        code = main(["verify", "--metric", str(spec), "--checks", "all",
                     "--points", "200", "--out", str(out)])
        assert code == 1
        verdicts = [c["verdict"] for c in json.loads(out.read_text())["checks"]]
        assert verdicts.count("FAIL") == len(check_ids()) - 1

    def test_strong_drift_eval_is_refused_only_outside_the_cone(self, tmp_path, capsys):
        spec = tmp_path / "strong.json"
        spec.write_text(json.dumps(STRONG_DRIFT))
        eval_at = lambda at: main(["eval", "--metric", str(spec), "--at", at, "--object", "Sc"])
        assert eval_at("x=0.1,0.2;y=1.0,0.5") == 0
        assert capsys.readouterr().out == (
            "randers(euclidean2) at x=[0.1, 0.2] y=[1.0, 0.5]: Sc =\n0\n")
        assert eval_at("x=0.1,0.2;y=-1.0,0.5") == 1
        assert capsys.readouterr().err == (
            "error: Lagrangian is -0.082 <= 0 at ChartPoint(x=(0.1, 0.2), y=(-1.0, 0.5)); "
            "point lies outside the positivity cone\n")

    def test_metadata_links_base(self):
        s = randers_sphere2()
        assert s.meta["base"].name == "sphere2"
        assert tuple(s.meta["b_fn"]((0.0, 0.0))) == (0.2, 0.0)


class TestBuildingReadsNoFrame:
    @pytest.fixture(autouse=True)
    def refuse_frames(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("building a structure built a PointFrame")
        monkeypatch.setattr(PointFrame, "__init__", refuse)

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    def test_by_name(self, name):
        assert by_name(name).name == name

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_structure_from_spec(self, name):
        assert structure_from_spec(SPECS[name]).n >= 2


class TestSamplesStayInTheirDomain:
    # a sample draws x from [-box, box]^n and |y| from [0.5, 2], and keeps a
    # point only inside the structure's domain, which a change inherits

    def _assert_inside(self, F):
        points, s = F.sample(300, seed=5), F
        while s is not None:  # the structure and each base it is a change of
            assert all(s.domain(p.x, p.y) for p in points), s.name
            assert s.box == F.box
            s = s.meta.get("base")
        assert max(abs(v) for p in points for v in p.x) <= F.box
        norms = [np.hypot.reduce(p.y) for p in points]
        assert 0.5 - 1e-12 <= min(norms) and max(norms) <= 2.0 + 1e-12

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    def test_catalog(self, name):
        self._assert_inside(by_name(name))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_spec_family(self, name):
        self._assert_inside(structure_from_spec(SPECS[name]))


class TestRandersSphere2Domain:
    # L* is Finsler where |b|_g = 0.1 (1 + |x|^2) < 1: the open disc |x|^2 < 9

    def test_the_domain_is_the_open_disc(self):
        F, y = randers_sphere2(), (-1.0, 0.001)
        assert F.domain((2.9, 0.0), y) and F.domain((2.12, 2.12), y)
        assert not F.domain((3.0, 0.0), y) and not F.domain((0.0, -3.0), y)
        assert not F.domain((2.13, 2.13), y)
        assert sphere2().domain((3.0, 0.0), y)  # the base's chart is the closed disc

    @pytest.mark.parametrize("y", ["-1,0.001", "-1,0"])
    def test_eval_on_the_circle_names_the_domain(self, y, capsys):
        code = main(["eval", "--metric", "randers_sphere2", "--at", f"x=3,0;y={y}",
                     "--object", "g"])
        assert code == 1
        yv = tuple(float(v) for v in y.split(","))
        assert capsys.readouterr().err == (
            f"error: ChartPoint(x=(3.0, 0.0), y={yv}) is outside the domain "
            "of randers_sphere2\n")

    def test_eval_inside_the_disc_is_answered(self, capsys):
        assert main(["eval", "--metric", "randers_sphere2", "--at", "x=2.9,0;y=-1,0.001",
                     "--object", "g"]) == 0
        assert capsys.readouterr().out.startswith(
            "randers_sphere2 at x=[2.9, 0.0] y=[-1.0, 0.001]: g =\n")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_catalog_drift_stays_inside_the_unit_ball(seed):
    # |b|_g = 0.1 (1 + |x|^2) on randers_sphere2, below 1 wherever it samples
    F = randers_sphere2()
    fr = PointFrame(F.meta["base"], tuple(F.sample(1000, seed)))
    b = np.array([F.meta["b_fn"](p.x) for p in fr.point], dtype=float)
    assert quad(b, fr.g_inv, b).max() < 1.0


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

    @pytest.mark.parametrize("a", [
        [[1, 0], [0.5, 1]],
        [[1, 0.5], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, {"terms": [{"coef": 0.1, "powers": [1, 0, 0]}]}, 1]],
    ])
    def test_an_asymmetric_coefficient_table_is_rejected(self, a):
        with pytest.raises(ValueError, match="metric field 'a' must be symmetric"):
            structure_from_spec({"family": "riemannian", "dim": len(a), "a": a})

    def test_a_symmetric_table_is_compared_as_written(self):
        # 0.5 and 0.5, and one term spec with its keys in either order, are
        # equal as written; a_12 = a_21 = 0.1 x1
        term = {"terms": [{"coef": 0.1, "powers": [1, 0]}]}
        flipped = {"terms": [{"powers": [1, 0], "coef": 0.1}]}
        s = structure_from_spec({"family": "riemannian", "dim": 2,
                                 "a": [[1, term], [flipped, 1]]})
        g = PointFrame(s, ChartPoint((0.5, 0.0), (1.0, 1.0))).g[0]
        assert np.allclose(g, [[1.0, 0.05], [0.05, 1.0]], rtol=0.0, atol=1e-16)
        assert s.L((0.5, 0.0), (1.0, 1.0)) == pytest.approx(np.sqrt(2.1), rel=1e-13)

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
        with pytest.raises(ValueError, match="unknown metric family"):
            structure_from_spec({"family": ["euclidean"], "dim": 2})  # unhashable

    @pytest.mark.parametrize("name", [["x"], {"x": 1}, 3, None])
    @pytest.mark.parametrize("spec", [
        {"family": "riemannian", "dim": 2, "a": [[1, 0], [0, 1]]},
        {"family": "randers", "base": {"family": "riemannian", "preset": "sphere2"},
         "b": [0.1, 0.0]},
        {"family": "conformal", "base": {"family": "euclidean", "dim": 2}, "sigma": 0.3},
    ], ids=["riemannian", "randers", "conformal"])
    def test_a_name_must_be_a_string(self, spec, name):
        # the name is printed by `finsler eval` and written as a report's metric_name
        with pytest.raises(ValueError, match="metric field 'name' must be a string"):
            structure_from_spec(dict(spec, name=name))
        assert structure_from_spec(dict(spec, name="mine")).name == "mine"


class TestFrameGuards:
    def test_sphere2_g_is_its_coefficient_table(self):
        # g_ij = a_ij(x) = 4 delta_ij / (1 + |x|^2)^2; 4 delta_ij at x = 0
        s = sphere2()
        points = tuple(s.sample(50, seed=0)) + (ChartPoint((0.0, 0.0), (1.0, 0.3)),)
        c = np.array([4.0 / (1.0 + p.x[0] ** 2 + p.x[1] ** 2) ** 2 for p in points])
        g = PointFrame(s, points).g
        assert np.allclose(g, c[:, None, None] * np.eye(2), rtol=0.0, atol=1e-14)
        assert np.allclose(g[-1], 4.0 * np.eye(2))

    def test_riemannian_reads_the_upper_triangle(self):
        # a_fn's entries below the diagonal are not read: the 0.5 is dropped,
        # and g is the identity table's, bit for bit
        lower = riemannian(lambda x: [[1.0, 0.0], [0.5, 1.0]], 2)
        unit = riemannian(lambda x: [[1.0, 0.0], [0.0, 1.0]], 2)
        points = tuple(lower.sample(20, seed=0))
        g = PointFrame(lower, points).g
        assert g.tobytes() == PointFrame(unit, points).g.tobytes()
        assert np.allclose(g, np.eye(2), rtol=0.0, atol=1e-15)

    def test_custom_riemannian_positive_definite_guard(self):
        # a degenerate coefficient matrix must surface once the frame is used
        bad = riemannian(lambda x: np.zeros((2, 2)), 2, name="degenerate")
        p = bad.sample(1, seed=1)[0]
        with pytest.raises(FinslerError):
            point_frame(bad, p).g
