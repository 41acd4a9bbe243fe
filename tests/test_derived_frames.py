"""Frames of a Randers or conformal change that lift their base frame's
Lagrangian jet (`PointFrame.derived`) against frames that evaluate the
changed Lagrangian from scratch: the jets must agree byte for byte."""

import pytest

from finslerkit.checks import check_ids, run_checks
from finslerkit.chart import ChartPoint
from finslerkit.errors import DomainError, NumericalError
from finslerkit.frame import PointFrame
from finslerkit.jets import MAX_ORDER, Jet, field_value, jet_eval, sqrt
from finslerkit.structures import (
    FinslerStructure,
    conformal_change,
    minkowski_quartic,
    randers_change,
    riemannian,
    sphere2,
    structure_from_spec,
)

# conformal over Randers over sphere2, both changes x-dependent
NESTED = {
    "family": "conformal",
    "sigma": {"terms": [{"coef": 0.3, "powers": [1, 0]}]},
    "base": {
        "family": "randers",
        "b": [0.2, {"terms": [{"coef": 0.1, "powers": [0, 1]}]}],
        "base": {"family": "riemannian", "preset": "sphere2"},
    },
}


def _changes():
    s, q = sphere2(), minkowski_quartic(2)
    return {
        "conformal[const]": conformal_change(s, 0.25),
        "conformal[x]": conformal_change(q, lambda x: 0.3 * x[0] - 0.2 * x[0] * x[1]),
        "randers[const]": randers_change(s, (0.2, 0.0), validate=False),
        "randers[x]": randers_change(s, lambda x: [0.1 * x[1], 0.2 - 0.05 * x[0]]),
        "nested": structure_from_spec(NESTED),
    }


def _chain(structure):
    """The structure and its bases, the innermost first."""
    out = [structure]
    while "base" in out[0].meta:
        out.insert(0, out[0].meta["base"])
    return out


@pytest.mark.parametrize("name", sorted(_changes()))
@pytest.mark.parametrize("count", [1, 3, 300], ids=["P=1", "stack3", "stack300"])
def test_a_derived_frame_lifts_the_bits_of_its_lagrangian(name, count):
    structure = _changes()[name]
    pts = structure.sample(count, seed=7)
    point = pts[0] if count == 1 else tuple(pts)
    chain = _chain(structure)
    fr = PointFrame(chain[0], point)
    for s in chain[1:]:  # every level of a nested change lifts the one below
        fr = fr.derived(s)
        want = jet_eval(s.L, point, MAX_ORDER)
        assert fr.L_jet.coeffs.shape == want.coeffs.shape
        assert fr.L_jet.coeffs.tobytes() == want.coeffs.tobytes(), s.name
    assert len(chain) == (3 if name == "nested" else 2)


def test_derived_rejects_a_structure_of_another_base():
    s = sphere2()
    p = s.sample(1, seed=0)[0]
    fr = PointFrame(s, p)
    for foreign in (conformal_change(sphere2(), 0.25), sphere2(),
                    conformal_change(conformal_change(s, 0.25), 0.5)):
        with pytest.raises(ValueError, match="is not a change of"):
            fr.derived(foreign)
    assert fr.derived(conformal_change(s, 0.25)).L_jet.value > 0.0


def test_a_derived_frame_keeps_the_positivity_check():
    # at x = 0 sphere2 has a_ij = 4 delta_ij, so b_1 = -3 takes
    # L* = 2 |y| - 3 y^1 below zero at y = (1, 0.1)
    s = sphere2()
    star = randers_change(s, (-3.0, 0.0), validate=False)
    p = ChartPoint((0.0, 0.0), (1.0, 0.1))
    with pytest.raises(DomainError) as alone:
        PointFrame(star, p).L_jet
    with pytest.raises(DomainError) as lifted:
        PointFrame(s, p).derived(star).L_jet
    assert str(lifted.value) == str(alone.value)
    assert "positivity cone" in str(alone.value)


def test_a_derived_frame_names_the_point_its_lagrangian_fails_at():
    # L~ = sqrt(L - 1) over sphere2 fails where L < 1, first at point 3 of
    # the sample. The float pass runs the change's own Lagrangian point by
    # point; the lift holds the whole batch's base jet, so at point 0 it
    # would meet point 3's root already
    s = sphere2()
    lift = lambda x, y, Lb: sqrt(Lb - 1.0)
    change = FinslerStructure(n=2, L=lambda x, y: lift(x, y, s.L(x, y)), name="shifted",
                              domain=s.domain, sample_domain=s.sample_domain,
                              meta={"base": s, "lift": lift})
    pts = tuple(s.sample(20, seed=0))
    with pytest.raises(NumericalError) as alone:
        PointFrame(change, pts).L_jet
    with pytest.raises(NumericalError) as lifted:
        PointFrame(s, pts).derived(change).L_jet
    assert str(lifted.value) == str(alone.value)
    assert str(alone.value).endswith(f" at {pts[3]}")
    assert [field_value(s.L, p) < 1.0 for p in pts[:4]] == [False] * 3 + [True]


def test_a_sphere2_run_evaluates_the_base_lagrangian_twice_on_order_4_jets():
    # the sample and the scaled points of struct.homogeneity; the Randers
    # star and the two conformal tildes lift the sample frame's jet, where
    # each evaluated the base Lagrangian again
    s = sphere2()
    a_fn = s.meta["a_fn"]
    orders = []

    def counted(x):
        if isinstance(x[0], Jet):
            orders.append(x[0].order)
        return a_fn(x)

    counting = riemannian(counted, 2, name="sphere2", domain=s.domain,
                          sample_domain=s.sample_domain)
    results = run_checks(counting, check_ids(), 20, 0, 1e-7, 1e-3)
    assert orders.count(MAX_ORDER) == 2
    want = run_checks(s, check_ids(), 20, 0, 1e-7, 1e-3)
    assert [(r.verdict, r.max_residual) for r in results] \
        == [(r.verdict, r.max_residual) for r in want]
