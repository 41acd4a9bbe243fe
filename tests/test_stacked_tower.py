"""The stacked PointFrame tower and field calculus against their
component-by-component reference in tower_oracle, and batch frames
against standalone ones: every rung must agree exactly."""

import collections
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import checks, connections, curvature, jets
from finslerkit import picalc as pc
from finslerkit import frame as frame_module
from finslerkit.checks import _probe_fields, _probe_scalars, check_ids, run_checks
from finslerkit.chart import ChartPoint
from finslerkit.errors import FinslerError, SingularMetricError
from finslerkit.fields import (GradientField, PiVectorField, covector_jets,
                               drift_companion_jets, project_away)
from finslerkit.frame import PointFrame, point_frame
from finslerkit.jets import Jet, jet_solve
from finslerkit.structures import by_name, conformal_change, randers_change, structure_from_spec

from conftest import CATALOG_NAMES
import tower_oracle as oracle
from test_report_hashes import INDEFINITE, LATE
from tower_oracle import ScalarTower, stack

ALL_NAMES = CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stacked_rungs_equal_scalar_reference(name):
    s = by_name(name)
    for p in s.sample(20, seed=0):
        fr = PointFrame(s, p)
        ref = ScalarTower(s, p)
        jets = {
            "g_jets": ref.g_jets,
            "ginv_jets": ref.ginv_jets,
            "G_jets": ref.G_jets,
            "N_jets": ref.N_jets,
            "_dg_jets": ref.dg_jets,
            "F_jets": ref.F_jets,
        }
        for rung, expect in jets.items():
            assert np.array_equal(getattr(fr, rung).coeffs[0], stack(expect)), (rung, p)
        assert np.array_equal(fr.Rhat[0], ref.Rhat), p
        assert np.array_equal(fr.hcurv[0], ref.hcurv), p
        assert fr.scalar == ref.scalar, p


# -- pi-vector fields -----------------------------------------------------------------


class _Projection(PiVectorField):
    """A constant vector g-projected away from X by `project_away`, as the
    involutivity probe projects the coordinate directions."""

    def __init__(self, vec, X):
        self.vec, self.X = vec, X

    def jets(self, frame):
        return project_away(frame, self.vec, self.X.jets(frame))


class _Companion(PiVectorField):
    """The drift companion of a positional covector b, as prop.randers builds it."""

    def __init__(self, b_fn):
        self.b_fn = b_fn

    def jets(self, frame):
        return drift_companion_jets(frame, covector_jets(frame, self.b_fn))


def _drift(s):
    """A positional drift covector on s, not closed (d_1 b_2 = 0.1)."""
    return lambda x: [0.2] + [0.1 * x[0]] * (s.n - 1)


def _fields(s):
    """Every field the checks use: the thm2.6 probes (component fields and
    gradients), a drift companion, and g-projections of the coordinate
    directions away from two of the probes."""
    probes = _probe_fields(s, 0, 26)
    companion = _Companion(_drift(s))
    projected = [_Projection(np.eye(s.n)[a], X) for X in (probes[2], probes[5])
                 for a in range(s.n)]
    return probes + [companion] + projected


def _reference_jets(X, frame):
    """tower_oracle's component jets of a field of `_fields`."""
    if isinstance(X, _Projection):
        return oracle.projected_jets(X.vec, X.X, frame, 1)
    if isinstance(X, _Companion):
        return oracle.drift_companion_jets(X.b_fn, frame, 1)
    return oracle.field_jets(X, frame, 1)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stacked_field_calculus_equals_component_reference(name):
    s = by_name(name)
    fields = _fields(s)
    for p in s.sample(20, seed=0):
        fr = PointFrame(s, p)
        stacked = [X.jets(fr) for X in fields]
        listed = [_reference_jets(X, fr) for X in fields]
        for X, Xj, ref in zip(fields, stacked, listed):
            assert Xj.coeffs[0].tobytes() == stack(ref).tobytes(), (X, p)
            w, w_ref = fr.flat_jets(Xj), oracle.lowered_jets(fr, ref)
            assert w.coeffs[0].tobytes() == stack(w_ref).tobytes(), (X, p)
            assert pc.dbar_p(fr, w)[0].tobytes() == oracle.dbar_matrix(fr, w_ref).tobytes()
            assert (pc.a_operator(fr, Xj)[0].tobytes()
                    == oracle.nabla_h_matrix(fr, ref).tobytes()), (X, p)
        for a in range(len(fields)):
            b = (a + 3) % len(fields)
            assert (pc._bracket(fr, stacked[a], stacked[b])[0].tobytes()
                    == oracle.bracket(fr, listed[a], listed[b]).tobytes()), (a, b, p)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_field_jets_on_a_batch_frame_equal_each_point(name):
    s = by_name(name)
    pts = s.sample(20, seed=0)
    batch = PointFrame(s, tuple(pts))
    for X in _fields(s):
        whole = X.jets(batch).coeffs
        assert whole.shape == (len(pts), s.n, 2 * s.n + 1)
        for i, p in enumerate(pts):
            assert whole[i].tobytes() == X.jets(PointFrame(s, p)).coeffs[0].tobytes(), (X, p)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stacked_projections_equal_component_reference(name):
    # the n candidates of the involutivity probe, projected in one stack from
    # the jets of X, against the reference projection of each alone
    s = by_name(name)
    probes = _probe_fields(s, 0, 26)
    pts = s.sample(20, seed=0)
    batch = PointFrame(s, tuple(pts))
    for X in (probes[2], probes[5]):
        whole = project_away(batch, np.eye(s.n), X.jets(batch)[..., None, :, :]).coeffs
        for i, p in enumerate(pts):
            fr = PointFrame(s, p)
            one = project_away(fr, np.eye(s.n), X.jets(fr)[..., None, :, :]).coeffs[0]
            assert whole[i].tobytes() == one.tobytes(), (X, p)
            for a in range(s.n):
                ref = oracle.projected_jets(np.eye(s.n)[a], X, fr, 1)
                assert one[a].tobytes() == stack(ref).tobytes(), (X, a, p)


def _entry_point_calls(s):
    """Every picalc, connections and curvature entry point, as (label, call)
    of a frame of s; the transfer reports also build a frame of the changed
    structure at the frame's points."""
    n = s.n
    probes = _probe_fields(s, 0, 26)
    scalars = _probe_scalars(s, 0, 88)
    closed = GradientField(scalars[1])
    form = {(i,): (lambda i: (lambda x, y: x[i] * y[0]))(i) for i in range(n)}
    drift = _drift(s)
    star = randers_change(s, drift)
    tilde = conformal_change(s, lambda x: 0.3 * x[0] * x[-1])
    return [
        ("dbar_p", lambda fr: pc.dbar_p(fr, oracle.form_jets(fr, form))),
        ("dbar_1_on_fields", lambda fr: oracle.dbar_1_on_fields(
            fr, oracle.form_jets(fr, form), probes[0].jets(fr), probes[3].jets(fr))),
        ("a_operator", lambda fr: pc.a_operator(fr, probes[4].jets(fr))),
        ("closedness_defect", lambda fr: pc.closedness_defect(fr, probes[5].jets(fr))),
        ("flat_form_and_selfadjoint_matrix",
         lambda fr: pc.flat_form_and_selfadjoint_matrix(fr, probes[2].jets(fr))),
        ("dbar_sq", lambda fr: pc.dbar_sq(fr, scalars[1])),
        ("gradient_torsion_identity", lambda fr: pc.gradient_torsion_identity(fr, scalars[0])),
        ("isotropy_residual", lambda fr: pc.isotropy_residual(fr, scalars[2])),
        ("lie_metric_report", lambda fr: pc.lie_metric_report(fr, probes[1].jets(fr))),
        ("involutivity_report[closed]", lambda fr: pc.involutivity_report(fr, closed.jets(fr))),
        ("involutivity_report[open]",
         lambda fr: pc.involutivity_report(fr, probes[3].jets(fr))),
        ("drift_closedness_transfer", lambda fr: pc.drift_closedness_transfer(
            fr, PointFrame(star, fr.point), covector_jets(fr, drift))),
        ("drift_precondition_defect",
         lambda fr: pc.drift_precondition_defect(covector_jets(fr, drift))),
        ("conformal_closedness_transfer", lambda fr: pc.conformal_closedness_transfer(
            fr, (PointFrame(tilde, fr.point),), probes[0].jets(fr))[0]),
        ("spray_defect", lambda fr: connections.spray_defect(fr)),
        ("deflection_defect", lambda fr: connections.deflection_defect(fr)),
        ("conservativity_defect", lambda fr: connections.conservativity_defect(fr)),
        ("torsion_defect", lambda fr: connections.torsion_defect(fr)),
        ("metricity_defect", lambda fr: connections.metricity_defect(fr)),
        ("projector_defects", lambda fr: connections.projector_defects(fr)),
        ("curvature_contraction_defect",
         lambda fr: curvature.curvature_contraction_defect(fr)),
        ("scalar_form_check", lambda fr: curvature.scalar_form_check(fr)),
        ("scalar_form_check[conformal]",
         lambda fr: curvature.scalar_form_check(PointFrame(tilde, fr.point))),
    ]


def _parts(value):
    """The numbers of a result as (type, bytes) pairs; dataclass reports by field."""
    if hasattr(value, "__dataclass_fields__"):
        return [part for f in value.__dataclass_fields__ for part in _parts(getattr(value, f))]
    if isinstance(value, tuple):
        return [part for v in value for part in _parts(v)]
    if isinstance(value, (bool, float)):
        return [(type(value), np.float64(value).tobytes())]
    return [(np.ndarray, value.shape, np.ascontiguousarray(value).tobytes())]


def _point_part(value, i):
    """Point i of a result computed on a batch."""
    if hasattr(value, "__dataclass_fields__"):
        return type(value)(**{f: _point_part(getattr(value, f), i)
                              for f in value.__dataclass_fields__})
    if isinstance(value, tuple):
        return tuple(_point_part(v, i) for v in value)
    if isinstance(value, bool):
        return value
    part = np.asarray(value)[i] if np.ndim(value) else value
    return float(part) if np.ndim(part) == 0 and not isinstance(part, bool) else part


@pytest.mark.parametrize("name", ALL_NAMES)
def test_entry_points_on_a_batch_equal_each_point(name):
    # one code path: point i of a result on a batch is point 0 of the result
    # on a frame at that point alone
    s = by_name(name)
    pts = s.sample(8, seed=4)
    batch = PointFrame(s, tuple(pts))
    alone = [PointFrame(s, p) for p in pts]
    for label, call in _entry_point_calls(s):
        whole = call(batch)
        for i, p in enumerate(pts):
            one = call(alone[i])
            assert all(part[0] is bool or part[1][:1] == (1,) for part in _parts(one)), label
            assert _parts(_point_part(whole, i)) == _parts(_point_part(one, 0)), (label, p)


# -- the point axis ----------------------------------------------------------------

FRAME_ATTRS = ("L_jet", "E_jet", "_E_dy", "g_jets", "g", "g_inv", "ginv_jets", "ell",
               "phi", "C3", "Cmix", "G_jets", "G", "N_jets", "N", "_dg_jets", "F_jets",
               "F", "Rhat", "hcurv", "ricci", "scalar")


def _raw(value) -> bytes:
    """Bytes of a frame quantity, with its shape and memory layout."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    arr = value.coeffs if isinstance(value, Jet) else value
    return arr.tobytes() + repr((arr.shape, arr.strides)).encode()


def _part(value, i) -> bytes:
    """`_raw` of point i of a batch frame's quantity."""
    return _raw((value.coeffs if isinstance(value, Jet) else value)[i])


def _outcome(frame, attr):
    try:
        return _raw(getattr(frame, attr))
    except FinslerError as exc:
        return type(exc), str(exc)


def _requested_field_jets(s, frame):
    """The field jets the checks ask a frame for: probe scalars to order 2,
    probe fields and companion fields to order 1."""
    out = []
    for tag in (28, 88, 212):
        out += [frame.field_jet(f, order) for f in _probe_scalars(s, 0, tag)
                for order in (1, 2)]
    for X in _probe_fields(s, 0, 26):
        out.append(X.jets(frame))
    out.append(drift_companion_jets(frame, covector_jets(frame, _drift(s))))
    out.append(frame.field_jet(lambda x, y: x[0], 1))
    return out


@pytest.mark.parametrize("name", ALL_NAMES)
def test_batched_frames_equal_standalone_frames(name):
    # a frame on a bare point is the batch of one: every quantity but the
    # scalar has the bytes and a point axis of length 1; its scalar is the
    # Python float of that one point
    s = by_name(name)
    pts = s.sample(20, seed=0)
    batch = PointFrame(s, tuple(pts))
    field_jets = _requested_field_jets(s, batch)
    for i, p in enumerate(pts):
        alone, one = PointFrame(s, p), PointFrame(s, (p,))
        ref = ScalarTower(s, p)
        for attr in FRAME_ATTRS[:-1]:  # all but the scalar
            value = getattr(one, attr)
            assert (value.coeffs if isinstance(value, Jet) else value).shape[0] == 1, attr
            assert _raw(getattr(alone, attr)) == _raw(value), (attr, p)
            assert _part(getattr(batch, attr), i) == _part(value, 0), (attr, p)
        scalar = point_frame(s, p).scalar
        assert type(scalar) is float and type(alone.scalar) is float
        assert np.float64(scalar).tobytes() == one.scalar[0].tobytes() == batch.scalar[i].tobytes()
        assert one.scalar.shape == (1,)
        for rung, expect in (("g_jets", ref.g_jets), ("ginv_jets", ref.ginv_jets),
                             ("G_jets", ref.G_jets), ("N_jets", ref.N_jets),
                             ("_dg_jets", ref.dg_jets), ("F_jets", ref.F_jets)):
            assert np.array_equal(getattr(batch, rung).coeffs[i], stack(expect)), (rung, p)
        assert np.array_equal(batch.Rhat[i], ref.Rhat) and np.array_equal(batch.hcurv[i], ref.hcurv)
        assert batch.scalar[i] == ref.scalar
        assert ([_part(jet, i) for jet in field_jets]
                == [_part(jet, 0) for jet in _requested_field_jets(s, alone)]), p
    assert not batch.g.flags.writeable and not batch.field_jet(s.L, 1).coeffs.flags.writeable


def _inverse(A: Jet) -> np.ndarray:
    """The inverse of A's value matrices, the `inv` argument of jet_solve."""
    return np.linalg.inv(A.coeffs[..., 0])


def test_stacked_solve_equals_each_systems_solve():
    rng = np.random.default_rng(5)
    A = Jet(6, 2, rng.standard_normal((40, 3, 3, 28)))
    B = Jet(6, 1, rng.standard_normal((40, 3, 2, 7)))
    inv = _inverse(A)
    X = jet_solve(A, B, inv)
    for i in range(40):
        assert X.coeffs[i].tobytes() == jet_solve(A[i], B[i], inv[i]).coeffs.tobytes(), i


@st.composite
def _jet_systems(draw):
    """(A, B) for jet_solve: P = 1 or a stack of systems whose value matrices
    are row permutations of diagonally dominant ones."""
    n, order = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    nvars, m = draw(st.sampled_from([2, 4])), draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (3,), (70,)]))
    a_order = draw(st.integers(order, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal(lead + (n, n, math.comb(nvars + a_order, a_order)))
    values = 0.1 * rng.standard_normal(lead + (n, n)) + 3.0 * np.eye(n)
    rows = np.argsort(rng.random(lead + (n,)), axis=-1)  # a permutation per system
    a[..., 0] = np.take_along_axis(values, rows[..., None], axis=-2)
    b_lead = lead if draw(st.booleans()) else ()  # B may broadcast over the points
    b = rng.standard_normal(b_lead + (n, m, math.comb(nvars + order, order)))
    return Jet(nvars, a_order, a), Jet(nvars, order, b)


def _oracle_solve(A, B, inv):
    """tower_oracle.jet_solve of one system, as its (n, m, T) coefficients."""
    n, m = B.coeffs.shape[-3:-1]
    X = oracle.jet_solve([[A[i, j] for j in range(n)] for i in range(n)],
                         [[B[i, j] for j in range(m)] for i in range(n)], inv)
    return np.array([[x.coeffs for x in row] for row in X])


@given(_jet_systems())
@settings(max_examples=40, deadline=None)
def test_jet_solve_equals_the_component_oracle(system):
    A, B = system
    inv = _inverse(A)
    got = jet_solve(A, B, inv).coeffs
    if A.coeffs.ndim == 3:
        want = _oracle_solve(A, B, inv)
    else:
        b = np.broadcast_to(B.coeffs, A.coeffs.shape[:-3] + B.coeffs.shape[-3:])
        want = np.stack([_oracle_solve(A[i], Jet(B.nvars, B.order, b[i]), inv[i])
                         for i in range(len(A.coeffs))])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _residual_ratio(A, B, X):
    """max |A X - B| / (max |A| max |X|) of each system, A X a jet product."""
    A = A.truncated(B.order)
    Xt = Jet(X.nvars, X.order, X.coeffs.swapaxes(-3, -2))  # [..., m, j]
    R = ((A[..., :, None, :, :] * Xt[..., None, :, :, :]).sum_last() - B).coeffs
    size = lambda c: np.abs(c).max(axis=(-3, -2, -1))
    return size(R) / (size(A.coeffs) * size(X.coeffs))


# Round-off bound on the residual ratio: the largest of two runs of 2000
# drawn systems each was 8.9e-16, and the bound is 4.5 times that
_RESIDUAL_BOUND = 4e-15


@given(_jet_systems())
@settings(max_examples=60, deadline=None)
def test_jet_solve_solves_the_system_in_the_jet_ring(system):
    A, B = system
    X = jet_solve(A, B, _inverse(A))
    assert np.all(_residual_ratio(A, B, X) <= _RESIDUAL_BOUND)
# The recursion against Gauss-Jordan elimination on the frame's systems: the
# largest move measured over the 7 metrics at 20 points (seed 0) was 4.47e-15
# of max |X| (conformal_quartic2, G_jets); the bound is 2.2 times that.
_GAUSS_JORDAN_BOUND = 1e-14


def _gauss_jordan_rungs(s, p):
    """ginv_jets and G_jets at p by tower_oracle.gauss_jordan_solve."""
    ref, n = ScalarTower(s, p), s.n
    A = [[jet.truncated(1) for jet in row] for row in ref.g_jets]
    eye = [[Jet.constant(2 * n, 1, float(i == j)) for j in range(n)] for i in range(n)]
    return {"ginv_jets": stack(oracle.gauss_jordan_solve(A, eye)),
            "G_jets": stack(oracle.gauss_jordan_solve(ref.g_jets, ref.G_rhs))[:, 0]}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_solves_equal_gauss_jordan_to_round_off(name):
    s = by_name(name)
    pts = s.sample(20, seed=0)
    batch = PointFrame(s, tuple(pts))
    for i, p in enumerate(pts):
        alone = PointFrame(s, p)
        for rung, want in _gauss_jordan_rungs(s, p).items():
            for got in (getattr(alone, rung).coeffs, getattr(batch, rung).coeffs[i]):
                bound = _GAUSS_JORDAN_BOUND * np.abs(got).max()
                assert np.abs(got - want).max() <= bound, (rung, p)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_ginv_jets_value_is_g_inv(name):
    s = by_name(name)
    pts = s.sample(20, seed=0)
    for fr in [PointFrame(s, p) for p in pts] + [PointFrame(s, tuple(pts))]:
        assert fr.ginv_jets.value.tobytes() == fr.g_inv.tobytes()


@pytest.mark.parametrize("a22, words", [(0, "not positive definite"),
                                        (1e-13, "numerically singular")])
def test_a_singular_metric_raises_from_the_guard_at_the_solves(a22, words):
    s = structure_from_spec({"family": "riemannian", "dim": 2, "a": [[1, 0], [0, a22]]})
    pts = s.sample(5, seed=0)
    for rung in ("ginv_jets", "G_jets"):
        # a batch names its first point
        for fr, at in ((PointFrame(s, pts[2]), pts[2]), (PointFrame(s, tuple(pts)), pts[0])):
            with pytest.raises(SingularMetricError) as info:
                getattr(fr, rung)
            assert words in str(info.value) and str(at) in str(info.value)


def test_batch_errors_stay_with_their_points():
    # the sample of test_indefinite_metric_is_reported_not_raised: some points
    # leave the positivity cone, the others have an indefinite g. The batch
    # raises for all of its points the error its first point outside the cone
    # raises alone, naming that point (g reads L_jet); a batch of the points
    # inside the cone raises g's error, naming its first point
    s = structure_from_spec({"family": "riemannian", "dim": 2, "a": [[1, 0], [0, -1]]})
    pts = s.sample(20, seed=0)
    alone = [_outcome(PointFrame(s, p), "L_jet") for p in pts]
    outside = [p for p, got in zip(pts, alone) if isinstance(got, tuple)]
    inside = [p for p, got in zip(pts, alone) if not isinstance(got, tuple)]
    assert outside and inside
    batch = PointFrame(s, tuple(pts))
    for attr in ("L_jet", "g"):
        assert _outcome(batch, attr) == alone[pts.index(outside[0])], attr
    kind, message = _outcome(PointFrame(s, tuple(inside)), "g")
    assert kind is SingularMetricError and str(inside[0]) in message


def test_a_stencil_point_outside_the_cone_fails_the_fd_check():
    # a_11 = x^1 is positive at the point but not at the x-stencil points of
    # the degree-3 differences, where the float path of sqrt meets L < 0
    s = structure_from_spec({"family": "riemannian", "dim": 2,
                             "a": [[{"terms": [{"coef": 1.0, "powers": [1, 0]}]}, 0], [0, 1]]})
    fr = PointFrame(s, (ChartPoint((5e-4, 0.3), (1.0, 0.01)),))
    out = checks.run_check("jets.fd", fr, 1e-7, 1e-3, 0)
    assert out.verdict == "FAIL"
    assert out.details["error"].startswith(
        "NumericalError: fractional power needs a positive value part, got -")


def _built_frames(monkeypatch, s, points, seed):
    """Weak references to every frame built by run_checks on s, with the
    structure and points of each, and the run's sample."""
    built = []
    init = PointFrame.__init__

    def recorded(self, structure, point):
        built.append((weakref.ref(self), structure, point))
        init(self, structure, point)

    monkeypatch.setattr(PointFrame, "__init__", recorded)
    run_checks(s, check_ids(), points, seed, 1e-7, 1e-3)
    monkeypatch.undo()
    gc.collect()
    return built, tuple(s.sample(points, seed))


@pytest.mark.parametrize("name", ["sphere2", "randers_sphere2"])
def test_a_run_builds_five_frames_and_frees_them(monkeypatch, name):
    # the sample, the scaled points of struct.homogeneity, the Randers star
    # or base of prop.randers and the two tildes of thm2.16.conformal; the
    # run owns them all, so none outlives it
    built, pts = _built_frames(monkeypatch, by_name(name), 20, 0)
    assert len(built) == 5
    assert built[0][2] == pts
    assert [ref() for ref, _, _ in built] == [None] * 5


def test_the_sample_frame_keeps_no_frame_a_check_built(monkeypatch):
    # the sample frame outlives every check of a run and holds only its rungs,
    # so no frame a check built (the scaled points, the Randers star, the
    # conformal tildes) outlives that check
    s = by_name("sphere2")
    fr = PointFrame(s, tuple(s.sample(10, 0)))
    built = []
    init = PointFrame.__init__

    def recorded(self, structure, point):
        built.append(weakref.ref(self))
        init(self, structure, point)

    monkeypatch.setattr(PointFrame, "__init__", recorded)
    for check_id in check_ids():
        checks.run_check(check_id, fr, 1e-7, 1e-3, 0)
    monkeypatch.undo()
    gc.collect()
    assert len(built) == 4
    assert [ref() for ref in built] == [None] * 4


def _role(s, pts, structure, point):
    """What a frame built by a run on the sample pts of s is for."""
    if structure is s:
        scaled = tuple(ChartPoint(p.x, tuple(1.75 * v for v in p.y)) for p in pts)
        return {pts: "sample", scaled: "scaled"}[point]
    assert structure.meta["base"] is s and point == pts
    return structure.name.split("(")[0]  # the Randers star or a conformal tilde


@pytest.mark.parametrize("seed", [0, 30])
@pytest.mark.parametrize("spec", [INDEFINITE, LATE], ids=["indefinite", "late"])
def test_a_failing_run_reruns_no_check(monkeypatch, spec, seed):
    # a check that raises reports its batch's error, so no check runs again on
    # a part of the sample: the run builds only frames a passing run builds (a
    # failing check may stop before it builds its own)
    s = structure_from_spec(spec)
    built, pts = _built_frames(monkeypatch, s, 20, seed)
    roles = collections.Counter(_role(s, pts, structure, point)
                                for _, structure, point in built)
    passing = collections.Counter({"sample": 1, "scaled": 1, "randers": 1, "conformal": 2})
    assert roles - passing == {}, roles
    assert all(ref() is None for ref, _, _ in built)


@pytest.mark.parametrize("seed", [0, 30])
def test_the_lie_check_reports_its_batch_error(seed):
    # prop2.14.lie reduces the whole sample, so the late failing point of
    # LATE is its FAIL with the error every other check meets: each reads the
    # sample frame's g_jets, which alone guards g, before any frame it builds
    results = {r.check_id: r for r in
               run_checks(structure_from_spec(LATE), check_ids(), 20, seed, 1e-7, 1e-3)}
    lie = results.pop("prop2.14.lie")
    assert lie.verdict == checks.FAIL
    assert lie.details["error"].startswith("SingularMetricError: ")
    errors = {r.details["error"] for r in results.values() if r.verdict == checks.FAIL}
    assert errors == {lie.details["error"]}


def test_a_repeated_check_id_runs_once(monkeypatch):
    calls = []
    anchor, fn = checks._REGISTRY["thm2.6"]

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setitem(checks._REGISTRY, "thm2.6", (anchor, counted))
    results = run_checks(by_name("sphere2"), ["thm2.6", "eq2.13", "thm2.6"], 5, 0, 1e-7, 1e-3)
    assert [r.check_id for r in results] == ["eq2.13", "thm2.6"]
    assert len(calls) == 1


def _count_jet_evals(monkeypatch):
    """A Counter of the functions `jet_eval` evaluates from now on: in the
    frame (`L_jet`, `field_jet`) and in the checks (`jets.fd`)."""
    calls = collections.Counter()

    def counted(fn, *args, **kwargs):
        calls[fn] += 1
        return jets.jet_eval(fn, *args, **kwargs)

    for module in (frame_module, checks):
        monkeypatch.setattr(module, "jet_eval", counted)
    return calls


def _jet_eval_calls(monkeypatch, points):
    calls = _count_jet_evals(monkeypatch)
    run_checks(by_name("sphere2"), check_ids(), points, 0, 1e-7, 1e-3)
    monkeypatch.undo()
    return sum(calls.values())


def test_field_jet_evaluations_do_not_grow_with_the_sample(monkeypatch):
    # one stacked evaluation per (batch, field, order): a callable made
    # afresh for each point would add evaluations with every point
    assert _jet_eval_calls(monkeypatch, 20) == _jet_eval_calls(monkeypatch, 40)


# The fields a check evaluates. A field is one callable for all its
# components, evaluated once whatever n is, so each count holds on sphere2
# (n = 2) and on euclidean3 (n = 3) alike.
_PROBES = {
    "eq2.12": 3,
    "thm2.6": 6,  # four affine fields and the scalars of two gradients
    "prop2.14.lie": 3,  # the constant field, the rotation and the stretch
    # a scalar for the closed gradient, and the open field
    "thm2.13.involutive": 2,
    # the drift, read by the precondition and both companions, and the
    # Randers star's lifted Lagrangian
    "prop.randers": 2,
    # the constant field, read on the sample frame and both tildes, and the
    # sigma and lifted Lagrangian of each tilde
    "thm2.16.conformal": 5,
    "jets.fd": 1,  # L and poly L as one field
}


@pytest.mark.parametrize("name,check_id,probes", [
    ("euclidean3", "thm2.8.flat", 3),  # on sphere2, not flat, it evaluates none
] + [(name, check_id, probes) for check_id, probes in _PROBES.items()
     for name in ("euclidean3", "sphere2")])
def test_a_check_evaluates_each_probe_once(monkeypatch, name, check_id, probes):
    # a frame keeps no field jets, and the calculus takes a field's jets, so a
    # check that reads a probe's jets twice evaluates them once and passes them
    # on: each function a check evaluates reaches jet_eval once
    s = by_name(name)
    fr = PointFrame(s, tuple(s.sample(10, 0)))
    fr.L_jet  # the Lagrangian's evaluation is the frame's, not the check's
    calls = _count_jet_evals(monkeypatch)
    assert checks.run_check(check_id, fr, 1e-7, 1e-3, 0).verdict != checks.FAIL
    assert len(calls) == probes and set(calls.values()) == {1}, calls


@pytest.mark.parametrize("name", ["sphere2", "euclidean3"])
def test_the_conformal_check_lowers_and_differentiates_the_base_form_once(monkeypatch, name):
    # omega = i_X g and dbar omega once on the sample frame, and dbar~ omega~
    # and dbar~ omega on each of the two tildes: 5 dbar_p calls in all; the
    # first tilde frame is freed before the second is built
    s = by_name(name)
    fr = PointFrame(s, tuple(s.sample(50, 0)))
    want = checks.run_check("thm2.16.conformal", fr, 1e-7, 1e-3, 0)
    dbar_on, flat_on, tildes, live = [], [], [], []  # on fr or not, weak tildes, live tildes
    dbar_p, flat_jets = pc.dbar_p, PointFrame.flat_jets

    def dbar(frame, w):
        dbar_on.append(frame is fr)
        if frame is not fr and not any(t() is frame for t in tildes):
            tildes.append(weakref.ref(frame))
        gc.collect()
        live.append(sum(t() is not None for t in tildes))
        return dbar_p(frame, w)

    monkeypatch.setattr(pc, "dbar_p", dbar)
    monkeypatch.setattr(PointFrame, "flat_jets",
                        lambda frame, Xj: flat_on.append(frame is fr) or flat_jets(frame, Xj))
    got = checks.run_check("thm2.16.conformal", fr, 1e-7, 1e-3, 0)
    assert (got.verdict, got.max_residual, got.details) == (want.verdict, want.max_residual,
                                                           want.details)
    assert len(dbar_on) == 5 and sum(dbar_on) == 1
    assert len(flat_on) == 3 and sum(flat_on) == 1
    assert len(tildes) == 2 and max(live) == 1
