"""The stacked PointFrame tower and field calculus against their
component-by-component reference in tower_oracle, and batched frames
against standalone ones: every rung must agree exactly."""

import numpy as np
import pytest

from finslerkit import checks, connections, curvature, jets
from finslerkit import picalc as pc
from finslerkit import frame as frame_module
from finslerkit.checks import _probe_fields, _probe_scalars, check_ids, run_checks
from finslerkit.errors import FinslerError
from finslerkit.fields import (ComponentField, DriftCompanionField, GradientField, PiForm,
                               Positional, ProjectedField, project_away)
from finslerkit.frame import PointFrame, jet_solve, local_batch, point_frame, point_frames
from finslerkit.jets import Jet
from finslerkit.structures import by_name, structure_from_spec

from conftest import CATALOG_NAMES
import tower_oracle as oracle
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
            assert np.array_equal(getattr(fr, rung).coeffs, stack(expect)), (rung, p)
        assert np.array_equal(fr.Rhat, ref.Rhat), p
        assert np.array_equal(fr.hcurv, ref.hcurv), p
        assert fr.scalar == ref.scalar, p


# -- pi-vector fields -----------------------------------------------------------------


def _fields(s):
    """Every field class the checks use: the thm2.6 probes (component
    fields and gradients), a drift companion, and g-projections of the
    coordinate directions away from two of the probes."""
    probes = _probe_fields(s, 0, 26)
    companion = DriftCompanionField(lambda x: [0.2] + [0.1 * x[0]] * (s.n - 1))
    projected = [ProjectedField(np.eye(s.n)[a], X) for X in (probes[2], probes[5])
                 for a in range(s.n)]
    return probes + [companion] + projected


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stacked_field_calculus_equals_component_reference(name):
    s = by_name(name)
    fields = _fields(s)
    for p in s.sample(20, seed=0):
        fr = PointFrame(s, p)
        stacked = [X.jets(fr, 1) for X in fields]
        listed = [oracle.field_jets(X, fr, 1) for X in fields]
        for X, Xj, ref in zip(fields, stacked, listed):
            assert Xj.coeffs.tobytes() == stack(ref).tobytes(), (X, p)
            w, w_ref = pc._lowered_jets(fr, Xj), oracle.lowered_jets(fr, ref)
            assert w.coeffs.tobytes() == stack(w_ref).tobytes(), (X, p)
            assert pc._dbar_matrix(fr, w).tobytes() == oracle.dbar_matrix(fr, w_ref).tobytes()
            assert (pc._nabla_h_matrix(fr, Xj).tobytes()
                    == oracle.nabla_h_matrix(fr, ref).tobytes()), (X, p)
        for a in range(len(fields)):
            b = (a + 3) % len(fields)
            assert (pc._bracket(fr, stacked[a], stacked[b]).tobytes()
                    == oracle.bracket(fr, listed[a], listed[b]).tobytes()), (a, b, p)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_field_jets_on_a_batch_frame_equal_each_point(name):
    s = by_name(name)
    pts = s.sample(20, seed=0)
    batch = PointFrame(s, tuple(pts))
    for X in _fields(s):
        whole = X.jets(batch, 1).coeffs
        assert whole.shape == (len(pts), s.n, 2 * s.n + 1)
        for i, p in enumerate(pts):
            assert whole[i].tobytes() == X.jets(PointFrame(s, p), 1).coeffs.tobytes(), (X, p)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_stacked_projections_equal_component_reference(name):
    # the n candidates of the involutivity probe, projected in one stack from
    # the jets of X, against the reference projection of each alone
    s = by_name(name)
    probes = _probe_fields(s, 0, 26)
    pts = s.sample(20, seed=0)
    batch = PointFrame(s, tuple(pts))
    for X in (probes[2], probes[5]):
        whole = project_away(batch, np.eye(s.n), X.jets(batch, 1)[..., None, :, :]).coeffs
        for i, p in enumerate(pts):
            fr = PointFrame(s, p)
            one = project_away(fr, np.eye(s.n), X.jets(fr, 1)[..., None, :, :]).coeffs
            assert whole[i].tobytes() == one.tobytes(), (X, p)
            for a in range(s.n):
                ref = oracle.field_jets(ProjectedField(np.eye(s.n)[a], X), fr, 1)
                assert one[a].tobytes() == stack(ref).tobytes(), (X, a, p)


class _Counted(ComponentField):
    def jets(self, frame, order):
        self.calls += 1
        return super().jets(frame, order)


@pytest.mark.parametrize("name", ["sphere2", "euclidean3"])
def test_involutivity_evaluates_the_probe_jets_once(name):
    s = by_name(name)
    X = _Counted(_probe_fields(s, 0, 26)[2].components)
    X.calls = 0
    pc.involutivity_report(s, X, tuple(s.sample(10, seed=1)))
    assert X.calls == 1


def _entry_point_calls(s):
    """Every picalc, connections and curvature entry point, as (label, call)."""
    n = s.n
    probes = _probe_fields(s, 0, 26)
    scalars = _probe_scalars(s, 0, 88)
    closed = GradientField(scalars[1])
    form = PiForm.one_form(n, [(lambda i: (lambda x, y: x[i] * y[0]))(i) for i in range(n)])
    drift = lambda x: [0.2] + [0.1 * x[0]] * (n - 1)
    sigma = lambda x: 0.3 * x[0] * x[-1]
    vec = np.arange(2.0 * n) + 1.0
    return [
        ("flat", lambda p: pc.flat(s, probes[2], p)),
        ("sharp", lambda p: pc.sharp(s, form, p)),
        ("gradient", lambda p: pc.gradient(s, scalars[0], p)),
        ("dbar_p", lambda p: pc.dbar_p(s, form, p)),
        ("dbar_1_on_fields", lambda p: pc.dbar_1_on_fields(s, form, probes[0], probes[3], p)),
        ("a_operator", lambda p: pc.a_operator(s, probes[4], p)),
        ("closedness_defect", lambda p: pc.closedness_defect(s, probes[5], p)),
        ("flat_form_and_selfadjoint_matrix",
         lambda p: pc.flat_form_and_selfadjoint_matrix(s, probes[2], p)),
        ("dbar_sq", lambda p: pc.dbar_sq(s, scalars[1], p)),
        ("gradient_torsion_identity", lambda p: pc.gradient_torsion_identity(s, scalars[0], p)),
        ("isotropy_residual", lambda p: pc.isotropy_residual(s, scalars[2], p)),
        ("lie_metric_report", lambda p: pc.lie_metric_report(s, probes[1], p)),
        ("involutivity_report[closed]", lambda p: pc.involutivity_report(s, closed, p)),
        ("involutivity_report[open]", lambda p: pc.involutivity_report(s, probes[3], p)),
        ("drift_closedness_transfer", lambda p: pc.drift_closedness_transfer(s, drift, p)),
        ("conformal_closedness_transfer",
         lambda p: pc.conformal_closedness_transfer(s, probes[0], sigma, p)),
        ("spray_defect", lambda p: connections.spray_defect(s, p)),
        ("deflection_defect", lambda p: connections.deflection_defect(s, p)),
        ("conservativity_defect", lambda p: connections.conservativity_defect(s, p)),
        ("torsion_defect", lambda p: connections.torsion_defect(s, p)),
        ("metricity_defect", lambda p: connections.metricity_defect(s, p)),
        ("projector_defects", lambda p: connections.projector_defects(s, p)),
        ("project_h", lambda p: connections.project_h(s, p, vec)),
        ("project_v", lambda p: connections.project_v(s, p, vec)),
        ("curvature_contraction_defect",
         lambda p: curvature.curvature_contraction_defect(s, p)),
        ("scalar_form_check", lambda p: curvature.scalar_form_check(s, p)),
        ("scalar_form_check[kappa]",
         lambda p: curvature.scalar_form_check(s, p, kappa=lambda x, y: 1.0 + x[0] * y[0])),
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
    # one code path: a tuple of points gives the single-point results, as
    # plain floats for scalars, stacked on a leading point axis
    s = by_name(name)
    pts = s.sample(8, seed=4)
    for label, call in _entry_point_calls(s):
        whole = call(tuple(pts))
        for i, p in enumerate(pts):
            assert _parts(_point_part(whole, i)) == _parts(call(p)), (label, p)


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
        out.append(X.jets(frame, 1))
    out.append(DriftCompanionField(lambda x: [0.2] + [0.1 * x[0]] * (s.n - 1)).jets(frame, 1))
    out.append(frame.field_jet(Positional(lambda x: x[0]), 1))
    return [jet.coeffs.tobytes() for jet in out]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_batched_frames_equal_standalone_frames(name):
    s = by_name(name)  # a fresh structure, so no frame of it is cached yet
    pts = s.sample(20, seed=0)
    frames = point_frames(s, pts)
    assert frames[0]._batch is not None and frames[0]._batch is frames[-1]._batch
    for fr, p in zip(frames, pts):
        alone = PointFrame(s, p)
        ref = ScalarTower(s, p)
        for attr in FRAME_ATTRS:
            assert _raw(getattr(fr, attr)) == _raw(getattr(alone, attr)), (attr, p)
        for rung, expect in (("g_jets", ref.g_jets), ("ginv_jets", ref.ginv_jets),
                             ("G_jets", ref.G_jets), ("N_jets", ref.N_jets),
                             ("_dg_jets", ref.dg_jets), ("F_jets", ref.F_jets)):
            assert np.array_equal(getattr(fr, rung).coeffs, stack(expect)), (rung, p)
        assert np.array_equal(fr.Rhat, ref.Rhat) and np.array_equal(fr.hcurv, ref.hcurv)
        assert fr.scalar == ref.scalar
        assert _requested_field_jets(s, fr) == _requested_field_jets(s, alone), p
        assert not fr.g.flags.writeable and not fr.field_jet(s.L, 1).coeffs.flags.writeable
    assert not frames[0]._batch._failed


def test_batched_solve_pivots_per_system():
    rng = np.random.default_rng(5)
    A = Jet(6, 2, rng.standard_normal((40, 3, 3, 28)))
    B = Jet(6, 1, rng.standard_normal((40, 3, 2, 7)))
    X = jet_solve(A, B)
    first_pivots = set()
    for i in range(40):
        assert X.coeffs[i].tobytes() == jet_solve(A[i], B[i]).coeffs.tobytes(), i
        first_pivots.add(int(np.argmax(np.abs(A.coeffs[i, :, 0, 0]))))
    assert first_pivots == {0, 1, 2}


def test_batch_errors_stay_with_their_points():
    # the sample of test_indefinite_metric_is_reported_not_raised: some points
    # leave the positivity cone, the others have an indefinite g
    s = structure_from_spec({"family": "riemannian", "dim": 2, "a": [[1, 0], [0, -1]]})
    pts = s.sample(20, seed=0)
    frames = point_frames(s, pts)
    raised = set()
    for fr, p in zip(frames, pts):
        alone = PointFrame(s, p)
        for attr in FRAME_ATTRS:
            got = _outcome(fr, attr)
            assert got == _outcome(alone, attr), (attr, p)
            if isinstance(got, tuple):
                raised.add((attr, got[0].__name__))
        for f in (s.L, lambda x, y: 1.0 / (y[0] * y[0] - y[1] * y[1])):
            assert _outcome_of_field(fr, f) == _outcome_of_field(alone, f), p
    assert ("L_jet", "NumericalError") in raised and ("g", "SingularMetricError") in raised
    assert "L_jet" in frames[0]._batch._failed


def _outcome_of_field(frame, f):
    try:
        return frame.field_jet(f, 2).coeffs.tobytes()
    except FinslerError as exc:
        return type(exc), str(exc)


def test_a_tuple_of_points_is_one_memoized_batch_frame():
    s = by_name("sphere2")
    pts = s.sample(5, seed=2)
    fr = point_frame(s, tuple(pts))
    assert fr is point_frame(s, tuple(pts)) and fr.g.shape == (5, 2, 2)


def test_check_local_batches_leave_the_cache():
    s = by_name("sphere2")
    pts = s.sample(5, seed=3)
    with local_batch(s, pts) as fr:
        assert point_frame(s, tuple(pts)) is fr and fr.point == tuple(pts)
    assert point_frame(s, tuple(pts)) is not fr


def _jet_eval_calls(monkeypatch, points):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return jets.jet_eval(*args, **kwargs)

    for module in (frame_module, checks):
        monkeypatch.setattr(module, "jet_eval", counted)
    run_checks(by_name("sphere2"), check_ids(), points, 0, 1e-7, 1e-3)
    monkeypatch.undo()
    return len(calls)


def test_field_jet_evaluations_do_not_grow_with_the_sample(monkeypatch):
    # one stacked evaluation per (batch, field, order): a callable made
    # afresh for each point would add evaluations with every point
    assert _jet_eval_calls(monkeypatch, 20) == _jet_eval_calls(monkeypatch, 40)
