"""The stacked PointFrame tower and field calculus against their
component-by-component reference in tower_oracle, and batched frames
against standalone ones: every rung must agree exactly."""

import numpy as np
import pytest

from finslerkit import checks, jets
from finslerkit import picalc as pc
from finslerkit import frame as frame_module
from finslerkit.checks import _probe_fields, _probe_scalars, check_ids, run_checks
from finslerkit.errors import FinslerError
from finslerkit.fields import DriftCompanionField, Positional, ProjectedField
from finslerkit.frame import PointFrame, jet_solve, local_frames, point_frame, point_frames
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


def test_check_local_frames_leave_the_cache():
    s = by_name("sphere2")
    pts = s.sample(5, seed=2)
    with local_frames(s, pts) as frames:
        assert all(point_frame(s, p) is fr for fr, p in zip(frames, pts))
    assert all(point_frame(s, p) is not fr for fr, p in zip(frames, pts))


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
