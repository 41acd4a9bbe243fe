"""The checks' array reductions against the scalar loops they replace, and
the plain Python types of what they return.

A check used to add one residual at a time, point by point, to a running
maximum; it now reduces a (points, columns) matrix at once. On any matrix
the reduction must pick the same maximum, the same witness point and the
same witness value, down to the sign of a zero, including ties, NaN and inf
in residuals and scales, and masked (skipped) entries.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit.chart import ChartPoint
from finslerkit.checks import FAIL, _first_max, _Sweep, check_ids, run_checks
from finslerkit.structures import by_name, structure_from_spec

# few distinct values, so that ties are common
ENTRIES = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e-9, -1.0, math.inf, -math.inf, math.nan]
)


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _points(count):
    return [ChartPoint((0.1 * k, 0.0), (1.0, 0.5 * k)) for k in range(count)]


class ScalarSweep:
    """One scalar add per entry: the per-point loop's reduction."""

    def __init__(self):
        self.max_residual = 0.0
        self.witness = None

    def add(self, k, residual, scale=1.0):
        rel = residual / max(1.0, scale)
        if rel >= self.max_residual:
            self.max_residual = rel
            self.witness = (k, float(residual))


def scalar_first_max(rows):
    """The hand-written `if value > best` tracker, point-major."""
    best, wit = 0.0, None
    for k, row in enumerate(rows):
        for value in row:
            if value > best:
                best, wit = value, (k, value)
    return best, wit


@st.composite
def matrices(draw):
    points = draw(st.integers(1, 5))
    columns = draw(st.integers(1, 4))
    shape = (points, columns)
    cells = st.lists(ENTRIES, min_size=points * columns, max_size=points * columns)
    residual = np.array(draw(cells)).reshape(shape)
    scale = np.array(draw(cells)).reshape(shape)
    keep = np.array(draw(st.lists(st.booleans(), min_size=points * columns,
                                  max_size=points * columns))).reshape(shape)
    return residual, scale, keep


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_sweep_reduction_equals_scalar_adds(data):
    residual, scale, keep = data
    points, columns = residual.shape
    pts = _points(points)
    ref = ScalarSweep()
    for k in range(points):
        for c in range(columns):
            if keep[k, c]:
                ref.add(k, float(residual[k, c]), float(scale[k, c]))
    sweep = _Sweep(pts)
    for c in range(columns):  # one column per add call, as the checks make them
        sweep.add(residual[:, c], scale[:, c], keep=keep[:, c])
    out = sweep.result(tol=-math.inf)  # every sweep FAILs, so the witness shows
    assert out.verdict == FAIL and out.n_points == points
    assert _bits(out.max_residual) == _bits(ref.max_residual)
    if ref.witness is None:
        assert out.witness is None
    else:
        k, value = ref.witness
        assert out.witness == {"x": list(pts[k].x), "y": list(pts[k].y),
                               "value": out.witness["value"]}
        assert _bits(out.witness["value"]) == _bits(value)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_a_matrix_add_equals_its_column_adds(data):
    residual, scale, _ = data
    pts = _points(residual.shape[0])
    whole, by_column = _Sweep(pts), _Sweep(pts)
    whole.add(residual, scale)
    for c in range(residual.shape[1]):
        by_column.add(residual[:, c], scale[:, c])
    a, b = whole.result(-math.inf), by_column.result(-math.inf)
    assert _bits(a.max_residual) == _bits(b.max_residual) and a.witness == b.witness


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_first_max_equals_the_strict_tracker(data):
    values = data[0]
    best, wit = scalar_first_max(values.tolist())
    got, k = _first_max(values)
    assert _bits(got) == _bits(best)
    if wit is None:
        assert k is None
    else:
        assert k // values.shape[1] == wit[0]
        assert _bits(float(values.flat[k])) == _bits(wit[1])


def test_ties_pick_the_last_point_for_sweeps_and_the_first_for_trackers():
    pts = _points(4)
    sweep = _Sweep(pts)
    sweep.add(np.array([1.0, 3.0, 3.0, 2.0]))
    out = sweep.result(tol=0.0)
    assert out.max_residual == 3.0 and out.witness["x"] == list(pts[2].x)
    assert _first_max(np.array([1.0, 3.0, 3.0, 2.0])) == (3.0, 1)


def test_all_zero_input_keeps_the_start_values():
    pts = _points(3)
    sweep = _Sweep(pts)
    sweep.add(np.array([0.0, -0.0, 0.0]), np.zeros(3))
    out = sweep.result(tol=1e-7)
    # the last zero wins the `>=` sweep; no zero passes the strict tracker
    assert out.verdict == "PASS" and _bits(out.max_residual) == _bits(0.0)
    sweep = _Sweep(pts)
    sweep.add(np.array([0.0, 0.0, -0.0]))
    assert _bits(sweep.result(tol=1e-7).max_residual) == _bits(-0.0)
    assert _first_max(np.zeros((3, 2))) == (0.0, None)


def test_nan_never_wins_and_nan_scale_counts_as_one():
    pts = _points(3)
    sweep = _Sweep(pts)
    sweep.add(np.array([math.nan, 0.5, math.nan]), np.array([1.0, math.nan, 4.0]))
    out = sweep.result(tol=0.1)
    assert out.max_residual == 0.5 and out.witness["x"] == list(pts[1].x)
    assert _first_max(np.array([math.nan, math.nan])) == (0.0, None)


def test_masked_entries_are_skipped():
    pts = _points(3)
    sweep = _Sweep(pts)
    sweep.add(np.array([1.0, 1.0, 1.0]))
    sweep.add(np.array([5.0, 9.0, 7.0]), keep=np.array([True, False, True]))
    out = sweep.result(tol=0.1)
    assert out.max_residual == 7.0 and out.witness["x"] == list(pts[2].x)


# -- plain Python types in every result --------------------------------------------

ALL_NAMES = ["euclidean2", "euclidean3", "minkowski_quartic2", "minkowski_quartic3",
             "sphere2", "randers_sphere2", "conformal_quartic2"]


def _assert_plain(res):
    assert type(res.n_points) is int and type(res.threshold) is float
    assert type(res.max_residual) is float, (res.check_id, type(res.max_residual))
    for key, value in res.details.items():
        assert type(value) in (float, int, str), (res.check_id, key, type(value))
    if res.witness is not None:
        assert all(type(v) is float for v in res.witness["x"] + res.witness["y"])
        assert type(res.witness["value"]) is float, res.check_id


@pytest.mark.parametrize("name", ALL_NAMES)
def test_check_results_hold_plain_python_types(name):
    for res in run_checks(by_name(name), check_ids(), 20, 0, 1e-7, 1e-3):
        _assert_plain(res)


def test_failed_check_results_hold_plain_python_types():
    s = structure_from_spec({"family": "riemannian", "dim": 2, "a": [[1, 0], [0, -1]]})
    results = run_checks(s, check_ids(), 20, 0, 1e-7, 1e-3)
    assert any("error" in res.details for res in results)
    for res in results:
        _assert_plain(res)
