import math

import numpy as np
import pytest

from finslerkit.chart import ChartPoint, SampleDomain, sample_points
from finslerkit.errors import DomainError


class TestChartPoint:
    def test_coordinates_are_float_tuples(self):
        p = ChartPoint(x=(1, 2), y=(3, 4))
        assert p.x == (1.0, 2.0)
        assert p.coords() == (1.0, 2.0, 3.0, 4.0)
        assert p.n == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ChartPoint(x=(1.0,), y=(1.0, 2.0))

    def test_zero_fiber_vector_rejected(self):
        with pytest.raises(DomainError):
            ChartPoint(x=(0.0, 0.0), y=(0.0, 0.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            ChartPoint(x=(float("nan"), 0.0), y=(1.0, 0.0))

    def test_shifted_moves_one_slot(self):
        p = ChartPoint(x=(0.5, -0.5), y=(1.0, 2.0))
        q = p.shifted(3, 0.25)
        assert q.x == p.x
        assert q.y == (1.0, 2.25)
        assert p.y == (1.0, 2.0)  # original untouched

    @pytest.mark.parametrize("slot,h", [(0, 1e-4), (1, -0.3), (2, 2.5), (3, -1e-3), (3, 1)])
    def test_shifted_equals_a_fresh_point(self, slot, h):
        p = ChartPoint(x=(0.5, -0.25), y=(1.0, 0.01))
        c = list(p.coords())
        c[slot] += h
        fresh = ChartPoint(tuple(c[:2]), tuple(c[2:]))
        q = p.shifted(slot, np.float64(h))
        for field in ("x", "y"):
            got, want = getattr(q, field), getattr(fresh, field)
            assert type(got) is tuple and [type(v) for v in got] == [float, float]
            assert got == want
        assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)

    def test_shifted_validates_the_moved_coordinate(self):
        p = ChartPoint(x=(0.5, -0.5), y=(1.0, 0.0))
        with pytest.raises(DomainError, match="non-finite coordinates"):
            p.shifted(1, float("inf"))
        with pytest.raises(DomainError, match="non-finite coordinates"):
            p.shifted(2, float("nan"))
        with pytest.raises(DomainError, match="slit tangent bundle"):
            p.shifted(2, -1.0)
        assert p.shifted(0, -0.5).x == (0.0, -0.5)  # x may be 0

    def test_hashable_for_frame_caching(self):
        a = ChartPoint(x=(0.1, 0.2), y=(1.0, 0.0))
        b = ChartPoint(x=(0.1, 0.2), y=(1.0, 0.0))
        assert a == b and hash(a) == hash(b)


class TestSampling:
    def test_same_seed_same_points(self):
        dom = SampleDomain(n=2)
        a = sample_points(dom, 6, seed=42)
        b = sample_points(dom, 6, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        dom = SampleDomain(n=2)
        assert sample_points(dom, 4, seed=1) != sample_points(dom, 4, seed=2)

    def test_bounds_respected(self):
        dom = SampleDomain(n=3, x_low=-0.5, x_high=0.5, y_norm=(1.0, 1.5))
        for p in sample_points(dom, 25, seed=9):
            assert all(-0.5 <= v <= 0.5 for v in p.x)
            r = math.sqrt(sum(v * v for v in p.y))
            assert 1.0 - 1e-12 <= r <= 1.5 + 1e-12

    def test_predicate_filters(self):
        keep = lambda x, y: y[0] > 0.2
        dom = SampleDomain(n=2, predicate=keep)
        pts = sample_points(dom, 12, seed=3)
        assert len(pts) == 12
        assert all(p.y[0] > 0.2 for p in pts)

    def test_impossible_predicate_raises(self):
        never = lambda x, y: False
        dom = SampleDomain(n=2, predicate=never)
        with pytest.raises(Exception):
            sample_points(dom, 2, seed=5)
