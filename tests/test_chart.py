import math

import numpy as np
import pytest

from finslerkit.chart import ChartPoint, SampleDomain, sample_points
from finslerkit.errors import DomainError
from finslerkit.structures import by_name

from conftest import CATALOG_NAMES


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

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    @pytest.mark.parametrize("seed", [0, 3, 17, 2024])
    def test_same_points_as_the_reference_loop(self, name, seed):
        dom = by_name(name).sample_domain
        got = sample_points(dom, 60, seed)
        want = _reference_sample_points(dom, 60, seed)
        assert len(got) == len(want) == 60
        assert all(type(v) is float for p in got for v in p.x + p.y)
        assert np.array([p.x + p.y for p in got]).tobytes() \
            == np.array([p.x + p.y for p in want]).tobytes()


def _reference_sample_points(domain, count, seed):
    """The sampling loop with numpy's vector norm and the draws as numpy
    scalars, one draw after another as `sample_points` makes them."""
    rng = np.random.default_rng(seed)
    lo, hi = domain.y_norm
    out = []
    while len(out) < count:
        x = rng.uniform(domain.x_low, domain.x_high, size=domain.n)
        d = rng.normal(size=domain.n)
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        r = rng.uniform(lo, hi)
        y = d * (r / nd)
        if domain.predicate is not None and not domain.predicate(tuple(x), tuple(y)):
            continue
        out.append(ChartPoint(tuple(x), tuple(y)))
    return out
