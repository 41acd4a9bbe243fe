import hashlib
import math

import numpy as np
import pytest

from finslerkit.chart import ChartPoint, sample_points
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


ANYWHERE = lambda x, y: True

# 1000 sample points of each catalog entry at seed 0; every pinned report
# rests on these bits
SAMPLE_SHA256 = {
    "conformal_quartic2": "021907b57a774de45242b835f7bad81037d16a63abc4124026d5930e3420733f",
    "euclidean2": "7cb83fa5444e8c8707ded2e65259b0688d243317cd70be874051142102ac37de",
    "euclidean3": "e2419c9e3b151d460a3e008d44bc0afeb5bef1c80c9127a7b31e30e61069ea60",
    "minkowski_quartic2": "021907b57a774de45242b835f7bad81037d16a63abc4124026d5930e3420733f",
    "minkowski_quartic3": "79316ff8ede9ea2483faf1c46325c97065c9c33da161ef05f8ad2ba4056254ce",
    "randers_sphere2": "f258fab9605c14621340562556e4ff740b7d7bebfe29f3e89492123e1c9c351b",
    "sphere2": "f258fab9605c14621340562556e4ff740b7d7bebfe29f3e89492123e1c9c351b",
}


class TestSampling:
    def test_same_seed_same_points(self):
        a = sample_points(2, 1.0, ANYWHERE, 6, seed=42)
        b = sample_points(2, 1.0, ANYWHERE, 6, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        assert sample_points(2, 1.0, ANYWHERE, 4, seed=1) \
            != sample_points(2, 1.0, ANYWHERE, 4, seed=2)

    def test_bounds_respected(self):
        for p in sample_points(3, 0.5, ANYWHERE, 25, seed=9):
            assert all(-0.5 <= v <= 0.5 for v in p.x)
            r = math.sqrt(sum(v * v for v in p.y))
            assert 0.5 - 1e-12 <= r <= 2.0 + 1e-12

    def test_predicate_filters(self):
        keep = lambda x, y: y[0] > 0.2
        pts = sample_points(2, 1.0, keep, 12, seed=3)
        assert len(pts) == 12
        assert all(p.y[0] > 0.2 for p in pts)

    def test_impossible_predicate_raises(self):
        never = lambda x, y: False
        with pytest.raises(DomainError, match="sampling domain looks empty"):
            sample_points(2, 1.0, never, 2, seed=5)

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    @pytest.mark.parametrize("seed", [0, 3, 17, 2024])
    def test_same_points_as_the_reference_loop(self, name, seed):
        F = by_name(name)
        got = F.sample(60, seed)
        assert got == sample_points(F.n, F.box, F.domain, 60, seed)
        want = _reference_sample_points(F.n, F.box, F.domain, 60, seed)
        assert len(got) == len(want) == 60
        assert all(type(v) is float for p in got for v in p.x + p.y)
        assert np.array([p.x + p.y for p in got]).tobytes() \
            == np.array([p.x + p.y for p in want]).tobytes()

    @pytest.mark.parametrize("name", sorted(SAMPLE_SHA256))
    def test_catalog_samples_keep_their_bits(self, name):
        pts = by_name(name).sample(1000, 0)
        digest = hashlib.sha256(np.array([p.x + p.y for p in pts]).tobytes()).hexdigest()
        assert digest == SAMPLE_SHA256[name]


def _reference_sample_points(n, box, domain, count, seed):
    """The sampling loop with numpy's vector norm and the draws as numpy
    scalars, one draw after another as `sample_points` makes them."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        x = rng.uniform(-box, box, size=n)
        d = rng.normal(size=n)
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        r = rng.uniform(0.5, 2.0)
        y = d * (r / nd)
        if not domain(tuple(x), tuple(y)):
            continue
        out.append(ChartPoint(tuple(x), tuple(y)))
    return out
