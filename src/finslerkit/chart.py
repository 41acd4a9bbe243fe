"""Chart points on the slit tangent bundle and deterministic point sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ChartPoint:
    """A point (x, y) of the slit tangent bundle in a single chart, y != 0."""

    x: tuple
    y: tuple

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        y = tuple(float(v) for v in self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if len(x) != len(y):
            raise ValueError("x and y must have the same dimension")
        if len(x) == 0:
            raise ValueError("dimension must be at least 1")
        if not all(math.isfinite(v) for v in x + y):
            raise DomainError("non-finite coordinates")
        if max(abs(v) for v in y) == 0.0:
            raise DomainError("y = 0 is excluded from the slit tangent bundle")

    @property
    def n(self) -> int:
        return len(self.x)

    def coords(self) -> tuple:
        """All 2n coordinates, x-block first."""
        return self.x + self.y

    def __repr__(self):
        return f"ChartPoint(x={self.x}, y={self.y})"


@dataclass(frozen=True, eq=False)
class SampleDomain:
    """Sampling recipe for a structure's chart.

    x is drawn uniformly from the box [x_low, x_high]^n, y from a uniform
    direction scaled to |y| in y_norm. `predicate`, when given, is a final
    accept/reject filter (used e.g. to keep y away from degenerate axes).
    """

    n: int
    x_low: float = -1.0
    x_high: float = 1.0
    y_norm: tuple = (0.5, 2.0)
    predicate: Optional[Callable] = None


def sample_points(domain: SampleDomain, count: int, seed: int) -> list:
    """Deterministic chart points for test sweeps.

    Same (domain, count, seed) always yields the same list. Raises
    DomainError when rejection sampling cannot find acceptable points.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = domain.y_norm
    out = []
    attempts = 0
    max_attempts = 1000 * count
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise DomainError(
                f"sampling domain looks empty: {len(out)}/{count} points "
                f"after {attempts} draws"
            )
        x = rng.uniform(domain.x_low, domain.x_high, size=domain.n)
        d = rng.normal(size=domain.n)
        nd = math.sqrt(d.dot(d))  # the bits of np.linalg.norm(d)
        if nd < 1e-12:
            continue
        r = rng.uniform(lo, hi)
        x, y = tuple(x.tolist()), tuple((d * (r / nd)).tolist())
        if domain.predicate is not None and not domain.predicate(x, y):
            continue
        out.append(ChartPoint(x, y))
    return out
