"""Chart points on the slit tangent bundle and deterministic point sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


def sample_points(n: int, box: float, domain: Callable, count: int, seed: int) -> list:
    """Deterministic chart points for test sweeps, each inside `domain`.

    x is drawn uniformly from the box [-box, box]^n, y from a uniform
    direction scaled to |y| in [0.5, 2]; a draw with domain(x, y) false is
    rejected. Same arguments always yield the same list. Raises DomainError
    when rejection sampling cannot find acceptable points.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
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
        x = rng.uniform(-box, box, size=n)
        d = rng.normal(size=n)
        nd = math.sqrt(d.dot(d))  # the bits of np.linalg.norm(d)
        if nd < 1e-12:
            continue
        r = rng.uniform(0.5, 2.0)
        x, y = tuple(x.tolist()), tuple((d * (r / nd)).tolist())
        if not domain(x, y):
            continue
        out.append(ChartPoint(x, y))
    return out
