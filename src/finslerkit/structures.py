"""Finsler structures: the metric catalog and the metric-producing transforms.

A structure is its Lagrangian. Every Lagrangian here is written against
the generic math functions in `jets`, so one callable serves float
evaluation (finite differences), jet evaluation (the derivative tower),
and any composition such as the Randers or conformal change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .chart import SampleDomain, sample_points
from .errors import SingularMetricError
from .jets import powr, sqrt, exp


@dataclass(frozen=True, eq=False)
class FinslerStructure:
    """A Finsler Lagrangian on one chart, with its sampling recipe."""

    n: int
    L: Callable
    name: str
    domain: Callable = None
    sample_domain: SampleDomain = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(
                f"dimension must be at least 2, got {self.n} for {self.name!r}"
            )
        if self.domain is None:
            object.__setattr__(self, "domain", lambda x, y: True)
        if self.sample_domain is None:
            object.__setattr__(
                self, "sample_domain", SampleDomain(n=self.n, predicate=self.domain)
            )

    def sample(self, count: int, seed: int):
        return sample_points(self.sample_domain, count, seed)

    def __repr__(self):
        return f"FinslerStructure({self.name!r}, n={self.n})"


# -- catalog families --------------------------------------------------------


def euclidean(n: int) -> FinslerStructure:
    """L = |y|, the flat Riemannian reference structure."""

    def L(x, y):
        q = y[0] * y[0]
        for i in range(1, n):
            q = q + y[i] * y[i]
        return sqrt(q)

    return FinslerStructure(n=n, L=L, name=f"euclidean{n}")


def minkowski_quartic(n: int) -> FinslerStructure:
    """L = (sum_i (y^i)^4)^(1/4): flat, y-anisotropic, not Riemannian.

    The fundamental tensor degenerates on the coordinate axes, so the
    sampling domain keeps every y-component away from zero.
    """

    def L(x, y):
        q = y[0] ** 4
        for i in range(1, n):
            q = q + y[i] ** 4
        return powr(q, 0.25)

    def admissible(x, y):
        norm = math.sqrt(sum(v * v for v in y))
        return norm > 0 and min(abs(v) for v in y) >= 0.25 * norm

    return FinslerStructure(
        n=n,
        L=L,
        name=f"minkowski_quartic{n}",
        domain=admissible,
    )


def riemannian(a_fn: Callable, n: int, name: str = "riemannian",
               domain: Callable = None,
               sample_domain: SampleDomain = None) -> FinslerStructure:
    """L = sqrt(a_ij(x) y^i y^j) from a symmetric matrix callback.

    `a_fn(x)` must return an n x n nested list whose entries are numbers
    or jets, depending on what the x coordinates are.
    """

    def L(x, y):
        a = a_fn(x)
        q = 0.0
        for i in range(n):
            q = q + a[i][i] * y[i] * y[i]
            for j in range(i + 1, n):
                q = q + 2.0 * (a[i][j] * y[i] * y[j])
        return sqrt(q)

    return FinslerStructure(
        n=n, L=L, name=name, domain=domain, sample_domain=sample_domain,
        meta={"a_fn": a_fn},
    )


def sphere2() -> FinslerStructure:
    """Round unit 2-sphere in the stereographic chart, a_ij = 4 delta_ij / (1+|x|^2)^2.

    Constant curvature one; the chart domain stays well inside the
    projection's reach so the metric remains well-conditioned.
    """

    def a_fn(x):
        s = 1.0 + x[0] * x[0] + x[1] * x[1]
        c = 4.0 / (s * s)
        return [[c, 0.0], [0.0, c]]

    def in_chart(x, y):
        return x[0] * x[0] + x[1] * x[1] <= 9.0

    return riemannian(
        a_fn, 2, name="sphere2", domain=in_chart,
        sample_domain=SampleDomain(n=2, x_low=-1.2, x_high=1.2, predicate=in_chart),
    )


# -- transforms ---------------------------------------------------------------


def _covector_callable(b, n: int) -> Callable:
    if callable(b):
        return b
    const = tuple(float(v) for v in b)
    if len(const) != n:
        raise ValueError(f"covector needs {n} components, got {len(const)}")
    return lambda x: const


def randers_change(base: FinslerStructure, b, name: str = None,
                   validate: bool = True) -> FinslerStructure:
    """L* = L + b_i(x) y^i for a covector field b on the base chart.

    The change is written once, as the lift (x, y, Lb) -> Lb + sum_i b_i(x) y^i
    of a base Lagrangian value or jet Lb, kept in `meta["lift"]`: L* lifts
    base.L, and `PointFrame.derived` lifts a base frame's Lagrangian jet.

    When `validate` is set, |b|_g < 1 is checked on a deterministic sample
    of the base domain; a violation raises SingularMetricError since the
    changed metric stops being positive definite there.
    """
    n = base.n
    b_fn = _covector_callable(b, n)

    def lift(x, y, Lb):
        out = Lb
        bv = b_fn(x)
        for i in range(n):
            out = out + bv[i] * y[i]
        return out

    changed = FinslerStructure(
        n=n, L=lambda x, y: lift(x, y, base.L(x, y)), name=name or f"randers({base.name})",
        domain=base.domain, sample_domain=base.sample_domain,
        meta={"base": base, "lift": lift, "b_fn": b_fn},
    )
    if validate:
        from .frame import PointFrame, quad
        import numpy as np

        fr = PointFrame(base, tuple(base.sample(12, seed=0)))
        bv = np.array([[float(v) for v in b_fn(p.x)] for p in fr.point])
        norm2 = quad(bv, fr.g_inv, bv)
        bad = norm2 >= 1.0
        if bad.any():
            k, p = fr._first(bad)
            raise SingularMetricError(
                f"|b|_g = {math.sqrt(norm2[k]):.3f} >= 1 at {p}; "
                "the changed metric degenerates"
            )
    return changed


def conformal_change(base: FinslerStructure, sigma, name: str = None) -> FinslerStructure:
    """L~ = e^(sigma(x)) L for a positional factor sigma.

    The change is written once, as the lift (x, y, Lb) -> e^(sigma(x)) Lb of
    a base Lagrangian value or jet Lb, kept in `meta["lift"]`: L~ lifts
    base.L, and `PointFrame.derived` lifts a base frame's Lagrangian jet.
    """
    if callable(sigma):
        sig_fn = sigma
    else:
        const = float(sigma)
        sig_fn = lambda x: const

    def lift(x, y, Lb):
        return exp(sig_fn(x)) * Lb

    return FinslerStructure(
        n=base.n, L=lambda x, y: lift(x, y, base.L(x, y)),
        name=name or f"conformal({base.name})",
        domain=base.domain, sample_domain=base.sample_domain,
        meta={"base": base, "lift": lift, "sigma_fn": sig_fn},
    )


def randers_sphere2() -> FinslerStructure:
    """Sphere chart with a constant (hence closed) drift covector."""
    return randers_change(sphere2(), (0.2, 0.0), name="randers_sphere2")


def conformal_quartic2() -> FinslerStructure:
    """Quartic Minkowski norm rescaled by e^(0.3 x^1): curved and non-Riemannian."""
    return conformal_change(
        minkowski_quartic(2), lambda x: 0.3 * x[0], name="conformal_quartic2"
    )


_NAMED = {
    "euclidean2": lambda: euclidean(2),
    "euclidean3": lambda: euclidean(3),
    "minkowski_quartic2": lambda: minkowski_quartic(2),
    "minkowski_quartic3": lambda: minkowski_quartic(3),
    "sphere2": sphere2,
    "randers_sphere2": randers_sphere2,
    "conformal_quartic2": conformal_quartic2,
}


def by_name(name: str) -> FinslerStructure:
    if name not in _NAMED:
        raise ValueError(
            f"unknown metric name {name!r}; known: {', '.join(sorted(_NAMED))}"
        )
    return _NAMED[name]()


# -- JSON metric specifications ----------------------------------------------


def _field(spec, key: str, convert):
    """convert(spec[key]); a missing key (all fields are read here, so never a
    nested spec's) or a value of the wrong type is a ValueError naming key."""
    try:
        return convert(spec[key])
    except KeyError:
        raise ValueError(f"metric field {key!r} is missing") from None
    except TypeError:
        raise ValueError(f"metric field {key!r} has the wrong type") from None


def _whole(value, key: str) -> int:
    """An int, or a float with no fractional part, as an int; a fractional
    number, a string or a bool is a ValueError naming the field `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"metric field {key!r} must hold integers, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """An int or a float as a float; a string or a bool is a ValueError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"metric field {key!r} must hold numbers, got {value!r}")
    return float(value)


def _poly_callable(spec, n: int, key: str) -> Callable:
    """Polynomial in x from spec field `key`: a number, or {"terms": [{"coef", "powers"}]}."""
    if not isinstance(spec, dict):
        const = _real(spec, key)
        return lambda x: const
    terms = []
    for t in _field(spec, "terms", list):
        coef = _field(t, "coef", lambda c: _real(c, "coef"))
        powers = _field(t, "powers", lambda p: tuple(_whole(e, "powers") for e in p))
        if len(powers) != n or any(e < 0 for e in powers):
            raise ValueError(f"term powers must be {n} nonnegative integers")
        terms.append((coef, powers))

    def poly(x):
        acc = 0.0
        for coef, powers in terms:
            term = coef
            for xi, e in zip(x, powers):
                if e:
                    term = term * xi ** e
            acc = term + acc
        return acc

    return poly


def structure_from_spec(spec: dict) -> FinslerStructure:
    """Build a structure from the JSON metric schema used by the CLI."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError("metric spec must be an object with a 'family' key")
    family = spec["family"]
    if family == "euclidean":
        return euclidean(_field(spec, "dim", lambda d: _whole(d, "dim")))
    if family == "minkowski_quartic":
        return minkowski_quartic(_field(spec, "dim", lambda d: _whole(d, "dim")))
    if family == "riemannian":
        if "preset" in spec:  # sphere2 is the one preset
            if spec["preset"] != "sphere2":
                raise ValueError(f"metric field 'preset' must be \"sphere2\", "
                                 f"got {spec['preset']!r}")
            return sphere2()
        n = _field(spec, "dim", lambda d: _whole(d, "dim"))
        rows = _field(spec, "a", lambda a: [list(r) for r in a])
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("'a' must be an n x n table of polynomial specs")
        polys = [[_poly_callable(rows[i][j], n, "a") for j in range(n)] for i in range(n)]

        def a_fn(x):
            vals = [[polys[i][j](x) for j in range(n)] for i in range(n)]
            # symmetrize so mildly asymmetric input tables cannot sneak in
            return [
                [vals[i][j] if i <= j else vals[j][i] for j in range(n)]
                for i in range(n)
            ]

        return riemannian(a_fn, n, name=spec.get("name", "riemannian"))
    if family == "randers":
        base = _field(spec, "base", structure_from_spec)
        comps = _field(spec, "b", list)
        if len(comps) != base.n:
            raise ValueError(f"'b' needs {base.n} components")
        polys = [_poly_callable(c, base.n, "b") for c in comps]
        b_fn = lambda x: [p(x) for p in polys]
        return randers_change(base, b_fn, name=spec.get("name"))
    if family == "conformal":
        base = _field(spec, "base", structure_from_spec)
        sig = _field(spec, "sigma", lambda s: _poly_callable(s, base.n, "sigma"))
        return conformal_change(base, sig, name=spec.get("name"))
    raise ValueError(f"unknown metric family {family!r}")
