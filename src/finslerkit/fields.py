"""Vector fields and forms along the projection, plus probe-field builders.

A pi-vector field is given by its chart components X^i(x, y). The classes
here only know how to produce component jets on a PointFrame; all calculus
on them lives in `picalc`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import CapabilityError, DegenerateFieldError


class PiVectorField:
    """Base class: components along the pullback bundle."""

    def jets(self, frame, order: int):
        raise NotImplementedError

    def values(self, frame) -> np.ndarray:
        return np.array([jet.value for jet in self.jets(frame, 1)])


class ComponentField(PiVectorField):
    """Field from explicit component callables (x, y) -> X^i."""

    def __init__(self, components, name: str = None):
        self.components = tuple(components)
        self.name = name

    def jets(self, frame, order: int):
        return [frame.field_jet(c, order) for c in self.components]

    def __repr__(self):
        return f"ComponentField({self.name or len(self.components)})"


def constant_field(vec) -> ComponentField:
    """The pi-lift of a constant chart vector."""
    comps = []
    for v in vec:
        comps.append((lambda c: (lambda x, y: c))(float(v)))
    return ComponentField(comps, name=f"const{tuple(float(v) for v in vec)}")


def tautological_field(n: int) -> ComponentField:
    """The canonical field eta with components y^i."""
    comps = [(lambda i: (lambda x, y: y[i]))(i) for i in range(n)]
    return ComponentField(comps, name="eta")


class GradientField(PiVectorField):
    """Gradient of a scalar field: X^i = g^ij delta_j f.

    Component jets are available to order one; the inverse-metric jets the
    frame holds stop there.
    """

    def __init__(self, f, name: str = None):
        self.f = f
        self.name = name

    def jets(self, frame, order: int):
        if order > 1:
            raise CapabilityError("gradient components carry jets up to order 1")
        n = frame.n
        fj = frame.field_jet(self.f, 2)
        df = frame.delta_jets(fj)
        out = []
        for i in range(n):
            acc = frame.ginv_jets[i][0] * df[0]
            for k in range(1, n):
                acc = acc + frame.ginv_jets[i][k] * df[k]
            out.append(acc.truncated(order))
        return out

    def __repr__(self):
        return f"GradientField({self.name or self.f!r})"


class ScaledField(PiVectorField):
    """Pointwise scaling tau(x, y) * X of another field."""

    def __init__(self, scalar, base: PiVectorField, name: str = None):
        self.scalar = scalar
        self.base = base
        self.name = name

    def jets(self, frame, order: int):
        s = frame.field_jet(self.scalar, order)
        return [s * jet for jet in self.base.jets(frame, order)]


class DriftCompanionField(PiVectorField):
    """The transverse companion of a drift covector b on a structure:

        m^i = g^ij b_j - (alpha / L^2) y^i,   alpha = b_i y^i.

    It is g-orthogonal to the canonical field eta by construction. The
    components are read through whatever frame evaluates them, so the same
    object serves a base structure and its Randers change.
    """

    def __init__(self, b_fn, name: str = None):
        self.b_fn = b_fn
        self.name = name or "m"
        self._comps = None

    def _component_callables(self, n: int):
        if self._comps is None:
            b_fn = self.b_fn
            self._comps = [
                (lambda i: (lambda x, y: b_fn(x)[i]))(i) for i in range(n)
            ]
        return self._comps

    def jets(self, frame, order: int):
        if order > 1:
            raise CapabilityError("drift companion components carry jets up to order 1")
        n = frame.n
        comps = self._component_callables(n)
        b = [frame.field_jet(c, order) for c in comps]
        yj = [frame.field_jet(_coord_y(i), order) for i in range(n)]
        alpha = b[0] * yj[0]
        for i in range(1, n):
            alpha = alpha + b[i] * yj[i]
        Lj = frame.L_jet.truncated(order)
        scale = alpha / (Lj * Lj)
        out = []
        for i in range(n):
            acc = frame.ginv_jets[i][0].truncated(order) * b[0]
            for k in range(1, n):
                acc = acc + frame.ginv_jets[i][k].truncated(order) * b[k]
            out.append(acc - scale * yj[i])
        return out


_COORD_Y = {}


def _coord_y(i: int):
    fn = _COORD_Y.get(i)
    if fn is None:
        fn = (lambda k: (lambda x, y: y[k]))(i)
        _COORD_Y[i] = fn
    return fn


class ProjectedField(PiVectorField):
    """g-orthogonal projection of a constant vector away from a field X."""

    def __init__(self, vec, X: PiVectorField, name: str = None):
        self.vec = tuple(float(v) for v in vec)
        self.X = X
        self.name = name

    def jets(self, frame, order: int):
        n = frame.n
        Xj = self.X.jets(frame, order)
        vj = [frame.field_jet((lambda c: (lambda x, y: c))(v), order) for v in self.vec]
        # g(v, X) and g(X, X) as jets
        gvx = None
        gxx = None
        for i in range(n):
            for j in range(n):
                gij = frame.g_jets[i][j].truncated(order)
                tvx = gij * (vj[i] * Xj[j])
                txx = gij * (Xj[i] * Xj[j])
                gvx = tvx if gvx is None else gvx + tvx
                gxx = txx if gxx is None else gxx + txx
        if abs(gxx.value) < 1e-18:
            raise DegenerateFieldError("cannot project: X has vanishing g-norm")
        lam = gvx / gxx
        return [vj[i] - lam * Xj[i] for i in range(n)]


class PiForm:
    """Alternating form along the projection, stored on increasing index
    tuples. Degree 0 wraps a scalar field; degrees above 3 are out of scope.
    """

    MAX_DEGREE = 3

    def __init__(self, n: int, degree: int, components: dict):
        if degree < 0 or degree > self.MAX_DEGREE:
            raise CapabilityError(
                f"forms of degree {degree} are not supported (max {self.MAX_DEGREE})"
            )
        self.n = n
        self.degree = degree
        self.components = dict(components)
        for key in self.components:
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError(f"component key {key} is not a strict increasing tuple")

    @classmethod
    def from_scalar(cls, n: int, f) -> "PiForm":
        return cls(n, 0, {(): f})

    @classmethod
    def one_form(cls, n: int, comps) -> "PiForm":
        return cls(n, 1, {(i,): c for i, c in enumerate(comps)})

    def component(self, key):
        """Component at any index tuple, with alternating sign rules."""
        if len(set(key)) != len(key):
            return None, 0.0
        order = tuple(sorted(key))
        sign = _perm_sign(key)
        fn = self.components.get(order)
        return fn, sign

    def keys(self):
        return combinations(range(self.n), self.degree)

    def jet(self, frame, key, order: int):
        fn = self.components.get(tuple(key))
        if fn is None:
            return None
        return frame.field_jet(fn, order)


def _perm_sign(key) -> float:
    key = list(key)
    sign = 1.0
    for i in range(len(key)):
        for j in range(i + 1, len(key)):
            if key[i] > key[j]:
                sign = -sign
    return sign
