"""Vector fields and forms along the projection, plus probe-field builders.

A pi-vector field is given by its chart components X^i(x, y), and a form
by its components on increasing index tuples. The classes here only know
how to produce the stacked order-1 jet of those components on a PointFrame
(`PiVectorField.jets`, `PiForm.jets`): closedness and every other identity
of `picalc` reads the first derivatives of a field only. All calculus on
them lives in `picalc`.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import CapabilityError, DegenerateFieldError
from .jets import Jet


class PiVectorField:
    """Base class: components along the pullback bundle."""

    def jets(self, frame) -> Jet:
        """The components X^i as one (..., n) stack of order-1 jets: the
        component axis is the last tensor axis, after the point axis of a
        batch frame."""
        raise NotImplementedError

    def values(self, frame) -> np.ndarray:
        return self.jets(frame).value.copy()


class ComponentField(PiVectorField):
    """Field from explicit component callables (x, y) -> X^i."""

    def __init__(self, components, name: str = None):
        self.components = tuple(components)
        self.name = name

    def jets(self, frame) -> Jet:
        return Jet.stack([frame.field_jet(c, 1) for c in self.components])

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
    """Gradient of a scalar field: X^i = g^ij delta_j f."""

    def __init__(self, f, name: str = None):
        self.f = f
        self.name = name

    def jets(self, frame) -> Jet:
        df = frame.delta_jets(frame.field_jet(self.f, 2))
        return (frame.ginv_jets * df[..., None, :, :]).sum_last()

    def __repr__(self):
        return f"GradientField({self.name or self.f!r})"


class DriftCompanionField(PiVectorField):
    """The transverse companion of a drift covector b on a structure:

        m^i = g^ij b_j - (alpha / L^2) y^i,   alpha = b_i y^i.

    It is g-orthogonal to the canonical field eta by construction. The
    components are read through whatever frame evaluates them, so the same
    object serves a base structure and its Randers change, and every
    companion of one b shares the frames' cached jets of b.
    """

    def __init__(self, b_fn, name: str = None):
        self.b_fn = b_fn
        self.name = name or "m"

    def jets(self, frame) -> Jet:
        n = frame.n
        b = Jet.stack([frame.field_jet(Positional(self.b_fn, i), 1) for i in range(n)])
        yj = Jet.variable(2 * n, 1, range(n, 2 * n), frame._y())
        alpha = (b * yj).sum_last()
        scale = alpha / (2.0 * frame.E_jet.truncated(1))  # L^2 = 2E
        acc = (frame.ginv_jets * b[..., None, :, :]).sum_last()
        return acc - scale[..., None, :] * yj


class Positional:
    """The scalar field (x, y) -> fn(x), or fn(x)[i], of a function of the
    base point. Instances of one (fn, i) are equal, so a frame's field-jet
    cache holds one jet for all of them."""

    __slots__ = ("fn", "i")

    def __init__(self, fn, i: int = None):
        self.fn = fn
        self.i = i

    def __call__(self, x, y):
        value = self.fn(x)
        return value if self.i is None else value[self.i]

    def __eq__(self, other):
        return isinstance(other, Positional) and (self.fn, self.i) == (other.fn, other.i)

    def __hash__(self):
        return hash((self.fn, self.i))


class ProjectedField(PiVectorField):
    """g-orthogonal projection of a constant vector away from a field X."""

    def __init__(self, vec, X: PiVectorField, name: str = None):
        self.vec = tuple(float(v) for v in vec)
        self.X = X
        self.name = name

    def jets(self, frame) -> Jet:
        return project_away(frame, np.array(self.vec), self.X.jets(frame))


def project_away(frame, vecs, Xj: Jet) -> Jet:
    """Jets of v - (g(v, X) / g(X, X)) X for constant vectors v, from the jets
    Xj of X. `vecs` is one vector (n,) or a stack of them (k, n); Xj then
    carries one axis for the stack between its point axes and its component
    axis, as `Xj[..., None, :, :]` does. A stack gives the projections of
    every vector, each byte-equal to projecting that vector alone."""
    n = frame.n
    vj = Jet.constant(2 * n, Xj.order, vecs)
    # g(v, X) and g(X, X) as jets, adding the terms in row-major (i, j) order
    i, j = np.divmod(np.arange(n * n), n)
    gij = frame.g_jets.truncated(Xj.order)[..., i, j, :]
    gij = Jet(gij.nvars, gij.order, frame._against(gij.coeffs, Xj.coeffs.ndim))
    gvx = (gij * (vj[..., i, :] * Xj[..., j, :])).sum_last()
    gxx = (gij * (Xj[..., i, :] * Xj[..., j, :])).sum_last()
    bad = np.abs(gxx.value) < 1e-18
    if bad.any():
        raise DegenerateFieldError(
            f"cannot project: X has vanishing g-norm at {frame._first(bad)[1]}")
    lam = gvx / gxx
    return vj - lam[..., None, :] * Xj


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
    def one_form(cls, n: int, comps) -> "PiForm":
        return cls(n, 1, {(i,): c for i, c in enumerate(comps)})

    def jets(self, frame) -> Jet:
        """The components as one stacked order-1 jet on a frame, one (n,)
        axis per degree after the frame's point axes: w[..., K, :] is the jet
        of w_K for every index tuple K, antisymmetric in K, and zero where a
        component is absent."""
        out = Jet.constant(2 * self.n, 1, np.zeros(frame._lead + (self.n,) * self.degree))
        for key, fn in self.components.items():
            jet = frame.field_jet(fn, 1).coeffs
            for perm in permutations(key):
                out.coeffs[(...,) + perm + (slice(None),)] = _perm_sign(perm) * jet
        return out


def _perm_sign(key) -> float:
    key = list(key)
    sign = 1.0
    for i in range(len(key)):
        for j in range(i + 1, len(key)):
            if key[i] > key[j]:
                sign = -sign
    return sign
