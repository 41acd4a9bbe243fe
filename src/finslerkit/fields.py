"""Vector fields along the projection, plus probe-field builders.

A pi-vector field is given by its chart components X^i(x, y), one callable
returning all n. The classes here only produce their stacked order-1 jet on
a PointFrame (`PiVectorField.jets`), and the functions the jets of a drift
covector, of its companion field and of a g-projection: closedness and
every other identity of `picalc` reads those jets alone. The musical
isomorphisms on them are the frame's (`PointFrame.flat_jets`,
`PointFrame.sharp_jets`), as the frame owns g and its inverse; all other
calculus on them lives in `picalc`.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFieldError
from .jets import Jet


class PiVectorField:
    """Base class: components along the pullback bundle."""

    def jets(self, frame) -> Jet:
        """The components X^i as one (..., n) stack of order-1 jets: the
        component axis is the last tensor axis, after the frame's point
        axis."""
        raise NotImplementedError


class ComponentField(PiVectorField):
    """Field from one callable (x, y) -> [X^1, ..., X^n], evaluated once for
    all its components."""

    def __init__(self, fn, name: str = None):
        self.fn = fn
        self.name = name

    def jets(self, frame) -> Jet:
        return frame.field_jet(self.fn, 1)

    def __repr__(self):
        return f"ComponentField({self.name or self.fn!r})"


def constant_field(vec) -> ComponentField:
    """The pi-lift of a constant chart vector."""
    const = tuple(float(v) for v in vec)
    return ComponentField(lambda x, y: const, name=f"const{const}")


class GradientField(PiVectorField):
    """Gradient of a scalar field: X^i = g^ij delta_j f."""

    def __init__(self, f, name: str = None):
        self.f = f
        self.name = name

    def jets(self, frame) -> Jet:
        return frame.sharp_jets(frame.delta_jets(frame.field_jet(self.f, 2)))

    def __repr__(self):
        return f"GradientField({self.name or self.f!r})"


def drift_companion_jets(frame, bj: Jet) -> Jet:
    """The order-1 jets of the transverse companion of a drift covector b on
    a frame's structure, from the jets `bj` of b (`covector_jets`):

        m^i = g^ij b_j - (alpha / L^2) y^i,   alpha = b_i y^i.

    It is g-orthogonal to the canonical field eta by construction. b is
    positional, so one `bj` serves a base frame and the frame of its Randers
    change at the same points.
    """
    n = frame.n
    yj = Jet.variable(2 * n, 1, range(n, 2 * n), frame.y)
    alpha = (bj * yj).sum_last()
    scale = alpha / (2.0 * frame.E_jet.truncated(1))  # L^2 = 2E
    return frame.sharp_jets(bj) - scale[..., None, :] * yj


def covector_jets(frame, b_fn) -> Jet:
    """The components b_i of a positional covector x -> b(x) as one (..., n)
    stack of order-1 jets on a frame, from one evaluation of b."""
    return frame.field_jet(lambda x, y: b_fn(x), 1)


def project_away(frame, vecs, Xj: Jet) -> Jet:
    """Jets of v - (g(v, X) / g(X, X)) X for constant vectors v, from the jets
    Xj of X. `vecs` is one vector (n,) or a stack of them (k, n); Xj then
    carries one axis for the stack between its point axis and its component
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
