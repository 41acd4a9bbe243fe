"""Vector fields along the projection.

A pi-vector field is given by its chart components X^i(x, y), one callable
returning all n. The classes here define fields and only produce their
stacked order-1 jet on a PointFrame (`PiVectorField.jets`): closedness and
every other identity reads those jets alone. The musical isomorphisms on
them are the frame's (`PointFrame.flat_jets`, `PointFrame.sharp_jets`), as
the frame owns g and its inverse; all other calculus on them lives in
`picalc`.
"""

from __future__ import annotations

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

