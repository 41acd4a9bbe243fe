"""The probe fields of the checks, drawn in a fixed order from a seeded generator.

A pi-vector field is one callable (x, y) -> [X^1, ..., X^n], with jets
`fr.field_jet(X, 1)`; a gradient probe is its scalar f, with jets
`picalc.gradient_jets(fr, fr.field_jet(f, 2))`. This module defines and
imports no class: `perfbench/spans.py` looks up a field base class here for
each class it finds.
"""

from __future__ import annotations

import numpy as np


def quadratic_scalar(n: int, rng, fiber: bool):
    """f = sum_i (a_i x^i + b_i y^i + sum_j c_ij x^i y^j) with `fiber`, and
    f = sum_i (a_i x^i + sum_j c_ij x^i x^j) without: a positional scalar."""
    lin = [rng.uniform(-1.0, 1.0, size=n) for _ in range(1 + fiber)]
    cq = rng.uniform(-0.5, 0.5, size=(n, n))

    def f(x, y):
        v = y if fiber else x
        acc = 0.0
        for i in range(n):
            for c, z in zip(lin, (x, y)):
                acc = acc + c[i] * z[i]
            for j in range(n):
                acc = acc + cq[i][j] * (x[i] * v[j])
        return acc

    return f


def affine_field(n: int, rng, fiber: bool):
    """X^i = c_i + sum_j (a_ij x^j + b_ij y^j) with `fiber`, and
    X^i = c_i + sum_j a_ij x^j, a lift of a base field, without."""
    c0 = rng.uniform(-1.0, 1.0, size=n)
    lin = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(1 + fiber)]

    def X(x, y):
        out = []
        for i in range(n):
            acc = c0[i]
            for j in range(n):
                for c, z in zip(lin, (x, y)):
                    acc = acc + c[i][j] * z[j]
            out.append(acc)
        return out

    return X


def probe_fields(F, seed: int, tag: int):
    """Three probe families, as (fields, scalars): two lifts and two
    y-dependent affine fields, then the scalars of two gradients."""
    rng = np.random.default_rng([seed, tag])
    fields = [affine_field(F.n, rng, fiber) for fiber in (False, False, True, True)]
    return fields, [quadratic_scalar(F.n, rng, fiber) for fiber in (True, False)]


def doc_scalar(x, y):
    """The documented probe f = (y1)^2/2."""
    return 0.5 * (y[0] * y[0])


def probe_scalars(F, seed: int, tag: int):
    rng = np.random.default_rng([seed, tag])
    return [quadratic_scalar(F.n, rng, True), quadratic_scalar(F.n, rng, False), doc_scalar]
