"""Certificates of the spray, the nonlinear connection, and the metric
linear connection, and the horizontal and vertical projectors.

The spray is certified against the unreduced geodesic equation, not
against its own defining solve, so a wrong sign or a dropped term in the
tower shows up as a nonzero defect here.

Every entry point takes a chart point, or a tuple of them: on a tuple each
defect is an array with one entry per point, equal to the defect at that
point alone.
"""

from __future__ import annotations

import numpy as np

from .chart import ChartPoint
from .frame import dot, matvec, max_abs, point_frame, pymax


def spray_defect(F, p: ChartPoint, G=None) -> float:
    """Residual of the unreduced geodesic equation at p.

    Checks both chart components of i_S(d d_J E) + d E = 0:

        res_x[m] = y^j d_j(dy_m E) - y^i d_m(dy_i E) - 2 g_mj G^j + d_m E
        res_y[m] = dy_m E - g_mi y^i

    With the frame's own spray both residuals vanish to rounding; an
    externally supplied G is certified instead of trusted.
    """
    fr = point_frame(F, p)
    n = fr.n
    y = fr._y()
    Gv = fr.G if G is None else np.asarray(G, dtype=float)

    def e_partial(*slots):
        multi = [0] * (2 * n)
        for s in slots:
            multi[s] += 1
        return fr.E_jet.partial(tuple(multi))

    res = 0.0
    for m in range(n):
        acc = e_partial(m)
        for j in range(n):
            acc = acc + y[..., j] * e_partial(j, n + m)
            acc = acc - y[..., j] * e_partial(m, n + j)
            acc = acc - 2.0 * fr.g[..., m, j] * Gv[..., j]
        res = pymax(res, abs(acc))
        fib = e_partial(n + m) - dot(fr.g[..., m, :], y)
        res = pymax(res, abs(fib))
    return res


def deflection_defect(F, p: ChartPoint) -> float:
    """max |F^i_kj y^k - N^i_j|: the linear connection must reproduce the
    nonlinear one on the tautological section."""
    fr = point_frame(F, p)
    return max_abs(np.einsum("...ikj,...k->...ij", fr.F, fr._y()) - fr.N, 2)


def conservativity_defect(F, p: ChartPoint) -> float:
    """max_i |delta_i E|: the energy must be horizontally constant."""
    fr = point_frame(F, p)
    return pymax(*np.moveaxis(np.abs(fr.delta_values(fr.E_jet)), -1, 0))


def torsion_defect(F, p: ChartPoint) -> float:
    """Symmetry defect of the horizontal coefficients, max |F^i_jk - F^i_kj|."""
    fr = point_frame(F, p)
    return max_abs(fr.F - np.swapaxes(fr.F, -1, -2), 3)


def metricity_defect(F, p: ChartPoint):
    """Horizontal and vertical metric derivatives under the linear connection.

    Returns (h_defect, v_defect) where

        h: delta_k g_ij - F^m_ik g_mj - F^m_jk g_im
        v: dy_k g_ij - C^m_ik g_mj - C^m_jk g_im
    """
    fr = point_frame(F, p)
    n = fr.n
    dg = fr._dg_jets.value  # [i, j, k] = delta_k g_ij
    dyg = fr.g_jets.coeffs[..., 1 + n:1 + 2 * n]  # [i, j, k] = dy_k g_ij
    h = dg - np.einsum("...mik,...mj->...ijk", fr.F, fr.g) \
        - np.einsum("...mjk,...im->...ijk", fr.F, fr.g)
    v = dyg - np.einsum("...mik,...mj->...ijk", fr.Cmix, fr.g) \
        - np.einsum("...mjk,...im->...ijk", fr.Cmix, fr.g)
    return max_abs(h, 3), max_abs(v, 3)


def project_h(F, p: ChartPoint, vec) -> np.ndarray:
    """Horizontal projector on a full tangent vector (a^i, b^i) at (x, y):
    keeps the base part and subtracts the connection drift, (a, -N a)."""
    fr = point_frame(F, p)
    n = fr.n
    a = np.asarray(vec, dtype=float)[..., :n]
    drift = matvec(-fr.N, a)
    return np.concatenate([np.broadcast_to(a, drift.shape), drift], axis=-1)


def project_v(F, p: ChartPoint, vec) -> np.ndarray:
    """Vertical projector: (0, b + N a)."""
    fr = point_frame(F, p)
    vec = np.asarray(vec, dtype=float)
    n = fr.n
    b = vec[..., n:] + matvec(fr.N, vec[..., :n])
    return np.concatenate([np.zeros(b.shape), b], axis=-1)


def projector_defects(F, p: ChartPoint) -> float:
    """Idempotency, complementarity, and annihilation defects of (h, v)."""
    fr = point_frame(F, p)
    n = fr.n
    eye = np.eye(2 * n)
    h = np.stack([project_h(F, p, eye[:, c]) for c in range(2 * n)], axis=-1)
    v = np.stack([project_v(F, p, eye[:, c]) for c in range(2 * n)], axis=-1)
    return pymax(0.0, max_abs(h @ h - h, 2), max_abs(v @ v - v, 2),
                 max_abs(h + v - eye, 2), max_abs(h @ v, 2), max_abs(v @ h, 2))
