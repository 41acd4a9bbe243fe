"""Certificates of the spray, the nonlinear connection, and the metric
linear connection, and the horizontal and vertical projectors.

The spray is certified against the unreduced geodesic equation, not
against its own defining solve, so a wrong sign or a dropped term in the
tower shows up as a nonzero defect here.
"""

from __future__ import annotations

import numpy as np

from .chart import ChartPoint
from .frame import point_frame


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
    y = np.array(p.y)
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
            acc += y[j] * e_partial(j, n + m)
            acc -= y[j] * e_partial(m, n + j)
            acc -= 2.0 * fr.g[m, j] * Gv[j]
        res = max(res, abs(acc))
        fib = e_partial(n + m) - float(fr.g[m] @ y)
        res = max(res, abs(fib))
    return res


def deflection_defect(F, p: ChartPoint) -> float:
    """max |F^i_kj y^k - N^i_j|: the linear connection must reproduce the
    nonlinear one on the tautological section."""
    fr = point_frame(F, p)
    y = np.array(p.y)
    return float(np.max(np.abs(np.einsum("ikj,k->ij", fr.F, y) - fr.N)))


def conservativity_defect(F, p: ChartPoint) -> float:
    """max_i |delta_i E|: the energy must be horizontally constant."""
    fr = point_frame(F, p)
    jet = fr.E_jet
    return max(abs(v) for v in fr.delta_values(jet))


def torsion_defect(F, p: ChartPoint) -> float:
    """Symmetry defect of the horizontal coefficients, max |F^i_jk - F^i_kj|."""
    fr = point_frame(F, p)
    return float(np.max(np.abs(fr.F - np.transpose(fr.F, (0, 2, 1)))))


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
    h = dg - np.einsum("mik,mj->ijk", fr.F, fr.g) - np.einsum("mjk,im->ijk", fr.F, fr.g)
    v = dyg - np.einsum("mik,mj->ijk", fr.Cmix, fr.g) - np.einsum("mjk,im->ijk", fr.Cmix, fr.g)
    return float(np.max(np.abs(h))), float(np.max(np.abs(v)))


def project_h(F, p: ChartPoint, vec) -> np.ndarray:
    """Horizontal projector on a full tangent vector (a^i, b^i) at (x, y):
    keeps the base part and subtracts the connection drift, (a, -N a)."""
    fr = point_frame(F, p)
    vec = np.asarray(vec, dtype=float)
    n = fr.n
    a = vec[:n]
    return np.concatenate([a, -fr.N @ a])


def project_v(F, p: ChartPoint, vec) -> np.ndarray:
    """Vertical projector: (0, b + N a)."""
    fr = point_frame(F, p)
    vec = np.asarray(vec, dtype=float)
    n = fr.n
    a = vec[:n]
    b = vec[n:]
    return np.concatenate([np.zeros(n), b + fr.N @ a])


def projector_defects(F, p: ChartPoint) -> float:
    """Idempotency, complementarity, and annihilation defects of (h, v)."""
    fr = point_frame(F, p)
    n = fr.n
    eye = np.eye(2 * n)
    h = np.column_stack([project_h(F, p, eye[:, c]) for c in range(2 * n)])
    v = np.column_stack([project_v(F, p, eye[:, c]) for c in range(2 * n)])
    worst = 0.0
    worst = max(worst, float(np.max(np.abs(h @ h - h))))
    worst = max(worst, float(np.max(np.abs(v @ v - v))))
    worst = max(worst, float(np.max(np.abs(h + v - eye))))
    worst = max(worst, float(np.max(np.abs(h @ v))))
    worst = max(worst, float(np.max(np.abs(v @ h))))
    return worst
