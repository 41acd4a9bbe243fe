"""Certificates of the spray, the nonlinear connection, and the metric
linear connection, and the horizontal and vertical projectors.

The spray is certified against the unreduced geodesic equation, not
against its own defining solve, so a wrong sign or a dropped term in the
tower shows up as a nonzero defect here.

Every entry point takes the frame it computes on, over a tuple of chart
points: each defect is an array with one entry per point, equal to the
defect on a frame at that point alone.
"""

from __future__ import annotations

import numpy as np

from .frame import PointFrame, dot, max_abs, pymax


def spray_defect(fr: PointFrame) -> np.ndarray:
    """Residual of the unreduced geodesic equation at each frame point.

    Checks both chart components of i_S(d d_J E) + d E = 0:

        res_x[m] = y^j d_j(dy_m E) - y^i d_m(dy_i E) - 2 g_mj G^j + d_m E
        res_y[m] = dy_m E - g_mi y^i

    Both residuals vanish to rounding: the frame's spray is certified
    instead of trusted.
    """
    n = fr.n
    y = fr.y
    mixed = fr._E_dy.dx  # [..., m, j] = d_j dy_m E
    res = 0.0
    for m in range(n):
        acc = fr.E_jet.dx[..., m]
        for j in range(n):
            acc = acc + y[..., j] * mixed[..., m, j]
            acc = acc - y[..., j] * mixed[..., j, m]
            acc = acc - 2.0 * fr.g[..., m, j] * fr.G[..., j]
        res = pymax(res, abs(acc))
        fib = fr.E_jet.dy[..., m] - dot(fr.g[..., m, :], y)
        res = pymax(res, abs(fib))
    return res


def deflection_defect(fr: PointFrame) -> np.ndarray:
    """max |F^i_kj y^k - N^i_j|: the linear connection must reproduce the
    nonlinear one on the tautological section."""
    return max_abs(np.einsum("...ikj,...k->...ij", fr.F, fr.y) - fr.N, 2)


def conservativity_defect(fr: PointFrame) -> np.ndarray:
    """max_i |delta_i E|: the energy must be horizontally constant."""
    return pymax(*np.moveaxis(np.abs(fr.delta_values(fr.E_jet)), -1, 0))


def torsion_defect(fr: PointFrame) -> np.ndarray:
    """Symmetry defect of the horizontal coefficients, max |F^i_jk - F^i_kj|."""
    return max_abs(fr.F - np.swapaxes(fr.F, -1, -2), 3)


def metricity_defect(fr: PointFrame):
    """Horizontal and vertical metric derivatives under the linear connection.

    Returns (h_defect, v_defect) where

        h: delta_k g_ij - F^m_ik g_mj - F^m_jk g_im
        v: dy_k g_ij - C^m_ik g_mj - C^m_jk g_im
    """
    dg = fr._dg_jets.value  # [i, j, k] = delta_k g_ij
    dyg = fr.g_jets.dy  # [i, j, k] = dy_k g_ij
    h = dg - np.einsum("...mik,...mj->...ijk", fr.F, fr.g) \
        - np.einsum("...mjk,...im->...ijk", fr.F, fr.g)
    v = dyg - np.einsum("...mik,...mj->...ijk", fr.Cmix, fr.g) \
        - np.einsum("...mjk,...im->...ijk", fr.Cmix, fr.g)
    return max_abs(h, 3), max_abs(v, 3)


def projector_defects(fr: PointFrame) -> np.ndarray:
    """Idempotency, complementarity, and annihilation defects of the
    horizontal and vertical projectors on full tangent vectors (a, b) at
    (x, y): h = [[I, 0], [-N, 0]] keeps the base part and subtracts the
    connection drift, (a, -N a), and v = [[0, 0], [N, I]] gives (0, b + N a)."""
    n, N = fr.n, fr.N
    h = np.zeros(N.shape[:-2] + (2 * n, 2 * n))
    v = h.copy()
    h[..., :n, :n] = v[..., n:, n:] = np.eye(n)
    h[..., n:, :n], v[..., n:, :n] = -N, N
    eye = np.eye(2 * n)
    return pymax(0.0, max_abs(h @ h - h, 2), max_abs(v @ v - v, 2),
                 max_abs(h + v - eye, 2), max_abs(h @ v, 2), max_abs(v @ h, 2))
