"""Curvature of the Barthel connection and the scalar-curvature form test.

Conventions, fixed once for the whole package:

  * vh-torsion      R^i_jk = delta_k N^i_j - delta_j N^i_k
  * h-curvature     R^i_hjk = -delta_j F^i_hk + delta_k F^i_hj
                    - F^m_hk F^i_mj + F^m_hj F^i_mk + R^m_jk C^i_hm
  * contraction     R^i_hjk y^h = R^i_jk       (certified numerically)
  * Ricci trace     Ric_jh = R^k_hjk, scalar = g^jh Ric_jh

With these signs the round unit sphere carries scalar value +2 in
dimension two.

The scalar-curvature shape (eq2.13) is R^i_jk = omega_j phi^i_k - omega_k phi^i_j.
Its kappa and omega are read off the trace T_j = R^i_ji of the vh-torsion.
Contracting the shape with y^j (phi y = 0, tr phi = n - 1) and tracing it give

  * kappa           kappa = T_j y^j / ((n-1) L^2) = Ric_jh y^j y^h / ((n-1) L^2)
  * omega           (n-2) omega_j = T_j - kappa L ell_j, with omega_j y^j = kappa L^2

kappa is the flag curvature K of R^i_jk y^j = K L^2 phi^i_k, +1 on the
round unit sphere. In 2D phi has rank one and annihilates y, so a covector
that annihilates y lies in the shape's kernel: only omega's ell part,
kappa L ell, is determined, and T supplies it.

Both entry points take the frame they compute on, over a tuple of chart
points: every result carries the frame's leading point axis, equal point by
point to the result on a frame at that point alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import PointFrame, dot, max_abs, pymax


def curvature_contraction_defect(fr: PointFrame) -> np.ndarray:
    """max |R^i_hjk y^h - R^i_jk|: the certificate pinning the sign
    conventions of both curvature tensors to each other."""
    contracted = np.einsum("...ihjk,...h->...ijk", fr.hcurv, fr.y)
    return max_abs(contracted - fr.Rhat, 3)


@dataclass
class ScalarFormResult:
    """The vh-torsion against the scalar-curvature shape
    R^i_jk = omega_j phi^i_k - omega_k phi^i_j, with kappa and omega read
    off the torsion's traces (see the module docstring)."""

    kappa: np.ndarray
    residual: np.ndarray
    scale: np.ndarray


def scalar_form_check(fr: PointFrame) -> ScalarFormResult:
    """kappa at each of the frame's points, and the distance of the
    vh-torsion from the shape that kappa and omega build; a structure not
    of scalar flag curvature leaves a large residual."""
    n = fr.n
    R = fr.Rhat
    T = np.einsum("...iji->...j", R)
    kappa = dot(T, fr.y) / ((n - 1) * fr.L * fr.L)
    kLell = (kappa * fr.L)[:, None] * fr.ell
    # in 2D this is omega = T, whose ell part is kappa L ell: the rest of T
    # lies in the kernel of the shape there
    omega = kLell + (T - (n - 1) * kLell) / max(n - 2, 1)
    phi = fr.phi
    model = np.einsum("...j,...ik->...ijk", omega, phi) \
        - np.einsum("...k,...ij->...ijk", omega, phi)
    return ScalarFormResult(kappa, max_abs(R - model, 3),
                            pymax(1.0, max_abs(R, 3), max_abs(model, 3)))
