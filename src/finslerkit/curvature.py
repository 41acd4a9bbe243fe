"""Curvature of the Barthel connection and the scalar-curvature form test.

Conventions, fixed once for the whole package:

  * vh-torsion      R^i_jk = delta_k N^i_j - delta_j N^i_k
  * h-curvature     R^i_hjk = -delta_j F^i_hk + delta_k F^i_hj
                    - F^m_hk F^i_mj + F^m_hj F^i_mk + R^m_jk C^i_hm
  * contraction     R^i_hjk y^h = R^i_jk       (certified numerically)
  * Ricci trace     Ric_jh = R^k_hjk, scalar = g^jh Ric_jh

With these signs the round unit sphere carries scalar value +2 in
dimension two.

Both entry points take a chart point, or a tuple of them: on a tuple every
result carries a leading point axis, equal point by point to the result at
that point alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import ChartPoint
from .frame import _plain, max_abs, point_frame, pymax


def curvature_contraction_defect(F, p: ChartPoint) -> float:
    """max |R^i_hjk y^h - R^i_jk|: the certificate pinning the sign
    conventions of both curvature tensors to each other."""
    fr = point_frame(F, p)
    contracted = np.einsum("...ihjk,...h->...ijk", fr.hcurv, fr._y())
    return max_abs(contracted - fr.Rhat, 3)


@dataclass
class ScalarFormResult:
    """Outcome of fitting the vh-torsion to the rank-two scalar form shape

        R^i_jk = omega_j phi^i_k - omega_k phi^i_j,
        omega_i = (L^2/3) u_i + kappa L ell_i,

    with unknowns kappa (a scalar) and u_i (standing for dy_i kappa).
    """

    kappa: float
    u: np.ndarray
    omega: np.ndarray
    residual: float
    scale: float
    torsion_norm: float
    supplied: bool

    @property
    def relative_residual(self) -> float:
        return self.residual / self.scale


def scalar_form_check(F, p: ChartPoint, kappa=None) -> ScalarFormResult:
    """Test whether the vh-torsion has the isotropic (scalar) shape at p.

    When `kappa` is a scalar field callable it is differentiated and the
    claimed identity is evaluated directly; otherwise the best (kappa, u)
    pair is fitted per point by least squares and the fit residual reported.
    A genuinely anisotropic structure leaves a large residual.
    """
    fr = point_frame(F, p)
    n = fr.n
    L = np.asarray(fr.L)
    ell = fr.ell
    phi = fr.phi
    target = fr.Rhat

    if kappa is not None:
        kj = fr.field_jet(kappa, 1)
        kval = kj.value
        u = np.array(kj.coeffs[..., 1 + n:1 + 2 * n])
        supplied = True
    else:
        rows = []
        rhs = []
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    kcol = L * (ell[..., j] * phi[..., i, k] - ell[..., k] * phi[..., i, j])
                    ucols = [
                        (L * L / 3.0) * ((1.0 if m == j else 0.0) * phi[..., i, k]
                                         - (1.0 if m == k else 0.0) * phi[..., i, j])
                        for m in range(n)
                    ]
                    rows.append(np.stack([kcol] + ucols, axis=-1))
                    rhs.append(target[..., i, j, k])
        A = np.stack(rows, axis=-2)
        b = np.stack(rhs, axis=-1)
        # one least-squares fit per point
        fits = [np.linalg.lstsq(a, r, rcond=None)[0]
                for a, r in zip(A.reshape((-1,) + A.shape[-2:]), b.reshape(-1, b.shape[-1]))]
        sol = np.reshape(fits, A.shape[:-2] + (n + 1,))
        kval = sol[..., 0]
        u = sol[..., 1:]
        supplied = False

    omega = (L * L / 3.0)[..., None] * u + np.asarray(kval * L)[..., None] * ell
    model = np.einsum("...j,...ik->...ijk", omega, phi) \
        - np.einsum("...k,...ij->...ijk", omega, phi)
    return ScalarFormResult(
        kappa=_plain(kval),
        u=u,
        omega=omega,
        residual=max_abs(target - model, 3),
        scale=pymax(1.0, max_abs(target, 3), max_abs(model, 3)),
        torsion_norm=max_abs(target, 3),
        supplied=supplied,
    )
