"""Calculus of fields and forms along the projection.

Implements the horizontal exterior derivative, the covariant operator
A_X, musical isomorphisms, and the composite closedness diagnostics
(Lie comparison, involutivity, drift and conformal transfer reports).
`dbar_p` is the one horizontal exterior derivative: every closedness
diagnostic applies it to the jets of i_X g, as X is closed when dbar(i_X g) = 0.

Every entry point takes the frame it computes on, a PointFrame at one
chart point or over a tuple of them. On a batch frame each array and report
field carries a leading point axis, and its entry for a point equals the
result on a frame at that point alone, bit for bit: the calculus runs once,
as stacked jet and numpy operations, over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import CapabilityError, DegenerateFieldError
from .fields import (
    DriftCompanionField,
    GradientField,
    PiForm,
    PiVectorField,
    Positional,
    _perm_sign,
    project_away,
)
from .frame import PointFrame, _plain, dot, matvec, max_abs, pymax, quad
from .jets import Jet


# -- musical isomorphisms ---------------------------------------------------


def flat(fr: PointFrame, X: PiVectorField) -> np.ndarray:
    """Lower the index: (X^flat)_k = g_km X^m."""
    return matvec(fr.g, X.values(fr))


def sharp(fr: PointFrame, omega) -> np.ndarray:
    """Raise the index of a 1-form given as a PiForm or a component array."""
    if isinstance(omega, PiForm):
        if omega.degree != 1:
            raise ValueError("sharp expects a 1-form")
        omega = omega.jets(fr).value
    return matvec(fr.g_inv, np.asarray(omega, dtype=float))


def gradient(fr: PointFrame, f) -> np.ndarray:
    """grad f = (dbar f)^sharp, components g^ij delta_j f."""
    return matvec(fr.g_inv, dbar_0(fr, f))


# -- horizontal exterior derivative ------------------------------------------


def dbar_0(fr: PointFrame, f) -> np.ndarray:
    """(dbar f)_i = delta_i f."""
    return fr.delta_values(fr.field_jet(f, 1))


def dbar_p(fr: PointFrame, omega) -> np.ndarray:
    """Horizontal exterior derivative of a p-form, given as a PiForm or as
    the stacked jet of its components (one (n,) axis per degree after the
    frame's point axes, as `PiForm.jets` gives it):

        (dbar w)_{k0..kp} = sum_q (-1)^q delta_{kq} w_{k0..^kq..kp}

    returned as the full antisymmetric component array. The sum runs once
    per increasing index tuple, from its q = 0 term, and each permutation of
    the tuple takes that value with its sign; entries with a repeated index
    are +0.0.
    """
    w = omega.jets(fr) if isinstance(omega, PiForm) else omega
    n = fr.n
    deg = w.coeffs.ndim - 1 - len(fr._lead)
    if deg + 1 > PiForm.MAX_DEGREE:
        raise CapabilityError(
            f"dbar of a degree-{deg} form exceeds the supported degree "
            f"{PiForm.MAX_DEGREE}"
        )
    d = fr.delta_values(w)  # [..., K, k] = delta_k w_K
    out = np.zeros(fr._lead + (n,) * (deg + 1))
    for K in combinations(range(n), deg + 1):
        val = d[(...,) + K[1:] + K[:1]]
        for q in range(1, deg + 1):
            term = d[(...,) + K[:q] + K[q + 1:] + K[q:q + 1]]
            val = val - term if q % 2 else val + term
        for perm in permutations(K):
            out[(...,) + perm] = val if _perm_sign(perm) > 0 else -val
    return out


def dbar_1_on_fields(fr: PointFrame, omega: PiForm, X: PiVectorField,
                     Y: PiVectorField) -> float:
    """(dbar omega)(X, Y) through the field formula

        bX(omega(Y)) - bY(omega(X)) - omega(rho[bX, bY]),

    where b marks the horizontal lift. Used to certify that the component
    formula of dbar_p is the coordinate expression of this invariant one.
    """
    if omega.degree != 1:
        raise ValueError("dbar_1_on_fields expects a 1-form")
    Xj = X.jets(fr)
    Yj = Y.jets(fr)
    w = omega.jets(fr)
    # X^k delta_k (omega(Y)) and Y^k delta_k (omega(X)), summed over k in index order
    first = sum(np.moveaxis(Xj.value * fr.delta_values((w * Yj).sum_last()), -1, 0))
    second = sum(np.moveaxis(Yj.value * fr.delta_values((w * Xj).sum_last()), -1, 0))
    return _plain(first - second - dot(w.value, _bracket(fr, Xj, Yj)))


def _bracket(frame: PointFrame, Xj: Jet, Yj: Jet) -> np.ndarray:
    """rho[bX, bY]^m = X^k delta_k Y^m - Y^k delta_k X^m, the base part of
    the bracket of the horizontal lifts, from the order-1 jets of X and Y."""
    terms = Xj.value[..., None, :] * frame.delta_values(Yj) \
        - Yj.value[..., None, :] * frame.delta_values(Xj)  # [..., m, k]
    return sum(np.moveaxis(terms, -1, 0))  # over k, in index order


# -- the operator A_X ----------------------------------------------------------


def a_operator(fr: PointFrame, X: PiVectorField) -> np.ndarray:
    """(A_X)^i_j = delta_j X^i + F^i_kj X^k, the horizontal covariant
    derivative of X packaged as an endomorphism."""
    return _nabla_h_matrix(fr, X.jets(fr))


def _nabla_h_matrix(fr: PointFrame, Xj: Jet) -> np.ndarray:
    """(A_X)^i_j from the order-1 jets of X."""
    out = fr.delta_values(Xj)
    out += np.einsum("...ikj,...k->...ij", fr.F, Xj.value)
    return out


def _lowered_jets(frame: PointFrame, Xj: Jet) -> Jet:
    """Order-1 jets of the lowered form w_k = g_km X^m, built in the frame's
    own algebra from the jets of X."""
    return (frame.g_jets.truncated(1) * Xj[..., None, :, :]).sum_last()


def closedness_defect(fr: PointFrame, X: PiVectorField) -> float:
    """max |dbar_p(i_X g)_jk|, from the jets of g_km X^m: zero exactly when X
    is closed at the frame's point."""
    return max_abs(dbar_p(fr, _lowered_jets(fr, X.jets(fr))), 2)


def flat_form_and_selfadjoint_matrix(fr: PointFrame, X: PiVectorField):
    """(M, B) from one evaluation of the jets of X: M = dbar X^flat, and
    B_jk = g_js (A_X)^s_k, the lowered operator, whose symmetry is
    g-self-adjointness of A_X. M_jk = B_kj - B_jk holds for every field,
    closed or not, which bridges the two."""
    Xj = X.jets(fr)
    return dbar_p(fr, _lowered_jets(fr, Xj)), fr.g @ _nabla_h_matrix(fr, Xj)


# -- second derivative and gradient identities ---------------------------------


@dataclass
class DbarSqResult:
    nested: np.ndarray
    contracted: np.ndarray
    defect: float
    scale: float


def _torsion_contraction(fr: PointFrame, fj: Jet) -> np.ndarray:
    """R^m_jk dy_m f, the vh-torsion contracted with the fiber differential
    of a scalar f given by its jet."""
    n = fr.n
    dyf = np.array(fj.coeffs[..., 1 + n:1 + 2 * n])
    return np.einsum("...mjk,...m->...jk", fr.Rhat, dyf)


def dbar_sq(fr: PointFrame, f) -> DbarSqResult:
    """dbar(dbar f) computed twice: nested horizontal derivatives, and the
    vh-torsion contraction R^m_jk dy_m f. Their agreement is the numerical
    form of the commutation rule [delta_j, delta_k] = R^m_jk dy_m."""
    fj = fr.field_jet(f, 2)
    nested = dbar_p(fr, fr.delta_jets(fj))
    contracted = _torsion_contraction(fr, fj)
    defect = max_abs(nested - contracted, 2)
    scale = pymax(1.0, max_abs(nested, 2), max_abs(contracted, 2))
    return DbarSqResult(nested=nested, contracted=contracted, defect=defect, scale=scale)


@dataclass
class GradientIdentityResult:
    lhs: np.ndarray
    rhs: np.ndarray
    residual: float
    scale: float


def gradient_torsion_identity(fr: PointFrame, f) -> GradientIdentityResult:
    """For X = grad f: g_lk (A_X)^l_j - g_lj (A_X)^l_k = R^m_jk dy_m f."""
    A = _nabla_h_matrix(fr, GradientField(f).jets(fr))
    B = fr.g @ A
    lhs = np.swapaxes(B, -1, -2) - B
    rhs = _torsion_contraction(fr, fr.field_jet(f, 2))
    residual = max_abs(lhs - rhs, 2)
    scale = pymax(1.0, max_abs(lhs, 2), max_abs(rhs, 2))
    return GradientIdentityResult(lhs=lhs, rhs=rhs, residual=residual, scale=scale)


def isotropy_residual(fr: PointFrame, f) -> float:
    """max_i |dy_i f - ell_i (y^k dy_k f) / L|.

    Vanishes exactly when the fiber differential of f is proportional to
    ell, that is when f depends on y through L alone.
    """
    n = fr.n
    fj = fr.field_jet(f, 1)
    dyf = np.array(fj.coeffs[..., 1 + n:1 + 2 * n])
    radial = np.asarray(dot(fr._y(), dyf))
    return max_abs(dyf - fr.ell * radial[..., None] / np.asarray(fr.L)[..., None], 1)


# -- Lie derivative comparison --------------------------------------------------


@dataclass
class LieReport:
    lie: np.ndarray
    difference: float
    lie_defect: float
    closedness: float


def lie_metric_report(fr: PointFrame, X: PiVectorField) -> LieReport:
    """Horizontal Lie derivative of g along X next to the contraction
    i_X(dbar g) built from the alternated horizontal derivative of g.

        lie_ij  = X^k delta_k g_ij + g_mj delta_i X^m + g_im delta_j X^m
        con_jk  = X^i (delta_i g_jk - delta_j g_ik + delta_k g_ij)

    The Lie matrix and the largest entry of its difference from the
    contraction are reported; no identity between them is asserted.
    """
    n = fr.n
    Xj = X.jets(fr)
    xv = Xj.value.copy()
    # [k, i, j] = delta_k g_ij
    dg = np.ascontiguousarray(np.moveaxis(fr._dg_jets.value, -1, -3))
    dX = fr.delta_values(Xj)  # [m, i] = delta_i X^m
    lie = (
        np.einsum("...k,...kij->...ij", xv, dg)
        + np.einsum("...mj,...mi->...ij", fr.g, dX)
        + np.einsum("...im,...mj->...ij", fr.g, dX)
    )
    con = np.empty(lie.shape)
    for j in range(n):
        for k in range(n):
            con[..., j, k] = sum(
                xv[..., i] * (dg[..., i, j, k] - dg[..., j, i, k] + dg[..., k, i, j])
                for i in range(n)
            )
    return LieReport(
        lie=lie,
        difference=max_abs(lie - con, 2),
        lie_defect=max_abs(lie, 2),
        closedness=closedness_defect(fr, X),
    )


# -- involutivity ---------------------------------------------------------------


@dataclass
class InvolutivityReport:
    bracket_pairings: np.ndarray
    defect: float
    identity_defect: float
    scale: float


def involutivity_report(fr: PointFrame, X: PiVectorField) -> InvolutivityReport:
    """Probe the g-orthogonal complement of X for involutivity.

    Builds n-1 fields Y_a by g-projecting coordinate directions away from
    X, then for every pair reports g(rho[bY_a, bY_b], X) together with the
    largest residual of the exchange identity

        g(rho[bY_a, bY_b], X) = g(A_X Y_b, Y_a) - g(A_X Y_a, Y_b),

    which holds whether or not X is closed.
    """
    n = fr.n
    g = fr.g
    Xj = X.jets(fr)
    xv = Xj.value.copy()
    xnorm2 = quad(xv, g, xv)
    bad = xnorm2 < 1e-18
    if np.any(bad):
        raise DegenerateFieldError(
            f"involutivity probe needs a nonvanishing field at {fr._first(bad)[1]}")

    # the n candidates Y_a, the projections of e_a, as one stack [..., a, m]
    Yj = project_away(fr, np.eye(n), Xj[..., None, :, :])
    yv = Yj.value.copy()
    norms = quad(yv, g[..., None, :, :], yv)
    # the n - 1 of largest g-norm, ties to the lower index, per point
    keep = np.argsort(-norms, axis=-1, kind="stable")[..., :n - 1]
    Yj = Jet(Yj.nvars, Yj.order,
             np.take_along_axis(Yj.coeffs, keep[..., None, None], axis=-3))
    yv = np.take_along_axis(yv, keep[..., None], axis=-2)

    A = _nabla_h_matrix(fr, Xj)
    pairs = []
    residuals = []
    scale = 1.0
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            av = np.ascontiguousarray(yv[..., a, :])
            bv = np.ascontiguousarray(yv[..., b, :])
            bracket = _bracket(fr, Yj[..., a, :, :], Yj[..., b, :, :])
            lhs = quad(bracket, g, xv)
            rhs = quad(matvec(A, bv), g, av) - quad(matvec(A, av), g, bv)
            pairs.append(lhs)
            residuals.append(abs(lhs - rhs))
            br_norm = np.sqrt(pymax(quad(bracket, g, bracket), 0.0))
            scale = pymax(scale, br_norm * np.sqrt(xnorm2))
    lead = np.shape(xnorm2)
    pairs = np.stack(pairs, axis=-1) if pairs else np.zeros(lead + (0,))
    residuals = np.stack(residuals, axis=-1) if residuals else np.zeros(lead + (0,))
    return InvolutivityReport(
        bracket_pairings=pairs,
        defect=max_abs(pairs, 1) if pairs.size else _plain(np.zeros(lead)),
        identity_defect=max_abs(residuals, 1) if residuals.size else _plain(np.zeros(lead)),
        scale=_plain(np.broadcast_to(scale, lead)),
    )


# -- drift (Randers) transfer ----------------------------------------------------


@dataclass
class DriftTransferReport:
    identity_residual: float
    dual_path_residual: float
    literal_residual: float
    ell_pairing: float
    star_ell_pairing: float
    base_defect: float
    star_defect: float
    base_form_scale: float


def drift_closedness_transfer(fr: PointFrame, frs: PointFrame) -> DriftTransferReport:
    """Compare the drift companion form across a Randers change L* = L + b,
    from a frame `fr` of the base structure and a frame `frs` of the changed
    one at the same points; b is read from `frs.structure.meta["b_fn"]`.

    With tau = L*/L and m, m* the drift companions of b in the base and
    changed structures, the form identity

        tau * (i_{m*} g*) = i_m g

    holds at every admissible point. The report carries its residual, a
    dual-path check that both constructions give the same dbar* matrix,
    the residual of the naive transcription i_m g* = tau * (i_m g) (which
    is generically nonzero), both eta-pairings, and the closedness defects
    of the shared form under both horizontal derivatives.
    """
    m_field = DriftCompanionField(frs.structure.meta["b_fn"])
    mj = m_field.jets(fr)
    msj = m_field.jets(frs)
    mv = mj.value.copy()
    msv = msj.value.copy()

    tau = np.asarray(frs.L / fr.L)[..., None]
    omega_base = matvec(fr.g, mv)
    omega_star = matvec(frs.g, msv)
    identity_residual = max_abs(tau * omega_star - omega_base, 1)

    literal = matvec(frs.g, mv) - tau * omega_base
    literal_residual = max_abs(literal, 1)

    ell_pairing = dot(fr.ell, mv)
    star_ell_pairing = dot(frs.ell, msv)

    # jets of the shared form, built through each structure's own algebra
    w_base = _lowered_jets(fr, mj)
    tau_jet = frs.L_jet.truncated(1) / fr.L_jet.truncated(1)
    w_star_scaled = tau_jet[..., None, :] * _lowered_jets(frs, msj)

    star_of_scaled = dbar_p(frs, w_star_scaled)
    star_of_base = dbar_p(frs, w_base)
    dual_path_residual = max_abs(star_of_scaled - star_of_base, 2)

    base_defect = max_abs(dbar_p(fr, w_base), 2)
    star_defect = max_abs(star_of_base, 2)
    return DriftTransferReport(
        identity_residual=identity_residual,
        dual_path_residual=dual_path_residual,
        literal_residual=literal_residual,
        ell_pairing=ell_pairing,
        star_ell_pairing=star_ell_pairing,
        base_defect=base_defect,
        star_defect=star_defect,
        base_form_scale=pymax(1.0, max_abs(omega_base, 1)),
    )


def drift_precondition_defect(b_fn, points, n: int) -> float:
    """max |d_i b_j - d_j b_i| over sample points, by central differences.

    b_fn runs once per shifted point on plain floats, as it may use the
    float-only math of `jets`; a point whose asymmetry is NaN is skipped, as
    the builtin max over the points skips it.
    """
    h = 1e-5
    flat = []
    for p in points:
        for step in (h, -h):
            for i in range(n):
                x = list(p.x)
                x[i] += step
                flat.extend(b_fn(x))
    # [point, side, i, j] = b_j(x + side h e_i)
    b = np.array(flat, dtype=float).reshape(-1, 2, n, n)
    jac = (b[:, 0] - b[:, 1]) / (2 * h)  # [point, i, j] = d_i b_j
    asym = np.abs(jac - jac.swapaxes(-1, -2)).max(axis=(-2, -1))
    return float(np.max(asym, initial=0.0, where=asym == asym))


# -- conformal transfer ------------------------------------------------------------


@dataclass
class ConformalTransferReport:
    actual: np.ndarray
    leibniz_residual: float
    scaling_residual: float
    prediction_residual: float
    actual_defect: float
    base_defect: float
    tilde_base_defect: float
    sigma_value: float
    scale: float


def conformal_closedness_transfer(fr: PointFrame, frt: PointFrame,
                                  X: PiVectorField) -> ConformalTransferReport:
    """Track the lowered form of X across the rescaling L~ = e^sigma L, from
    a frame `fr` of the base structure and a frame `frt` of the rescaled one
    at the same points; sigma is read from `frt.structure.meta["sigma_fn"]`.

    omega~ = i_X g~ equals e^(2 sigma) omega, and its tilde-horizontal
    derivative obeys the exact shape

        dbar~ omega~ = e^(2 sigma) (2 dsigma wedge omega + dbar~ omega),

    whose residual is reported along with the constant-sigma scaling
    residual and the residual against the pure wedge term (the prediction
    applicable when dbar~ omega itself vanishes).
    """
    n = fr.n

    Xj = X.jets(fr)
    Xjt = X.jets(frt)

    w = _lowered_jets(fr, Xj)
    wt = _lowered_jets(frt, Xjt)
    wv = w.value.copy()

    actual = dbar_p(frt, wt)
    base_matrix = dbar_p(fr, w)
    tilde_of_base = dbar_p(frt, w)

    sig_jet = fr.field_jet(Positional(frt.structure.meta["sigma_fn"]), 1)
    sig = sig_jet.value
    dsig = np.array(sig_jet.coeffs[..., 1:1 + n])
    e2s = np.asarray(np.exp(2.0 * sig))[..., None, None]
    # the outer products dsig (x) w and w (x) dsig
    dw = dsig[..., :, None] * wv[..., None, :]
    wd = wv[..., :, None] * dsig[..., None, :]
    wedge = 2.0 * e2s * (dw - wd)

    leibniz = e2s * (2.0 * (dw - wd) + tilde_of_base)
    scaling = e2s * base_matrix

    scale = pymax(1.0, max_abs(actual, 2), max_abs(leibniz, 2))
    return ConformalTransferReport(
        actual=actual,
        leibniz_residual=max_abs(actual - leibniz, 2),
        scaling_residual=max_abs(actual - scaling, 2),
        prediction_residual=max_abs(actual - wedge, 2),
        actual_defect=max_abs(actual, 2),
        base_defect=max_abs(base_matrix, 2),
        tilde_base_defect=max_abs(tilde_of_base, 2),
        sigma_value=sig,
        scale=scale,
    )
