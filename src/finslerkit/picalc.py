"""Calculus of fields and forms along the projection.

All calculus on the jets of pi-vector fields, each a callable (x, y) ->
[X^1, ..., X^n] (`fields`), lives here: the horizontal exterior derivative,
the covariant operator A_X, the gradient of a scalar, the companion of a
drift covector, the g-projection away from a field, and the composite
closedness diagnostics (Lie comparison, involutivity, drift and conformal
transfer reports). Whether X is closed depends on dbar(i_X g) alone, so
every entry point that reads a field or a form takes its order-1 jets
(`fr.field_jet(X, 1)`, `gradient_jets` of a scalar, or the stacked jet of a
form's components, such as `fr.flat_jets(Xj)`), evaluated once by the
caller; each operator is written once, on those jets, and the musical
isomorphisms are the frame's (`PointFrame.flat_jets`,
`PointFrame.sharp_jets`). Scalar probes stay callables, since each
diagnostic of a scalar reads the jet order it needs. Every derivative, the
drift's db = 0 included, is read from jets.

Every entry point takes the frame it computes on, a PointFrame over a
tuple of chart points. Each array and report field carries the frame's
leading point axis, and its entry for a point equals the result on a frame
at that point alone, bit for bit: the calculus runs once, as stacked jet and
numpy operations, over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DegenerateFieldError
from .frame import PointFrame, antisymmetric, dot, matvec, max_abs, pymax, quad
from .jets import Jet


# -- horizontal exterior derivative ------------------------------------------


def dbar(fr: PointFrame, w: Jet) -> np.ndarray:
    """(dbar w)_jk = delta_j w_k - delta_k w_j, the horizontal exterior
    derivative of a 1-form w from the stacked order-1 jet of its components,
    of shape (P, n, T) (i_X g is `fr.flat_jets(Xj)`), as `antisymmetric`
    computes it. dbar of a scalar is the frame's `delta_values` or
    `delta_jets` of its jet; a jet of any other shape is a CapabilityError."""
    if w.coeffs.shape[1:-1] != (fr.n,):
        raise CapabilityError(f"dbar takes the (P, n, T) jet of a 1-form, not {w.coeffs.shape}")
    return antisymmetric(np.swapaxes(fr.delta_values(w), -1, -2))  # [j, k] = delta_j w_k


def _bracket(frame: PointFrame, Xj: Jet, Yj: Jet) -> np.ndarray:
    """rho[bX, bY]^m = X^k delta_k Y^m - Y^k delta_k X^m, the base part of
    the bracket of the horizontal lifts, from the order-1 jets of X and Y."""
    terms = Xj.value[..., None, :] * frame.delta_values(Yj) \
        - Yj.value[..., None, :] * frame.delta_values(Xj)  # [..., m, k]
    return sum(np.moveaxis(terms, -1, 0))  # over k, in index order


# -- the operator A_X ----------------------------------------------------------


def a_operator(fr: PointFrame, Xj: Jet) -> np.ndarray:
    """(A_X)^i_j = delta_j X^i + F^i_kj X^k, the horizontal covariant
    derivative of X packaged as an endomorphism, from the order-1 jets of X."""
    out = fr.delta_values(Xj)
    out += np.einsum("...ikj,...k->...ij", fr.F, Xj.value)
    return out


def closedness_defect(fr: PointFrame, Xj: Jet) -> np.ndarray:
    """max |dbar(i_X g)_jk|, from the jets of g_km X^m, of the order-1 jets
    of X: zero exactly when X is closed at a frame point."""
    return max_abs(dbar(fr, fr.flat_jets(Xj)), 2)


def flat_form_and_selfadjoint_matrix(fr: PointFrame, Xj: Jet):
    """(M, B) from the order-1 jets of X: M = dbar X^flat, and
    B_jk = g_js (A_X)^s_k, the lowered operator, whose symmetry is
    g-self-adjointness of A_X. M_jk = B_kj - B_jk holds for every field,
    closed or not, which bridges the two."""
    return dbar(fr, fr.flat_jets(Xj)), fr.g @ a_operator(fr, Xj)


# -- second derivative and gradient identities ---------------------------------


@dataclass
class DbarSqResult:
    defect: np.ndarray
    scale: np.ndarray


def _torsion_contraction(fr: PointFrame, fj: Jet) -> np.ndarray:
    """R^m_jk dy_m f, the vh-torsion contracted with the fiber differential
    of a scalar f given by its jet."""
    dyf = np.array(fj.dy)
    return np.einsum("...mjk,...m->...jk", fr.Rhat, dyf)


def dbar_sq(fr: PointFrame, f) -> DbarSqResult:
    """dbar(dbar f) computed twice: nested horizontal derivatives, and the
    vh-torsion contraction R^m_jk dy_m f. Their agreement is the numerical
    form of the commutation rule [delta_j, delta_k] = R^m_jk dy_m."""
    fj = fr.field_jet(f, 2)
    nested = dbar(fr, fr.delta_jets(fj))
    contracted = _torsion_contraction(fr, fj)
    defect = max_abs(nested - contracted, 2)
    scale = pymax(1.0, max_abs(nested, 2), max_abs(contracted, 2))
    return DbarSqResult(defect=defect, scale=scale)


@dataclass
class GradientIdentityResult:
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    scale: np.ndarray


def gradient_jets(fr: PointFrame, fj: Jet) -> Jet:
    """The order-1 jets of grad f = (dbar f)^sharp from the order-2 jet `fj` of a scalar f."""
    return fr.sharp_jets(fr.delta_jets(fj))


def gradient_torsion_identity(fr: PointFrame, f) -> GradientIdentityResult:
    """For X = grad f: g_lk (A_X)^l_j - g_lj (A_X)^l_k = R^m_jk dy_m f."""
    fj = fr.field_jet(f, 2)
    B = fr.g @ a_operator(fr, gradient_jets(fr, fj))
    lhs = np.swapaxes(B, -1, -2) - B
    rhs = _torsion_contraction(fr, fj)
    residual = max_abs(lhs - rhs, 2)
    scale = pymax(1.0, max_abs(lhs, 2), max_abs(rhs, 2))
    return GradientIdentityResult(lhs=lhs, rhs=rhs, residual=residual, scale=scale)


def isotropy_residual(fr: PointFrame, f) -> np.ndarray:
    """max_i |dy_i f - ell_i (y^k dy_k f) / L|.

    Vanishes exactly when the fiber differential of f is proportional to
    ell, that is when f depends on y through L alone.
    """
    dyf = np.array(fr.field_jet(f, 1).dy)
    radial = dot(fr.y, dyf)
    return max_abs(dyf - fr.ell * radial[..., None] / fr.L[..., None], 1)


# -- Lie derivative comparison --------------------------------------------------


@dataclass
class LieReport:
    difference: np.ndarray
    lie_defect: np.ndarray
    closedness: np.ndarray


def lie_metric_report(fr: PointFrame, Xj: Jet) -> LieReport:
    """Horizontal Lie derivative of g along X next to the contraction
    i_X(dbar g) built from the alternated horizontal derivative of g.

        lie_ij  = X^k delta_k g_ij + g_mj delta_i X^m + g_im delta_j X^m
        con_jk  = X^i (delta_i g_jk - delta_j g_ik + delta_k g_ij)

    The largest entries of the Lie matrix and of its difference from the
    contraction are reported; no identity between them is asserted.
    """
    n = fr.n
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
        difference=max_abs(lie - con, 2),
        lie_defect=max_abs(lie, 2),
        closedness=closedness_defect(fr, Xj),
    )


# -- involutivity ---------------------------------------------------------------


@dataclass
class InvolutivityReport:
    defect: np.ndarray
    identity_defect: np.ndarray
    scale: np.ndarray


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


def involutivity_report(fr: PointFrame, Xj: Jet) -> InvolutivityReport:
    """Probe the g-orthogonal complement of X for involutivity.

    Builds n-1 fields Y_a by g-projecting coordinate directions away from
    X, then reports the largest g(rho[bY_a, bY_b], X) over the pairs
    together with the largest residual of the exchange identity

        g(rho[bY_a, bY_b], X) = g(A_X Y_b, Y_a) - g(A_X Y_a, Y_b),

    which holds whether or not X is closed.
    """
    n = fr.n
    g = fr.g
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

    A = a_operator(fr, Xj)
    lead = np.shape(xnorm2)
    defect = identity_defect = np.zeros(lead)
    scale = 1.0
    for a in range(n - 1):
        for b in range(a + 1, n - 1):
            av = np.ascontiguousarray(yv[..., a, :])
            bv = np.ascontiguousarray(yv[..., b, :])
            bracket = _bracket(fr, Yj[..., a, :, :], Yj[..., b, :, :])
            lhs = quad(bracket, g, xv)
            rhs = quad(matvec(A, bv), g, av) - quad(matvec(A, av), g, bv)
            defect = pymax(defect, abs(lhs))
            identity_defect = pymax(identity_defect, abs(lhs - rhs))
            br_norm = np.sqrt(pymax(quad(bracket, g, bracket), 0.0))
            scale = pymax(scale, br_norm * np.sqrt(xnorm2))
    return InvolutivityReport(defect=defect, identity_defect=identity_defect,
                              scale=np.broadcast_to(scale, lead))


# -- drift (Randers) transfer ----------------------------------------------------


@dataclass
class DriftTransferReport:
    identity_residual: np.ndarray
    dual_path_residual: np.ndarray
    literal_residual: np.ndarray
    ell_pairing: np.ndarray
    star_ell_pairing: np.ndarray
    base_defect: np.ndarray
    star_defect: np.ndarray
    base_form_scale: np.ndarray


def drift_companion_jets(frame, bj: Jet) -> Jet:
    """The order-1 jets of the transverse companion of a drift covector b on
    a frame's structure, from the jets `bj` of b
    (`frame.field_jet(lambda x, y: b(x), 1)`):

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


def drift_closedness_transfer(fr: PointFrame, frs: PointFrame,
                              bj: Jet) -> DriftTransferReport:
    """Compare the drift companion form across a Randers change L* = L + b,
    from a frame `fr` of the base structure, a frame `frs` of the changed
    one at the same points, and the order-1 jets `bj` of the drift b
    (`fr.field_jet(lambda x, y: b(x), 1)`), which serve both frames.

    With tau = L*/L and m, m* the drift companions of b in the base and
    changed structures, the form identity

        tau * (i_{m*} g*) = i_m g

    holds at every admissible point. The report carries its residual, a
    dual-path check that both constructions give the same dbar* matrix,
    the residual of the naive transcription i_m g* = tau * (i_m g) (which
    is generically nonzero), both eta-pairings, and the closedness defects
    of the shared form under both horizontal derivatives.
    """
    mj = drift_companion_jets(fr, bj)
    msj = drift_companion_jets(frs, bj)
    mv = mj.value.copy()
    msv = msj.value.copy()

    tau = (frs.L / fr.L)[..., None]
    omega_base = matvec(fr.g, mv)
    omega_star = matvec(frs.g, msv)
    identity_residual = max_abs(tau * omega_star - omega_base, 1)

    literal = matvec(frs.g, mv) - tau * omega_base
    literal_residual = max_abs(literal, 1)

    ell_pairing = dot(fr.ell, mv)
    star_ell_pairing = dot(frs.ell, msv)

    # jets of the shared form, built through each structure's own algebra
    w_base = fr.flat_jets(mj)
    tau_jet = frs.L_jet.truncated(1) / fr.L_jet.truncated(1)
    w_star_scaled = tau_jet[..., None, :] * frs.flat_jets(msj)

    star_of_scaled = dbar(frs, w_star_scaled)
    star_of_base = dbar(frs, w_base)
    dual_path_residual = max_abs(star_of_scaled - star_of_base, 2)

    base_defect = max_abs(dbar(fr, w_base), 2)
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


def drift_precondition_defect(bj: Jet) -> np.ndarray:
    """max |d_i b_j - d_j b_i| at each point, the hypothesis db = 0 of the
    drift transfer, from the order-1 jets `bj` of the drift b."""
    return max_abs(antisymmetric(bj.dx), 2)


# -- conformal transfer ------------------------------------------------------------


@dataclass
class ConformalTransferReport:
    leibniz_residual: np.ndarray
    scaling_residual: np.ndarray
    prediction_residual: np.ndarray
    actual_defect: np.ndarray
    tilde_base_defect: np.ndarray
    scale: np.ndarray


def conformal_closedness_transfer(fr: PointFrame, frts, Xj: Jet) -> tuple:
    """Track the lowered form omega = i_X g of X across rescalings
    L~ = e^sigma L, from a frame `fr` of the base structure, an iterable
    `frts` of frames of rescaled ones at the same points, and the order-1
    jets `Xj` of X's components, which serve every frame; each sigma is read
    from `frt.structure.meta["sigma_fn"]`. Returns one report per frame of
    `frts`, which keeps no frame; omega and dbar omega are computed once for
    all of them.

    omega~ = i_X g~ equals e^(2 sigma) omega, and its tilde-horizontal
    derivative obeys the exact shape

        dbar~ omega~ = e^(2 sigma) (2 dsigma wedge omega + dbar~ omega),

    whose residual is reported along with the constant-sigma scaling
    residual and the residual against the pure wedge term (the prediction
    applicable when dbar~ omega itself vanishes).
    """
    w = fr.flat_jets(Xj)
    base_matrix = dbar(fr, w)
    return tuple(_rescaled_report(fr, frt, Xj, w, base_matrix) for frt in frts)


def _rescaled_report(fr, frt, Xj, w, base_matrix) -> ConformalTransferReport:
    """The report of one rescaled frame `frt`, from the jets `w` of omega on
    `fr` and `base_matrix = dbar(fr, w)`; its (P, n, n) arrays are freed
    on return, before the next frame is built."""
    wv = w.value.copy()
    actual = dbar(frt, frt.flat_jets(Xj))
    tilde_of_base = dbar(frt, w)

    sigma = frt.structure.meta["sigma_fn"]
    sig_jet = fr.field_jet(lambda x, y: sigma(x), 1)
    sig = sig_jet.value
    dsig = np.array(sig_jet.dx)
    e2s = np.exp(2.0 * sig)[..., None, None]
    # the outer products dsig (x) w and w (x) dsig
    dw = dsig[..., :, None] * wv[..., None, :]
    wd = wv[..., :, None] * dsig[..., None, :]
    wedge = 2.0 * e2s * (dw - wd)

    leibniz = e2s * (2.0 * (dw - wd) + tilde_of_base)
    scaling = e2s * base_matrix

    scale = pymax(1.0, max_abs(actual, 2), max_abs(leibniz, 2))
    return ConformalTransferReport(
        leibniz_residual=max_abs(actual - leibniz, 2),
        scaling_residual=max_abs(actual - scaling, 2),
        prediction_residual=max_abs(actual - wedge, 2),
        actual_defect=max_abs(actual, 2),
        tilde_base_defect=max_abs(tilde_of_base, 2),
        scale=scale,
    )
