"""Calculus of fields and forms along the projection.

Implements the horizontal exterior derivative, the covariant operator
A_X, musical isomorphisms, and the composite closedness diagnostics
(Lie comparison, involutivity, drift and conformal transfer reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .chart import ChartPoint
from .errors import CapabilityError, DegenerateFieldError
from .fields import (
    DriftCompanionField,
    GradientField,
    PiForm,
    PiVectorField,
    Positional,
    ProjectedField,
    _perm_sign,
)
from .frame import PointFrame, point_frame
from .structures import FinslerStructure, conformal_change, randers_change


# -- musical isomorphisms ---------------------------------------------------


def flat(F, X: PiVectorField, p: ChartPoint) -> np.ndarray:
    """Lower the index: (X^flat)_k = g_km X^m."""
    fr = point_frame(F, p)
    return fr.g @ X.values(fr)


def sharp(F, omega, p: ChartPoint) -> np.ndarray:
    """Raise the index of a 1-form given as a PiForm or a component array."""
    fr = point_frame(F, p)
    if isinstance(omega, PiForm):
        if omega.degree != 1:
            raise ValueError("sharp expects a 1-form")
        vals = np.array(
            [
                fr.field_jet(omega.components[(i,)], 1).value
                if (i,) in omega.components
                else 0.0
                for i in range(fr.n)
            ]
        )
    else:
        vals = np.asarray(omega, dtype=float)
    return fr.g_inv @ vals


def gradient(F, f, p: ChartPoint) -> np.ndarray:
    """grad f = (dbar f)^sharp, components g^ij delta_j f."""
    return point_frame(F, p).g_inv @ dbar_0(F, f, p)


# -- horizontal exterior derivative ------------------------------------------


def dbar_0(F, f, p: ChartPoint) -> np.ndarray:
    """(dbar f)_i = delta_i f."""
    fr = point_frame(F, p)
    jet = fr.field_jet(f, 1)
    return fr.delta_values(jet)


def dbar_1(F, omega: PiForm, p: ChartPoint) -> np.ndarray:
    """(dbar omega)_jk = delta_j omega_k - delta_k omega_j for a 1-form."""
    if omega.degree != 1:
        raise ValueError("dbar_1 expects a 1-form")
    return dbar_p(F, omega, p)


def dbar_p(F, omega: PiForm, p: ChartPoint) -> np.ndarray:
    """Horizontal exterior derivative of a form of any supported degree:

        (dbar w)_{k0..kp} = sum_q (-1)^q delta_{kq} w_{k0..^kq..kp}

    returned as the full antisymmetric component array.
    """
    fr = point_frame(F, p)
    n = fr.n
    deg = omega.degree
    if deg + 1 > PiForm.MAX_DEGREE:
        raise CapabilityError(
            f"dbar of a degree-{deg} form exceeds the supported degree "
            f"{PiForm.MAX_DEGREE}"
        )
    deltas = {key: fr.delta_values(fr.field_jet(fn, 1))
              for key, fn in omega.components.items()}
    out = np.zeros((n,) * (deg + 1))
    for K in combinations(range(n), deg + 1):
        val = 0.0
        for q in range(deg + 1):
            d = deltas.get(K[:q] + K[q + 1:])
            if d is not None:
                val += (-1.0) ** q * d[K[q]]
        for perm in permutations(K):
            out[perm] = _perm_sign(perm) * val
    return out


def dbar_1_on_fields(F, omega: PiForm, X: PiVectorField, Y: PiVectorField,
                     p: ChartPoint) -> float:
    """(dbar omega)(X, Y) through the field formula

        bX(omega(Y)) - bY(omega(X)) - omega(rho[bX, bY]),

    where b marks the horizontal lift. Used to certify that the component
    formula of dbar_1 is the coordinate expression of this invariant one.
    """
    if omega.degree != 1:
        raise ValueError("dbar_1_on_fields expects a 1-form")
    fr = point_frame(F, p)
    n = fr.n
    Xj = X.jets(fr, 1)
    Yj = Y.jets(fr, 1)
    xv = np.array([j.value for j in Xj])
    yv = np.array([j.value for j in Yj])
    wjets = [omega.jet(fr, (k,), 1) for k in range(n)]

    def pair(jets_w, jets_v):
        acc = None
        for k in range(n):
            if jets_w[k] is None:
                continue
            term = jets_w[k] * jets_v[k]
            acc = term if acc is None else acc + term
        return acc

    wY = pair(wjets, Yj)
    wX = pair(wjets, Xj)
    first = sum(xv * fr.delta_values(wY)) if wY is not None else 0.0
    second = sum(yv * fr.delta_values(wX)) if wX is not None else 0.0
    bracket = _bracket(fr, Xj, Yj)
    wvals = np.array([0.0 if wjets[k] is None else wjets[k].value for k in range(n)])
    return float(first - second - wvals @ bracket)


def _bracket(frame: PointFrame, Xjets, Yjets) -> np.ndarray:
    """rho[bX, bY]^m = X^k delta_k Y^m - Y^k delta_k X^m, the base part of
    the bracket of the horizontal lifts, from order-1 component jets."""
    xv = np.array([j.value for j in Xjets])
    yv = np.array([j.value for j in Yjets])
    dX = [frame.delta_values(jet) for jet in Xjets]
    dY = [frame.delta_values(jet) for jet in Yjets]
    return np.array([sum(xv * dY[m] - yv * dX[m]) for m in range(len(Xjets))])


# -- the operator A_X ----------------------------------------------------------


def a_operator(F, X: PiVectorField, p: ChartPoint) -> np.ndarray:
    """(A_X)^i_j = delta_j X^i + F^i_kj X^k, the horizontal covariant
    derivative of X packaged as an endomorphism."""
    fr = point_frame(F, p)
    return _nabla_h_matrix(fr, X)


def _nabla_h_matrix(fr: PointFrame, X: PiVectorField) -> np.ndarray:
    jets = X.jets(fr, 1)
    vals = np.array([jet.value for jet in jets])
    out = np.array([fr.delta_values(jet) for jet in jets])
    out += np.einsum("ikj,k->ij", fr.F, vals)
    return out


def _lowered_jets(frame: PointFrame, Xjets) -> list:
    """Order-1 jets of the lowered form w_k = g_km X^m, built in the frame's
    own algebra from the component jets of X."""
    n = frame.n
    out = []
    for k in range(n):
        acc = frame.g_jets[k, 0].truncated(1) * Xjets[0]
        for m in range(1, n):
            acc = acc + frame.g_jets[k, m].truncated(1) * Xjets[m]
        out.append(acc)
    return out


def _dbar_matrix(frame: PointFrame, wjets) -> np.ndarray:
    """(dbar w)_jk = delta_j w_k - delta_k w_j of a 1-form given by its
    component jets, as an antisymmetric matrix."""
    n = frame.n
    d = np.array([frame.delta_values(wjets[k]) for k in range(n)])  # [k, j] = delta_j w_k
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            v = d[k, j] - d[j, k]
            out[j, k] = v
            out[k, j] = -v
    return out


def flat_form_matrix(F, X: PiVectorField, p: ChartPoint) -> np.ndarray:
    """(dbar X^flat)_jk computed from component jets of g_km X^m."""
    fr = point_frame(F, p)
    return _dbar_matrix(fr, _lowered_jets(fr, X.jets(fr, 1)))


def closedness_defect(F, X: PiVectorField, p: ChartPoint) -> float:
    """max |(dbar X^flat)_jk|: zero exactly when X is closed at p."""
    return float(np.max(np.abs(flat_form_matrix(F, X, p))))


def selfadjoint_matrix(F, X: PiVectorField, p: ChartPoint) -> np.ndarray:
    """B_jk = g_js (A_X)^s_k, the lowered operator; symmetry of B is
    g-self-adjointness of A_X."""
    fr = point_frame(F, p)
    return fr.g @ _nabla_h_matrix(fr, X)


def selfadjoint_defect(F, X: PiVectorField, p: ChartPoint) -> float:
    B = selfadjoint_matrix(F, X, p)
    return float(np.max(np.abs(B - B.T)))


def adjoint_identity_residual(F, X: PiVectorField, p: ChartPoint) -> float:
    """Residual of (dbar X^flat)_jk = B_kj - B_jk, the bridge between
    closedness of the lowered form and self-adjointness of A_X. Holds for
    every field, closed or not."""
    M = flat_form_matrix(F, X, p)
    B = selfadjoint_matrix(F, X, p)
    return float(np.max(np.abs(M - (B.T - B))))


# -- second derivative and gradient identities ---------------------------------


@dataclass
class DbarSqResult:
    nested: np.ndarray
    contracted: np.ndarray
    defect: float
    scale: float


def dbar_sq(F, f, p: ChartPoint) -> DbarSqResult:
    """dbar(dbar f) computed twice: nested horizontal derivatives, and the
    vh-torsion contraction R^m_jk dy_m f. Their agreement is the numerical
    form of the commutation rule [delta_j, delta_k] = R^m_jk dy_m."""
    fr = point_frame(F, p)
    n = fr.n
    fj = fr.field_jet(f, 2)
    nested = _dbar_matrix(fr, fr.delta_jets(fj))
    dyf = np.array([fj.partial1(n + m) for m in range(n)])
    contracted = np.einsum("mjk,m->jk", fr.Rhat, dyf)
    defect = float(np.max(np.abs(nested - contracted)))
    scale = max(1.0, float(np.max(np.abs(nested))), float(np.max(np.abs(contracted))))
    return DbarSqResult(nested=nested, contracted=contracted, defect=defect, scale=scale)


@dataclass
class GradientIdentityResult:
    lhs: np.ndarray
    rhs: np.ndarray
    residual: float
    scale: float


def gradient_torsion_identity(F, f, p: ChartPoint) -> GradientIdentityResult:
    """For X = grad f: g_lk (A_X)^l_j - g_lj (A_X)^l_k = R^m_jk dy_m f."""
    fr = point_frame(F, p)
    n = fr.n
    A = _nabla_h_matrix(fr, GradientField(f))
    B = fr.g @ A
    lhs = B.T - B
    fj = fr.field_jet(f, 2)
    dyf = np.array([fj.partial1(n + m) for m in range(n)])
    rhs = np.einsum("mjk,m->jk", fr.Rhat, dyf)
    residual = float(np.max(np.abs(lhs - rhs)))
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return GradientIdentityResult(lhs=lhs, rhs=rhs, residual=residual, scale=scale)


def isotropy_residual(F, f, p: ChartPoint) -> float:
    """max_i |dy_i f - ell_i (y^k dy_k f) / L|.

    Vanishes exactly when the fiber differential of f is proportional to
    ell, that is when f depends on y through L alone.
    """
    fr = point_frame(F, p)
    n = fr.n
    fj = fr.field_jet(f, 1)
    dyf = np.array([fj.partial1(n + m) for m in range(n)])
    radial = float(np.array(p.y) @ dyf)
    return float(np.max(np.abs(dyf - fr.ell * radial / fr.L)))


# -- Lie derivative comparison --------------------------------------------------


@dataclass
class LieReport:
    lie: np.ndarray
    contraction: np.ndarray
    difference: float
    lie_defect: float
    closedness: float


def lie_metric_report(F, X: PiVectorField, p: ChartPoint) -> LieReport:
    """Horizontal Lie derivative of g along X next to the contraction
    i_X(dbar g) built from the alternated horizontal derivative of g.

        lie_ij  = X^k delta_k g_ij + g_mj delta_i X^m + g_im delta_j X^m
        con_jk  = X^i (delta_i g_jk - delta_j g_ik + delta_k g_ij)

    Both matrices and their difference are reported; no identity between
    them is asserted.
    """
    fr = point_frame(F, p)
    n = fr.n
    Xj = X.jets(fr, 1)
    xv = np.array([j.value for j in Xj])
    dg = np.ascontiguousarray(fr._dg_jets.value.transpose(2, 0, 1))  # [k, i, j] = delta_k g_ij
    dX = np.array([fr.delta_values(jet) for jet in Xj])  # [m, i] = delta_i X^m
    lie = (
        np.einsum("k,kij->ij", xv, dg)
        + np.einsum("mj,mi->ij", fr.g, dX)
        + np.einsum("im,mj->ij", fr.g, dX)
    )
    con = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            con[j, k] = float(
                sum(xv[i] * (dg[i, j, k] - dg[j, i, k] + dg[k, i, j]) for i in range(n))
            )
    return LieReport(
        lie=lie,
        contraction=con,
        difference=float(np.max(np.abs(lie - con))),
        lie_defect=float(np.max(np.abs(lie))),
        closedness=closedness_defect(F, X, p),
    )


# -- involutivity ---------------------------------------------------------------


@dataclass
class InvolutivityReport:
    bracket_pairings: np.ndarray
    identity_residuals: np.ndarray
    defect: float
    identity_defect: float
    scale: float


def involutivity_report(F, X: PiVectorField, p: ChartPoint) -> InvolutivityReport:
    """Probe the g-orthogonal complement of X for involutivity.

    Builds n-1 fields Y_a by g-projecting coordinate directions away from
    X, then for every pair reports g(rho[bY_a, bY_b], X) together with the
    residual of the exchange identity

        g(rho[bY_a, bY_b], X) = g(A_X Y_b, Y_a) - g(A_X Y_a, Y_b),

    which holds whether or not X is closed.
    """
    fr = point_frame(F, p)
    n = fr.n
    Xj = X.jets(fr, 1)
    xv = np.array([j.value for j in Xj])
    xnorm2 = float(xv @ fr.g @ xv)
    if xnorm2 < 1e-18:
        raise DegenerateFieldError("involutivity probe needs a nonvanishing field")

    candidates = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = 1.0
        Y = ProjectedField(e, X)
        yv = Y.values(fr)
        candidates.append((float(yv @ fr.g @ yv), a, Y))
    candidates.sort(key=lambda t: (-t[0], t[1]))
    basis = [Y for _, _, Y in candidates[: n - 1]]

    A = _nabla_h_matrix(fr, X)
    g = fr.g
    pairs = []
    residuals = []
    scale = 1.0
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            Ya = basis[a].jets(fr, 1)
            Yb = basis[b].jets(fr, 1)
            av = np.array([j.value for j in Ya])
            bv = np.array([j.value for j in Yb])
            bracket = _bracket(fr, Ya, Yb)
            lhs = float(bracket @ g @ xv)
            rhs = float((A @ bv) @ g @ av - (A @ av) @ g @ bv)
            pairs.append(lhs)
            residuals.append(abs(lhs - rhs))
            br_norm = float(np.sqrt(max(bracket @ g @ bracket, 0.0)))
            scale = max(scale, br_norm * np.sqrt(xnorm2))
    pairs = np.array(pairs) if pairs else np.zeros(0)
    residuals = np.array(residuals) if residuals else np.zeros(0)
    return InvolutivityReport(
        bracket_pairings=pairs,
        identity_residuals=residuals,
        defect=float(np.max(np.abs(pairs))) if pairs.size else 0.0,
        identity_defect=float(np.max(residuals)) if residuals.size else 0.0,
        scale=scale,
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


def drift_closedness_transfer(F: FinslerStructure, b, p: ChartPoint,
                              star: FinslerStructure = None) -> DriftTransferReport:
    """Compare the drift companion form across a Randers change L* = L + b.

    With tau = L*/L and m, m* the drift companions of b in the base and
    changed structures, the form identity

        tau * (i_{m*} g*) = i_m g

    holds at every admissible point. The report carries its residual, a
    dual-path check that both constructions give the same dbar* matrix,
    the residual of the naive transcription i_m g* = tau * (i_m g) (which
    is generically nonzero), both eta-pairings, and the closedness defects
    of the shared form under both horizontal derivatives.
    """
    if star is None:
        star = randers_change(F, b, validate=False)
    b_fn = star.meta["b_fn"]
    fr = point_frame(F, p)
    frs = point_frame(star, p)

    m_field = DriftCompanionField(b_fn)
    mj = m_field.jets(fr, 1)
    msj = m_field.jets(frs, 1)
    mv = np.array([j.value for j in mj])
    msv = np.array([j.value for j in msj])

    tau = frs.L / fr.L
    omega_base = fr.g @ mv
    omega_star = frs.g @ msv
    identity_residual = float(np.max(np.abs(tau * omega_star - omega_base)))

    literal = frs.g @ mv - tau * omega_base
    literal_residual = float(np.max(np.abs(literal)))

    ell_pairing = float(fr.ell @ mv)
    star_ell_pairing = float(frs.ell @ msv)

    # jets of the shared form, built through each structure's own algebra
    w_base = _lowered_jets(fr, mj)
    tau_jet = frs.L_jet.truncated(1) / fr.L_jet.truncated(1)
    w_star_scaled = [tau_jet * jet for jet in _lowered_jets(frs, msj)]

    star_of_scaled = _dbar_matrix(frs, w_star_scaled)
    star_of_base = _dbar_matrix(frs, w_base)
    dual_path_residual = float(np.max(np.abs(star_of_scaled - star_of_base)))

    base_defect = float(np.max(np.abs(_dbar_matrix(fr, w_base))))
    star_defect = float(np.max(np.abs(star_of_base)))
    return DriftTransferReport(
        identity_residual=identity_residual,
        dual_path_residual=dual_path_residual,
        literal_residual=literal_residual,
        ell_pairing=ell_pairing,
        star_ell_pairing=star_ell_pairing,
        base_defect=base_defect,
        star_defect=star_defect,
        base_form_scale=max(1.0, float(np.max(np.abs(omega_base)))),
    )


def drift_precondition_defect(b_fn, points, n: int) -> float:
    """max |d_i b_j - d_j b_i| over sample points, by central differences."""
    worst = 0.0
    h = 1e-5
    for p in points:
        x = list(p.x)
        jac = np.empty((n, n))
        for i in range(n):
            xp = list(x)
            xm = list(x)
            xp[i] += h
            xm[i] -= h
            bp = np.array([float(v) for v in b_fn(xp)])
            bm = np.array([float(v) for v in b_fn(xm)])
            jac[:, i] = (bp - bm) / (2 * h)
        worst = max(worst, float(np.max(np.abs(jac - jac.T))))
    return worst


# -- conformal transfer ------------------------------------------------------------


@dataclass
class ConformalTransferReport:
    actual: np.ndarray
    base_matrix: np.ndarray
    tilde_of_base: np.ndarray
    wedge: np.ndarray
    leibniz_residual: float
    scaling_residual: float
    prediction_residual: float
    actual_defect: float
    base_defect: float
    tilde_base_defect: float
    sigma_value: float
    scale: float


def conformal_closedness_transfer(F: FinslerStructure, X: PiVectorField, sigma,
                                  p: ChartPoint,
                                  tilde: FinslerStructure = None) -> ConformalTransferReport:
    """Track the lowered form of X across the rescaling L~ = e^sigma L.

    omega~ = i_X g~ equals e^(2 sigma) omega, and its tilde-horizontal
    derivative obeys the exact shape

        dbar~ omega~ = e^(2 sigma) (2 dsigma wedge omega + dbar~ omega),

    whose residual is reported along with the constant-sigma scaling
    residual and the residual against the pure wedge term (the prediction
    applicable when dbar~ omega itself vanishes).
    """
    if tilde is None:
        tilde = conformal_change(F, sigma)
    sig_fn = tilde.meta["sigma_fn"]
    fr = point_frame(F, p)
    frt = point_frame(tilde, p)
    n = fr.n

    Xj = X.jets(fr, 1)
    Xjt = X.jets(frt, 1)

    w = _lowered_jets(fr, Xj)
    wt = _lowered_jets(frt, Xjt)
    wv = np.array([jet.value for jet in w])

    actual = _dbar_matrix(frt, wt)
    base_matrix = _dbar_matrix(fr, w)
    tilde_of_base = _dbar_matrix(frt, w)

    sig_jet = fr.field_jet(Positional(sig_fn), 1)
    sig = sig_jet.value
    dsig = np.array([sig_jet.partial1(i) for i in range(n)])
    wedge = 2.0 * np.exp(2.0 * sig) * (np.outer(dsig, wv) - np.outer(wv, dsig))

    leibniz = np.exp(2.0 * sig) * (
        2.0 * (np.outer(dsig, wv) - np.outer(wv, dsig)) + tilde_of_base
    )
    scaling = np.exp(2.0 * sig) * base_matrix

    scale = max(
        1.0,
        float(np.max(np.abs(actual))),
        float(np.max(np.abs(leibniz))),
    )
    return ConformalTransferReport(
        actual=actual,
        base_matrix=base_matrix,
        tilde_of_base=tilde_of_base,
        wedge=wedge,
        leibniz_residual=float(np.max(np.abs(actual - leibniz))),
        scaling_residual=float(np.max(np.abs(actual - scaling))),
        prediction_residual=float(np.max(np.abs(actual - wedge))),
        actual_defect=float(np.max(np.abs(actual))),
        base_defect=float(np.max(np.abs(base_matrix))),
        tilde_base_defect=float(np.max(np.abs(tilde_of_base))),
        sigma_value=sig,
        scale=scale,
    )
