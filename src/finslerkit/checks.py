"""The verification check registry.

Each check registers itself with @check(id, anchor), the one place its id
and formula anchor are stated; run_check stamps both on the result. Each
check sweeps sample points (and probe fields where relevant) on one
structure and reduces to a CheckResult. Identity checks compare at a
relative tolerance against max(1, |LHS|, |RHS|); nonvanishing claims use
an absolute floor and carry a witness point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import connections, curvature, picalc
from .chart import ChartPoint
from .errors import FinslerError
from .fields import ComponentField, GradientField, constant_field
from .frame import local_frames, point_frame, point_frames
from .jets import fd_partial, jet_eval
from .structures import FinslerStructure, randers_change

PASS = "PASS"
FAIL = "FAIL"
REPORT_ONLY = "REPORT-ONLY"


@dataclass
class CheckResult:
    n_points: int
    max_residual: float
    threshold: float
    verdict: str
    witness: Optional[dict] = None
    details: dict = field(default_factory=dict)
    # stamped by run_check from the registry
    check_id: str = ""
    anchor: str = ""


def _witness(p: ChartPoint, value: float) -> dict:
    return {"x": list(p.x), "y": list(p.y), "value": float(value)}


class _Sweep:
    """Tracks the worst relative residual and its witness over a sweep."""

    def __init__(self):
        self.max_residual = 0.0
        self.witness = None
        self.failed_point = None

    def add(self, p: ChartPoint, residual: float, scale: float = 1.0):
        rel = residual / max(1.0, scale)
        if rel >= self.max_residual:
            self.max_residual = rel
            self.witness = _witness(p, residual)

    def result(self, n_points: int, tol: float, details: dict = None) -> CheckResult:
        verdict = PASS if self.max_residual < tol else FAIL
        return CheckResult(
            n_points=n_points,
            max_residual=self.max_residual,
            threshold=tol,
            verdict=verdict,
            witness=self.witness if verdict == FAIL else None,
            details=details or {},
        )


# check id -> (anchor, check function); filled by @check, read by run_check
_REGISTRY: dict = {}


def check(check_id: str, anchor: str):
    """Register a check function under its stable id and one-line formula anchor."""

    def register(fn):
        _REGISTRY[check_id] = (anchor, fn)
        return fn

    return register


# -- probe builders -----------------------------------------------------------


def _poly_scalar(n: int, rng) -> Callable:
    cx = rng.uniform(-1.0, 1.0, size=n)
    cy = rng.uniform(-1.0, 1.0, size=n)
    cxy = rng.uniform(-0.5, 0.5, size=(n, n))

    def f(x, y):
        acc = 0.0
        for i in range(n):
            acc = acc + cx[i] * x[i] + cy[i] * y[i]
            for j in range(n):
                acc = acc + cxy[i][j] * (x[i] * y[j])
        return acc

    return f


def _positional_scalar(n: int, rng) -> Callable:
    c1 = rng.uniform(-1.0, 1.0, size=n)
    c2 = rng.uniform(-0.5, 0.5, size=(n, n))

    def f(x, y):
        acc = 0.0
        for i in range(n):
            acc = acc + c1[i] * x[i]
            for j in range(n):
                acc = acc + c2[i][j] * (x[i] * x[j])
        return acc

    return f


def _lift_field(n: int, rng) -> ComponentField:
    c0 = rng.uniform(-1.0, 1.0, size=n)
    c1 = rng.uniform(-1.0, 1.0, size=(n, n))
    comps = []
    for i in range(n):
        def comp(x, y, i=i):
            acc = c0[i]
            for j in range(n):
                acc = acc + c1[i][j] * x[j]
            return acc
        comps.append(comp)
    return ComponentField(comps, name=f"lift{c0.round(2)}")


def _mixed_field(n: int, rng) -> ComponentField:
    c0 = rng.uniform(-1.0, 1.0, size=n)
    cx = rng.uniform(-1.0, 1.0, size=(n, n))
    cy = rng.uniform(-1.0, 1.0, size=(n, n))
    comps = []
    for i in range(n):
        def comp(x, y, i=i):
            acc = c0[i]
            for j in range(n):
                acc = acc + cx[i][j] * x[j] + cy[i][j] * y[j]
            return acc
        comps.append(comp)
    return ComponentField(comps, name="mixedpoly")


def _probe_fields(F: FinslerStructure, seed: int, tag: int):
    """Three probe families: lifts, y-dependent polynomials, gradients."""
    rng = np.random.default_rng([seed, tag])
    n = F.n
    return [
        _lift_field(n, rng),
        _lift_field(n, rng),
        _mixed_field(n, rng),
        _mixed_field(n, rng),
        GradientField(_poly_scalar(n, rng), name="gradpoly"),
        GradientField(_positional_scalar(n, rng), name="gradpos"),
    ]


def _probe_scalars(F: FinslerStructure, seed: int, tag: int):
    rng = np.random.default_rng([seed, tag])
    n = F.n
    doc = lambda x, y: 0.5 * (y[0] * y[0])
    return [_poly_scalar(n, rng), _positional_scalar(n, rng), doc]


# -- structural checks ----------------------------------------------------------


@check("struct.homogeneity", "L(x,ty)=tL: g degree 0, N and R degree 1, G degree 2 in y")
def _check_homogeneity(F, pts, tol, floor, seed):
    sweep = _Sweep()
    t = 1.75
    scaled = [ChartPoint(p.x, tuple(t * v for v in p.y)) for p in pts]
    with local_frames(F, scaled):
        for p, ps in zip(pts, scaled):
            fr = point_frame(F, p)
            n = fr.n
            y = np.array(p.y)
            sweep.add(p, abs(float(fr.ell @ y) - fr.L), fr.L)
            dyg = max(
                abs(sum(fr.g_jets[i, j].partial1(n + k) * y[k] for k in range(n)))
                for i in range(n)
                for j in range(n)
            )
            sweep.add(p, dyg, float(np.max(np.abs(fr.g))))
            frs = point_frame(F, ps)
            sweep.add(p, float(np.max(np.abs(frs.G - t * t * fr.G))),
                      float(np.max(np.abs(frs.G))))
            sweep.add(p, float(np.max(np.abs(frs.N - t * fr.N))),
                      float(np.max(np.abs(frs.N))))
            sweep.add(p, float(np.max(np.abs(frs.Rhat - t * fr.Rhat))),
                      float(np.max(np.abs(frs.Rhat))))
            sweep.add(p, float(np.max(np.abs(frs.g - fr.g))),
                      float(np.max(np.abs(fr.g))))
    return sweep.result(len(pts), tol)


@check("struct.cartan_contraction", "C_ijk y^k = 0 and C totally symmetric")
def _check_cartan_contraction(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        C = fr.C3
        scale = max(1.0, float(np.max(np.abs(C))))
        contr = float(np.max(np.abs(np.einsum("ijk,k->ij", C, np.array(p.y)))))
        sym = max(
            float(np.max(np.abs(C - np.transpose(C, perm))))
            for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0))
        )
        sweep.add(p, max(contr, sym), scale)
    return sweep.result(len(pts), tol)


@check("struct.spray_defect", "y^j d_j dy_m E - y^j d_m dy_j E - 2 g_mj G^j + d_m E = 0")
def _check_spray_defect(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        scale = max(
            float(np.max(np.abs(2.0 * fr.g @ fr.G))),
            max(abs(fr.E_jet.partial1(i)) for i in range(fr.n)),
        )
        sweep.add(p, connections.spray_defect(F, p), scale)
    return sweep.result(len(pts), tol)


@check("struct.conservativity", "delta_i E = 0")
def _check_conservativity(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        scale = max(abs(fr.E_jet.partial1(i)) for i in range(fr.n))
        sweep.add(p, connections.conservativity_defect(F, p), max(scale, fr.E))
    return sweep.result(len(pts), tol)


@check("struct.torsion", "dy_k N^i_j - dy_j N^i_k = 0")
def _check_torsion(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        n = fr.n
        worst = 0.0
        scale = 1.0
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    a = fr.N_jets[i, j].partial1(n + k)
                    b = fr.N_jets[i, k].partial1(n + j)
                    worst = max(worst, abs(a - b))
                    scale = max(scale, abs(a), abs(b))
        sweep.add(p, worst, scale)
    return sweep.result(len(pts), tol)


@check(
    "struct.metricity",
    "delta_k g_ij = F^m_ik g_mj + F^m_jk g_im; vertical analogue with C",
)
def _check_metricity(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        h, v = connections.metricity_defect(F, p)
        scale = max(1.0, float(np.max(np.abs(fr.F @ np.ones(fr.n)))),
                    float(np.max(np.abs(fr.g))))
        sweep.add(p, max(h, v), scale)
    return sweep.result(len(pts), tol)


@check("struct.symmetry", "F^i_jk = F^i_kj")
def _check_symmetry(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        sweep.add(p, connections.torsion_defect(F, p),
                  float(np.max(np.abs(fr.F))))
    return sweep.result(len(pts), tol)


@check("struct.deflection", "F^i_kj y^k = N^i_j")
def _check_deflection(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        sweep.add(p, connections.deflection_defect(F, p),
                  float(np.max(np.abs(fr.N))))
    return sweep.result(len(pts), tol)


@check("struct.projectors", "h + v = id, h^2 = h, v^2 = v, hv = vh = 0 on T(TM)")
def _check_projectors(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        sweep.add(p, connections.projector_defects(F, p),
                  max(1.0, float(np.max(np.abs(fr.N)))))
    return sweep.result(len(pts), tol)


# -- curvature checks ------------------------------------------------------------


@check("curv.contraction", "R^i_hjk y^h = R^i_jk")
def _check_curv_contraction(F, pts, tol, floor, seed):
    sweep = _Sweep()
    for p in pts:
        fr = point_frame(F, p)
        scale = max(float(np.max(np.abs(fr.Rhat))),
                    float(np.max(np.abs(fr.hcurv))) * max(abs(v) for v in p.y))
        sweep.add(p, curvature.curvature_contraction_defect(F, p), scale)
    return sweep.result(len(pts), tol)


@check("curv.flatness", "R^i_hjk = 0 (horizontally flat structure)")
def _check_flatness(F, pts, tol, floor, seed):
    sweep = _Sweep()
    worst_rhat = 0.0
    for p in pts:
        fr = point_frame(F, p)
        sweep.add(p, float(np.max(np.abs(fr.hcurv))), 1.0)
        worst_rhat = max(worst_rhat, float(np.max(np.abs(fr.Rhat))))
    return sweep.result(len(pts), tol, details={"max_vh_torsion": worst_rhat})


def _max_rhat(F, pts) -> float:
    return max(float(np.max(np.abs(point_frame(F, p).Rhat))) for p in pts)


@check("thm2.8.flat", "R = 0 implies every gradient field is closed and dbar^2 f = 0")
def _check_thm28_flat(F, pts, tol, floor, seed):
    rhat = _max_rhat(F, pts)
    if rhat > floor:
        return CheckResult(
            n_points=len(pts),
            max_residual=rhat,
            threshold=tol,
            verdict=REPORT_ONLY,
            details={"note": "not applicable: structure is curved",
                     "max_vh_torsion": rhat},
        )
    sweep = _Sweep()
    scalars = _probe_scalars(F, seed, 28)
    for p in pts:
        sweep.add(p, float(np.max(np.abs(point_frame(F, p).Rhat))), 1.0)
        for f in scalars:
            sweep.add(p, picalc.closedness_defect(F, GradientField(f), p), 1.0)
            res = picalc.dbar_sq(F, f, p)
            sweep.add(p, float(np.max(np.abs(res.nested))), 1.0)
    return sweep.result(len(pts), tol, details={"max_vh_torsion": rhat})


@check("thm2.8.curved", "R != 0 witnessed and a documented gradient probe is not closed")
def _check_thm28_curved(F, pts, tol, floor, seed):
    rhat = _max_rhat(F, pts)
    if rhat <= floor:
        return CheckResult(
            n_points=len(pts), max_residual=rhat, threshold=floor,
            verdict=REPORT_ONLY,
            details={"note": "not applicable: structure is flat on the sample",
                     "max_vh_torsion": rhat},
        )
    doc = lambda x, y: 0.5 * (y[0] * y[0])
    best = 0.0
    wit = None
    for p in pts:
        d = picalc.closedness_defect(F, GradientField(doc), p)
        if d > best:
            best = d
            wit = _witness(p, d)
    verdict = PASS if best > floor else FAIL
    return CheckResult(
        n_points=len(pts), max_residual=best, threshold=floor, verdict=verdict,
        witness=wit,
        details={"max_vh_torsion": rhat,
                 "probe": "f = (y1)^2/2, X = grad f"},
    )


@check("eq2.13", "R^i_jk = omega_j phi^i_k - omega_k phi^i_j, omega from fitted kappa")
def _check_eq213(F, pts, tol, floor, seed):
    sweep = _Sweep()
    kappas = []
    for p in pts:
        res = curvature.scalar_form_check(F, p)
        sweep.add(p, res.residual, res.scale)
        kappas.append(res.kappa)
    details = {
        "kappa_min": float(np.min(kappas)),
        "kappa_max": float(np.max(kappas)),
        "scalar_h_last": point_frame(F, pts[-1]).scalar,
    }
    return sweep.result(len(pts), tol, details=details)


# -- pi-calculus checks -----------------------------------------------------------


@check("thm2.6", "(dbar i_X g)_jk = g_ks (A_X)^s_j - g_js (A_X)^s_k for every field X")
def _check_thm26(F, pts, tol, floor, seed):
    sweep = _Sweep()
    fields = _probe_fields(F, seed, 26)
    for p in pts:
        for X in fields:
            M, B = picalc.flat_form_and_selfadjoint_matrix(F, X, p)
            scale = max(float(np.max(np.abs(M))), float(np.max(np.abs(B - B.T))))
            sweep.add(p, float(np.max(np.abs(M - (B.T - B)))), scale)
    return sweep.result(len(pts), tol)


@check("dbar.sq", "(dbar dbar f)_jk = R^m_jk dy_m f (nested vs contracted)")
def _check_dbar_sq(F, pts, tol, floor, seed):
    sweep = _Sweep()
    scalars = _probe_scalars(F, seed, 88)
    for p in pts:
        for f in scalars:
            res = picalc.dbar_sq(F, f, p)
            sweep.add(p, res.defect, res.scale)
    return sweep.result(len(pts), tol)


@check("eq2.12", "g_lk (A_gradf)^l_j - g_lj (A_gradf)^l_k = R^m_jk dy_m f")
def _check_eq212(F, pts, tol, floor, seed):
    sweep = _Sweep()
    scalars = _probe_scalars(F, seed, 212)
    side = 0.0
    wit = None
    for p in pts:
        for f in scalars:
            res = picalc.gradient_torsion_identity(F, f, p)
            sweep.add(p, res.residual, res.scale)
            mag = min(float(np.max(np.abs(res.lhs))), float(np.max(np.abs(res.rhs))))
            if mag > side:
                side = mag
                wit = _witness(p, mag)
    out = sweep.result(len(pts), tol, details={"max_min_side_magnitude": side})
    if out.verdict == PASS and wit is not None:
        out.witness = wit
    return out


@check("eq2.14", "dy_i f = ell_i (y^k dy_k f)/L exactly for f = h(x) L^r")
def _check_eq214(F, pts, tol, floor, seed):
    iso_h = lambda x, y: (1.0 + 0.3 * x[0]) * (F.L(x, y) ** 2)
    pos = lambda x, y: x[0]
    aniso = lambda x, y: y[0] * y[0]
    sweep = _Sweep()
    best = 0.0
    wit = None
    for p in pts:
        fr = point_frame(F, p)
        scale = max(1.0, fr.L)
        sweep.add(p, picalc.isotropy_residual(F, iso_h, p), scale * fr.L)
        sweep.add(p, picalc.isotropy_residual(F, pos, p), 1.0)
        a = picalc.isotropy_residual(F, aniso, p)
        if a > best:
            best = a
            wit = _witness(p, a)
    details = {"anisotropic_residual": best,
               "probes": "f = h(x) L^2; f = x1; f = (y1)^2"}
    out = sweep.result(len(pts), tol, details=details)
    if out.verdict == PASS:
        if best <= floor:
            out.verdict = FAIL
            out.witness = wit
            out.details["note"] = "negative control failed to exceed floor"
        else:
            out.witness = wit
    return out


@check(
    "thm2.13.involutive",
    "brackets of the orthogonal complement of a closed X stay orthogonal",
)
def _check_involutive(F, pts, tol, floor, seed):
    rng = np.random.default_rng([seed, 213])
    closed = GradientField(_positional_scalar(F.n, rng), name="gradpos")
    other = _mixed_field(F.n, rng)
    sweep = _Sweep()
    open_defect = 0.0
    for p in pts:
        rep = picalc.involutivity_report(F, closed, p)
        sweep.add(p, rep.defect, rep.scale)
        sweep.add(p, rep.identity_defect, rep.scale)
        rep2 = picalc.involutivity_report(F, other, p)
        sweep.add(p, rep2.identity_defect, rep2.scale)
        open_defect = max(open_defect, rep2.defect / max(1.0, rep2.scale))
    return sweep.result(
        len(pts), tol,
        details={"nonclosed_probe_defect": open_defect,
                 "pairs_per_point": max(0, (F.n - 1) * (F.n - 2) // 2)},
    )


@check(
    "prop2.14.lie",
    "Lie_X g vs i_X dbar-g contraction, hypothesis measured not asserted",
)
def _check_lie(F, pts, tol, floor, seed):
    fields = [
        constant_field([1.0] + [0.0] * (F.n - 1)),
        ComponentField(
            [lambda x, y: -x[1], lambda x, y: x[0]]
            + [(lambda k: (lambda x, y: 0.0))(k) for k in range(F.n - 2)],
            name="rotation",
        ),
        ComponentField(
            [lambda x, y: x[0]] + [(lambda k: (lambda x, y: 0.0))(k)
                                   for k in range(F.n - 1)],
            name="stretch",
        ),
    ]
    worst_diff = 0.0
    rows = []
    for p in pts[: max(1, len(pts) // 2)]:
        for X in fields:
            rep = picalc.lie_metric_report(F, X, p)
            worst_diff = max(worst_diff, rep.difference)
            rows.append((X, rep))
    lie_by_field = {}
    for X, rep in rows:
        name = getattr(X, "name", "field")
        prev = lie_by_field.get(name, (0.0, 0.0))
        lie_by_field[name] = (max(prev[0], rep.lie_defect),
                              max(prev[1], rep.closedness))
    details = {"max_lie_minus_contraction": worst_diff}
    for name, (lie_d, clo_d) in sorted(lie_by_field.items()):
        details[f"lie_defect[{name}]"] = lie_d
        details[f"closedness[{name}]"] = clo_d
    return CheckResult(
        n_points=len(pts),
        max_residual=worst_diff,
        threshold=tol,
        verdict=REPORT_ONLY,
        details=details,
    )


@check("prop.randers", "tau i_{m*} g* = i_m g under a closed drift; ell pairings vanish")
def _check_randers(F, pts, tol, floor, seed):
    if "b_fn" in F.meta and "base" in F.meta:
        base = F.meta["base"]
        b_fn = F.meta["b_fn"]
        star = F
    else:
        base = F
        const = tuple([0.2] + [0.0] * (F.n - 1))
        b_fn = lambda x: const
        star = randers_change(F, b_fn, validate=False)
    pre = picalc.drift_precondition_defect(b_fn, pts, base.n)
    sweep = _Sweep()
    literal = 0.0
    agree = True
    star_def = base_def = 0.0
    wit = None
    with local_frames(base if star is F else star, pts):
        for p in pts:
            rep = picalc.drift_closedness_transfer(base, b_fn, p, star=star)
            sweep.add(p, rep.identity_residual, rep.base_form_scale)
            sweep.add(p, rep.dual_path_residual, rep.base_form_scale)
            sweep.add(p, abs(rep.ell_pairing), 1.0)
            sweep.add(p, abs(rep.star_ell_pairing), 1.0)
            literal = max(literal, rep.literal_residual)
            s_vanish = rep.star_defect < max(tol * rep.base_form_scale, tol)
            b_vanish = rep.base_defect < max(tol * rep.base_form_scale, tol)
            s_big = rep.star_defect > floor
            b_big = rep.base_defect > floor
            ok = (s_vanish and b_vanish) or (s_big and b_big)
            if not ok:
                agree = False
                wit = _witness(p, max(rep.star_defect, rep.base_defect))
            star_def = max(star_def, rep.star_defect)
            base_def = max(base_def, rep.base_defect)
    details = {
        "precondition_db": pre,
        "literal_residual_max": literal,
        "star_closedness_max": star_def,
        "base_closedness_max": base_def,
        "verdict_agreement": "yes" if agree else "no",
    }
    out = sweep.result(len(pts), tol, details=details)
    if not agree and out.verdict == PASS:
        out.verdict = FAIL
        out.witness = wit
        out.details["note"] = "closedness verdicts disagree between structures"
    return out


@check("thm2.16.conformal", "dbar~ i_X g~ = e^{2s}(2 ds wedge i_X g + dbar~ i_X g)")
def _check_conformal(F, pts, tol, floor, seed):
    from .structures import conformal_change

    X = constant_field([0.0, 1.0] + [0.0] * (F.n - 2))
    sig_const = 0.25
    sig_lin = lambda x: x[0]
    tilde_const = conformal_change(F, sig_const)
    tilde_lin = conformal_change(F, sig_lin)
    sweep = _Sweep()
    breakage = 0.0
    wit = None
    pred_applicable = 0
    with local_frames(tilde_const, pts), local_frames(tilde_lin, pts):
        for p in pts:
            rep_c = picalc.conformal_closedness_transfer(F, X, sig_const, p,
                                                         tilde=tilde_const)
            sweep.add(p, rep_c.scaling_residual, rep_c.scale)
            sweep.add(p, rep_c.leibniz_residual, rep_c.scale)
            rep_l = picalc.conformal_closedness_transfer(F, X, sig_lin, p,
                                                         tilde=tilde_lin)
            sweep.add(p, rep_l.leibniz_residual, rep_l.scale)
            if rep_l.tilde_base_defect < tol * rep_l.scale:
                pred_applicable += 1
                sweep.add(p, rep_l.prediction_residual, rep_l.scale)
            if rep_l.actual_defect > breakage:
                breakage = rep_l.actual_defect
                wit = _witness(p, breakage)
    details = {
        "breakage_defect_max": breakage,
        "prediction_applicable_points": pred_applicable,
    }
    out = sweep.result(len(pts), tol, details=details)
    if out.verdict == PASS:
        if breakage <= floor:
            out.verdict = FAIL
            out.details["note"] = "nonconstant sigma produced no breakage witness"
            out.witness = wit
        else:
            out.witness = wit
    return out


# -- jet/FD cross-check -------------------------------------------------------------


def _all_multis(nvars: int, max_degree: int):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            if sum(prefix) > 0:
                out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d, slots - 1)

    rec([], max_degree, nvars)
    return out


@check("jets.fd", "all jet partials of degree <= 3 match central differences")
def _check_jets_fd(F, pts, tol, floor, seed):
    n = F.n
    rng = np.random.default_rng([seed, 99])
    poly = _poly_scalar(n, rng)
    fields = [F.L, lambda x, y: poly(x, y) * F.L(x, y)]
    threshold = max(tol, 1e-5)
    sweep = _Sweep()
    multis = _all_multis(2 * n, 3)
    for p in pts[: min(3, len(pts))]:
        for f in fields:
            jet = jet_eval(f, p, 3)
            for multi in multis:
                exact = jet.partial(multi)
                approx = fd_partial(f, p, multi)
                sweep.add(p, abs(exact - approx), max(1.0, abs(exact)))
    return sweep.result(len(pts[: min(3, len(pts))]), threshold)


ANCHORS = {cid: anchor for cid, (anchor, _) in _REGISTRY.items()}


def check_ids() -> list:
    return sorted(_REGISTRY)


def run_check(check_id: str, F: FinslerStructure, pts, tol: float, floor: float,
              seed: int) -> CheckResult:
    """Run one registered check. A FinslerError raised inside it becomes that
    check's FAIL, with the exception type and message in details["error"]."""
    if check_id not in _REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}")
    anchor, fn = _REGISTRY[check_id]
    try:
        out = fn(F, pts, tol, floor, seed)
    except FinslerError as exc:
        out = CheckResult(
            n_points=len(pts),
            max_residual=float("inf"),
            threshold=tol,
            verdict=FAIL,
            witness=None,
            details={"error": f"{type(exc).__name__}: {exc}"},
        )
    out.check_id = check_id
    out.anchor = anchor
    return out


def run_checks(F: FinslerStructure, ids, points: int, seed: int, tol: float,
               floor: float) -> list:
    pts = F.sample(points, seed)
    frames = point_frames(F, pts)  # noqa: F841 -- one batch serves every check
    return [run_check(cid, F, pts, tol, floor, seed) for cid in sorted(ids)]
