"""The verification check registry.

Each check registers itself with @check(id, anchor), the one place its id
and formula anchor are stated; run_check stamps both on the result.

A check is a reduction over the point axis. run_checks builds one batch
frame over its sample and runs each distinct check id once, handing the
frame to it as `fn(fr, tol, floor, seed)`; the check reads the structure and
the points off `fr`, evaluates the jets of each probe field once, and passes
the frame and those jets to the calculus, which runs once on them: every
identity it tests gives one array of residuals and one of scales, with an
entry per point, and the check reduces those arrays over the whole sample to
a CheckResult. The frames a check
builds for itself (scaled points, a Randers or conformal change of the
structure) are freed when the check returns, and the sample's frame when
the run does. The reductions pick the maximum and the witness point that
adding the residuals one point at a time, in sample order, would pick. No
check catches an error: run_check alone turns one into the check's FAIL,
with the first error its batch meets, naming its point where the frame can.

Three verdict rules, each written once:
- identity (`_Sweep.result`): PASS when the worst residual relative to
  max(1, |LHS|, |RHS|) is below `tol`; a FAIL has the witness point;
- negative control (`_negative_control`): a PASS also needs a control value,
  a probe the identity must break, to exceed the absolute `floor`, else it
  becomes a FAIL with a note; both carry the control's witness point;
- REPORT-ONLY (`_report_only`): a measured value and no verdict, where the
  hypothesis fails on the sample or is measured rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import connections, curvature, picalc
from .chart import ChartPoint
from .errors import FinslerError
from .fields import ComponentField, GradientField, constant_field, covector_jets
from .frame import PointFrame, antisymmetric, dot, matvec, max_abs, pymax
from .jets import fd_partial, index_table, jet_eval
from .structures import FinslerStructure, conformal_change, randers_change

PASS = "PASS"
FAIL = "FAIL"
REPORT_ONLY = "REPORT-ONLY"

# What a point can raise inside a check: the library's own errors, and float
# arithmetic that overflows or divides by an underflowed zero (math.exp of a
# huge sigma, a power whose base underflows, numpy overflow under run_check)
_CHECK_ERRORS = (FinslerError, ArithmeticError)


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


def _last_max(residual, scale, keep):
    """Worst relative residual rel = residual / max(1, scale) and its flat
    index, in row-major order, as a running `rel >= best` from best = 0.0
    finds them: the last entry equal to the maximum wins, a NaN never wins,
    a NaN scale counts as 1 (Python's max(1.0, nan) is 1.0), and entries
    where `keep` is False are skipped. (0.0, None) when no entry wins."""
    with np.errstate(invalid="ignore"):  # inf / inf is a NaN, which never wins
        rel = residual / np.fmax(1.0, scale)
    wins = keep & (rel >= 0.0)
    if not wins.any():
        return 0.0, None
    k = np.flatnonzero(wins & (rel == rel[wins].max()))[-1]
    return float(rel.flat[k]), int(k)


def _first_max(values):
    """Largest value and its flat index, in row-major order, as a running
    `value > best` from best = 0.0 finds them: the first entry equal to the
    maximum wins, and NaNs and values <= 0 never do. (0.0, None) when no
    entry wins; the value alone is the running max(best, value)."""
    values = np.asarray(values, dtype=float)
    wins = values > 0.0
    if not wins.any():
        return 0.0, None
    k = np.flatnonzero(values == values[wins].max())[0]
    return float(values.flat[k]), int(k)


class _Sweep:
    """The worst relative residual of a sweep and its witness point.

    Each `add` appends per-point columns: a residual array over the points
    (a (P, k) array appends k columns), its scale, and where the add applies
    (`keep`). `result` reduces the (P, C) matrix in point-major order, the
    order of one scalar add per point and column, so the last point with the
    maximum is the witness."""

    def __init__(self, pts):
        self.pts = pts
        self.columns = []

    def add(self, residual, scale=1.0, keep=True):
        P = len(self.pts)
        scale, keep = (np.reshape(v, (P, -1)) if np.ndim(v) else v for v in (scale, keep))
        self.columns.append(np.broadcast_arrays(np.reshape(residual, (P, -1)), scale, keep))

    def result(self, tol: float, details: dict = None) -> CheckResult:
        residual, scale, keep = (np.concatenate(part, axis=1) for part in zip(*self.columns))
        max_residual, k = _last_max(residual, scale, keep)
        verdict = PASS if max_residual < tol else FAIL
        witness = None
        if verdict == FAIL and k is not None:
            witness = _witness(self.pts[k // residual.shape[1]], residual.flat[k])
        return CheckResult(
            n_points=len(self.pts),
            max_residual=max_residual,
            threshold=tol,
            verdict=verdict,
            witness=witness,
            details=details or {},
        )


def _negative_control(out: CheckResult, pts, values, floor: float, note: str) -> float:
    """On a PASS, witness the first largest control value, and turn the PASS
    into a FAIL with `note` when that value is <= floor. Returns the value."""
    best, k = _first_max(values)
    if out.verdict == PASS:
        out.witness = None if k is None else _witness(pts[k], best)
        if best <= floor:
            out.verdict = FAIL
            out.details["note"] = note
    return best


def _report_only(fr, value: float, threshold: float, details: dict) -> CheckResult:
    return CheckResult(n_points=len(fr.point), max_residual=value, threshold=threshold,
                       verdict=REPORT_ONLY, details=details)


# check id -> (anchor, check function); filled by @check, read by run_check
_REGISTRY: dict = {}


def check(check_id: str, anchor: str):
    """Register a check function under its stable id and one-line formula anchor."""

    def register(fn):
        _REGISTRY[check_id] = (anchor, fn)
        return fn

    return register


# -- probe builders -----------------------------------------------------------


def _quadratic_scalar(n: int, rng, fiber: bool) -> Callable:
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


def _affine_field(n: int, rng, fiber: bool) -> ComponentField:
    """X^i = c_i + sum_j (a_ij x^j + b_ij y^j) with `fiber`, and
    X^i = c_i + sum_j a_ij x^j, a lift of a base field, without."""
    c0 = rng.uniform(-1.0, 1.0, size=n)
    lin = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(1 + fiber)]

    def fn(x, y):
        out = []
        for i in range(n):
            acc = c0[i]
            for j in range(n):
                for c, z in zip(lin, (x, y)):
                    acc = acc + c[i][j] * z[j]
            out.append(acc)
        return out

    return ComponentField(fn, name="mixedpoly" if fiber else f"lift{c0.round(2)}")


def _probe_fields(F: FinslerStructure, seed: int, tag: int):
    """Three probe families: lifts, y-dependent polynomials, gradients."""
    rng = np.random.default_rng([seed, tag])
    n = F.n
    return [
        _affine_field(n, rng, False),
        _affine_field(n, rng, False),
        _affine_field(n, rng, True),
        _affine_field(n, rng, True),
        GradientField(_quadratic_scalar(n, rng, True), name="gradpoly"),
        GradientField(_quadratic_scalar(n, rng, False), name="gradpos"),
    ]


def _doc_scalar(x, y):
    """The documented probe f = (y1)^2/2."""
    return 0.5 * (y[0] * y[0])


def _probe_scalars(F: FinslerStructure, seed: int, tag: int):
    rng = np.random.default_rng([seed, tag])
    return [_quadratic_scalar(F.n, rng, True), _quadratic_scalar(F.n, rng, False), _doc_scalar]


# -- structural checks ----------------------------------------------------------


@check("struct.homogeneity", "L(x,ty)=tL: g degree 0, N and R degree 1, G degree 2 in y")
def _check_homogeneity(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    t = 1.75
    frs = PointFrame(fr.structure,
                     tuple(ChartPoint(p.x, tuple(t * v for v in p.y)) for p in fr.point))
    y = fr.y
    sweep.add(abs(dot(fr.ell, y) - fr.L), fr.L)
    dyg = fr.g_jets.dy  # [..., i, j, k] = dy_k g_ij
    euler = sum(dyg[..., k] * y[..., None, None, k] for k in range(fr.n))
    sweep.add(max_abs(euler, 2), max_abs(fr.g, 2))
    sweep.add(max_abs(frs.G - t * t * fr.G, 1), max_abs(frs.G, 1))
    sweep.add(max_abs(frs.N - t * fr.N, 2), max_abs(frs.N, 2))
    sweep.add(max_abs(frs.Rhat - t * fr.Rhat, 3), max_abs(frs.Rhat, 3))
    sweep.add(max_abs(frs.g - fr.g, 2), max_abs(fr.g, 2))
    return sweep.result(tol)


@check("struct.cartan_contraction", "C_ijk y^k = 0 and C totally symmetric")
def _check_cartan_contraction(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    C = fr.C3
    contr = max_abs(np.einsum("...ijk,...k->...ij", C, fr.y), 2)
    sym = pymax(*(max_abs(C - np.swapaxes(C, a, b), 3)
                  for a, b in ((-1, -2), (-3, -2), (-3, -1))))
    sweep.add(pymax(contr, sym), pymax(1.0, max_abs(C, 3)))
    return sweep.result(tol)


@check("struct.spray_defect", "y^j d_j dy_m E - y^j d_m dy_j E - 2 g_mj G^j + d_m E = 0")
def _check_spray_defect(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    scale = pymax(max_abs(matvec(2.0 * fr.g, fr.G), 1),
                  pymax(*np.moveaxis(np.abs(fr.E_jet.dx), -1, 0)))
    sweep.add(connections.spray_defect(fr), scale)
    return sweep.result(tol)


@check("struct.conservativity", "delta_i E = 0")
def _check_conservativity(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    scale = pymax(*np.moveaxis(np.abs(fr.E_jet.dx), -1, 0))
    sweep.add(connections.conservativity_defect(fr), pymax(scale, fr.E))
    return sweep.result(tol)


@check("struct.torsion", "dy_k N^i_j - dy_j N^i_k = 0")
def _check_torsion(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    dyN = fr.N_jets.dy  # [..., i, j, k] = dy_k N^i_j
    sweep.add(max_abs(antisymmetric(dyN), 3), pymax(1.0, max_abs(dyN, 3)))
    return sweep.result(tol)


@check(
    "struct.metricity",
    "delta_k g_ij = F^m_ik g_mj + F^m_jk g_im; vertical analogue with C",
)
def _check_metricity(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    h, v = connections.metricity_defect(fr)
    scale = pymax(1.0, max_abs(fr.F @ np.ones(fr.n), 2), max_abs(fr.g, 2))
    sweep.add(pymax(h, v), scale)
    return sweep.result(tol)


@check("struct.symmetry", "F^i_jk = F^i_kj")
def _check_symmetry(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    sweep.add(connections.torsion_defect(fr), max_abs(fr.F, 3))
    return sweep.result(tol)


@check("struct.deflection", "F^i_kj y^k = N^i_j")
def _check_deflection(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    sweep.add(connections.deflection_defect(fr), max_abs(fr.N, 2))
    return sweep.result(tol)


@check("struct.projectors", "h + v = id, h^2 = h, v^2 = v, hv = vh = 0 on T(TM)")
def _check_projectors(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    sweep.add(connections.projector_defects(fr), pymax(1.0, max_abs(fr.N, 2)))
    return sweep.result(tol)


# -- curvature checks ------------------------------------------------------------


@check("curv.contraction", "R^i_hjk y^h = R^i_jk")
def _check_curv_contraction(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    y_max = pymax(*np.moveaxis(np.abs(fr.y), -1, 0))
    scale = pymax(max_abs(fr.Rhat, 3), max_abs(fr.hcurv, 4) * y_max)
    sweep.add(curvature.curvature_contraction_defect(fr), scale)
    return sweep.result(tol)


@check("curv.flatness", "R^i_hjk = 0 (horizontally flat structure)")
def _check_flatness(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    sweep.add(max_abs(fr.hcurv, 4))
    return sweep.result(tol, details={"max_vh_torsion": _max_rhat(fr)})


def _max_rhat(fr) -> float:
    """The max vh-torsion over the sample; NaNs never win."""
    return _first_max(max_abs(fr.Rhat, 3))[0]


@check("thm2.8.flat", "R = 0 implies every gradient field is closed and dbar^2 f = 0")
def _check_thm28_flat(fr, tol, floor, seed):
    rhat = _max_rhat(fr)
    if rhat > floor:
        return _report_only(fr, rhat, tol, {"note": "not applicable: structure is curved",
                                            "max_vh_torsion": rhat})
    sweep = _Sweep(fr.point)
    sweep.add(max_abs(fr.Rhat, 3))
    for f in _probe_scalars(fr.structure, seed, 28):
        df = fr.delta_jets(fr.field_jet(f, 2))  # the jets of dbar f, read twice
        sweep.add(picalc.closedness_defect(fr, fr.sharp_jets(df)))  # of grad f
        sweep.add(max_abs(picalc.dbar_p(fr, df), 2))
    return sweep.result(tol, details={"max_vh_torsion": rhat})


@check("thm2.8.curved", "R != 0 witnessed and a documented gradient probe is not closed")
def _check_thm28_curved(fr, tol, floor, seed):
    rhat = _max_rhat(fr)
    if rhat <= floor:
        return _report_only(fr, rhat, floor,
                            {"note": "not applicable: structure is flat on the sample",
                             "max_vh_torsion": rhat})
    best, k = _first_max(picalc.closedness_defect(fr, GradientField(_doc_scalar).jets(fr)))
    verdict = PASS if best > floor else FAIL
    return CheckResult(
        n_points=len(fr.point), max_residual=best, threshold=floor, verdict=verdict,
        witness=None if k is None else _witness(fr.point[k], best),
        details={"max_vh_torsion": rhat,
                 "probe": "f = (y1)^2/2, X = grad f"},
    )


@check("eq2.13",
       "R^i_jk = omega_j phi^i_k - omega_k phi^i_j, kappa and omega from the traces of R")
def _check_eq213(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    res = curvature.scalar_form_check(fr)
    sweep.add(res.residual, res.scale)
    details = {
        "kappa_min": float(np.min(res.kappa)),
        "kappa_max": float(np.max(res.kappa)),
        "scalar_h_last": float(fr.scalar[-1]),
    }
    return sweep.result(tol, details=details)


# -- pi-calculus checks -----------------------------------------------------------


@check("thm2.6", "(dbar i_X g)_jk = g_ks (A_X)^s_j - g_js (A_X)^s_k for every field X")
def _check_thm26(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    for X in _probe_fields(fr.structure, seed, 26):
        M, B = picalc.flat_form_and_selfadjoint_matrix(fr, X.jets(fr))
        BT = np.swapaxes(B, -1, -2)
        sweep.add(max_abs(M - (BT - B), 2), pymax(max_abs(M, 2), max_abs(B - BT, 2)))
    return sweep.result(tol)


@check("dbar.sq", "(dbar dbar f)_jk = R^m_jk dy_m f (nested vs contracted)")
def _check_dbar_sq(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    for f in _probe_scalars(fr.structure, seed, 88):
        res = picalc.dbar_sq(fr, f)
        sweep.add(res.defect, res.scale)
    return sweep.result(tol)


@check("eq2.12", "g_lk (A_gradf)^l_j - g_lj (A_gradf)^l_k = R^m_jk dy_m f")
def _check_eq212(fr, tol, floor, seed):
    sweep = _Sweep(fr.point)
    scalars = _probe_scalars(fr.structure, seed, 212)
    sides = []
    for f in scalars:
        res = picalc.gradient_torsion_identity(fr, f)
        sweep.add(res.residual, res.scale)
        lhs, rhs = max_abs(res.lhs, 2), max_abs(res.rhs, 2)
        sides.append(np.where(rhs < lhs, rhs, lhs))  # the builtin min(lhs, rhs)
    side, k = _first_max(np.stack(sides, axis=-1))
    out = sweep.result(tol, details={"max_min_side_magnitude": side})
    if out.verdict == PASS and k is not None:
        out.witness = _witness(fr.point[k // len(scalars)], side)
    return out


@check("eq2.14", "dy_i f = ell_i (y^k dy_k f)/L exactly for f = h(x) L^r")
def _check_eq214(fr, tol, floor, seed):
    iso_h = lambda x, y: (1.0 + 0.3 * x[0]) * (fr.structure.L(x, y) ** 2)
    pos = lambda x, y: x[0]
    aniso = lambda x, y: y[0] * y[0]
    sweep = _Sweep(fr.point)
    sweep.add(picalc.isotropy_residual(fr, iso_h), pymax(1.0, fr.L) * fr.L)
    sweep.add(picalc.isotropy_residual(fr, pos))
    out = sweep.result(tol, details={"probes": "f = h(x) L^2; f = x1; f = (y1)^2"})
    out.details["anisotropic_residual"] = _negative_control(
        out, fr.point, picalc.isotropy_residual(fr, aniso), floor,
        "negative control failed to exceed floor")
    return out


@check(
    "thm2.13.involutive",
    "brackets of the orthogonal complement of a closed X stay orthogonal",
)
def _check_involutive(fr, tol, floor, seed):
    rng = np.random.default_rng([seed, 213])
    closed = GradientField(_quadratic_scalar(fr.n, rng, False), name="gradpos")
    other = _affine_field(fr.n, rng, True)
    sweep = _Sweep(fr.point)
    rep = picalc.involutivity_report(fr, closed.jets(fr))
    rep2 = picalc.involutivity_report(fr, other.jets(fr))
    sweep.add(rep.defect, rep.scale)
    sweep.add(rep.identity_defect, rep.scale)
    sweep.add(rep2.identity_defect, rep2.scale)
    open_defect = _first_max(rep2.defect / np.fmax(1.0, rep2.scale))[0]
    return sweep.result(
        tol,
        details={"nonclosed_probe_defect": open_defect,
                 "pairs_per_point": max(0, (fr.n - 1) * (fr.n - 2) // 2)},
    )


@check(
    "prop2.14.lie",
    "Lie_X g vs i_X dbar-g contraction, hypothesis measured not asserted",
)
def _check_lie(fr, tol, floor, seed):
    zeros = [0.0] * (fr.n - 2)
    fields = [
        constant_field([1.0, 0.0] + zeros),
        ComponentField(lambda x, y: [-x[1], x[0]] + zeros, name="rotation"),
        ComponentField(lambda x, y: [x[0], 0.0] + zeros, name="stretch"),
    ]

    reports = [picalc.lie_metric_report(fr, X.jets(fr)) for X in fields]
    worst_diff = _first_max([rep.difference for rep in reports])[0]
    details = {"max_lie_minus_contraction": worst_diff}
    for X, rep in zip(fields, reports):
        details[f"lie_defect[{X.name}]"] = _first_max(rep.lie_defect)[0]
        details[f"closedness[{X.name}]"] = _first_max(rep.closedness)[0]
    return _report_only(fr, worst_diff, tol, details)


@check("prop.randers", "tau i_{m*} g* = i_m g under a closed drift; ell pairings vanish")
def _check_randers(fr, tol, floor, seed):
    meta = fr.structure.meta
    if "b_fn" in meta and "base" in meta:  # fr is over the changed structure
        b_fn = meta["b_fn"]
        frb, frs = PointFrame(meta["base"], fr.point), fr
    else:
        const = tuple([0.2] + [0.0] * (fr.n - 1))
        b_fn = lambda x: const
        frb, frs = fr, fr.derived(randers_change(fr.structure, b_fn))
    bj = covector_jets(fr, b_fn)  # b is positional: its jets serve both frames
    pre = _first_max(picalc.drift_precondition_defect(bj))[0]
    if pre > floor:
        return _report_only(fr, pre, tol, {"note": "not applicable: drift is not closed",
                                           "precondition_db": pre})
    sweep = _Sweep(fr.point)
    rep = picalc.drift_closedness_transfer(frb, frs, bj)
    sweep.add(rep.identity_residual, rep.base_form_scale)
    sweep.add(rep.dual_path_residual, rep.base_form_scale)
    sweep.add(abs(rep.ell_pairing))
    sweep.add(abs(rep.star_ell_pairing))
    # closedness is a property of the form on the whole sample: closed for
    # both structures at every point, or not closed for both somewhere
    vanish = pymax(tol * rep.base_form_scale, tol)
    agree = bool(np.all((rep.star_defect < vanish) & (rep.base_defect < vanish))
                 or (np.any(rep.star_defect > floor) and np.any(rep.base_defect > floor)))
    details = {
        "precondition_db": pre,
        "literal_residual_max": _first_max(rep.literal_residual)[0],
        "star_closedness_max": _first_max(rep.star_defect)[0],
        "base_closedness_max": _first_max(rep.base_defect)[0],
        "verdict_agreement": "yes" if agree else "no",
    }
    out = sweep.result(tol, details=details)
    if not agree and out.verdict == PASS:
        best, k = _first_max(pymax(rep.star_defect, rep.base_defect))
        out.verdict = FAIL
        out.witness = None if k is None else _witness(fr.point[k], best)
        out.details["note"] = "closedness verdicts disagree between structures"
    return out


@check("thm2.16.conformal", "dbar~ i_X g~ = e^{2s}(2 ds wedge i_X g + dbar~ i_X g)")
def _check_conformal(fr, tol, floor, seed):
    Xj = constant_field([0.0, 1.0] + [0.0] * (fr.n - 2)).jets(fr)
    # a generator, so each tilde frame is freed once its report is made
    tildes = (fr.derived(conformal_change(fr.structure, s))
              for s in (lambda x: 0.25, lambda x: x[0]))
    rep_c, rep_l = picalc.conformal_closedness_transfer(fr, tildes, Xj)
    # the wedge prediction applies where dbar~ of the base form vanishes
    applicable = rep_l.tilde_base_defect < tol * rep_l.scale
    sweep = _Sweep(fr.point)
    sweep.add(rep_c.scaling_residual, rep_c.scale)
    sweep.add(rep_c.leibniz_residual, rep_c.scale)
    sweep.add(rep_l.leibniz_residual, rep_l.scale)
    sweep.add(rep_l.prediction_residual, rep_l.scale, keep=applicable)
    out = sweep.result(
        tol, details={"prediction_applicable_points": int(np.count_nonzero(applicable))})
    out.details["breakage_defect_max"] = _negative_control(
        out, fr.point, rep_l.actual_defect, floor,
        "nonconstant sigma produced no breakage witness")
    return out


# -- jet/FD cross-check -------------------------------------------------------------


@check("jets.fd", "all jet partials of degree <= 3 match central differences")
def _check_jets_fd(fr, tol, floor, seed):
    rng = np.random.default_rng([seed, 99])
    poly = _quadratic_scalar(fr.n, rng, True)
    fields = [fr.structure.L, lambda x, y: poly(x, y) * fr.structure.L(x, y)]
    threshold = max(tol, 1e-5)
    multis = index_table(2 * fr.n, 3)[0][1:]  # every multi-index of degree 1 to 3
    sub = fr.point[:3]
    # [point, (field, multi)]: one stacked jet of both fields, one difference scheme per entry
    stacked = jet_eval(lambda x, y: [f(x, y) for f in fields], sub, 3)
    exact = stacked.coeffs[..., 1:].reshape(len(sub), -1)  # the table in `multis` order
    approx = np.array([[fd_partial(f, p, multi) for f in fields for multi in multis]
                       for p in sub])
    sweep = _Sweep(sub)
    sweep.add(np.abs(exact - approx), pymax(1.0, np.abs(exact)))
    return sweep.result(threshold)


ANCHORS = {cid: anchor for cid, (anchor, _) in _REGISTRY.items()}


def check_ids() -> list:
    return sorted(_REGISTRY)


def run_check(check_id: str, fr: PointFrame, tol: float, floor: float,
              seed: int) -> CheckResult:
    """Run one registered check on the batch frame `fr` of a sample. An
    error of `_CHECK_ERRORS` raised inside it, numpy overflow included,
    becomes that check's FAIL, with the exception type and message in
    details["error"]: the first error the batch meets. The errors of a
    frame's field evaluation, the positivity cone, `g` and a degenerate
    probe name the point they failed at."""
    if check_id not in _REGISTRY:
        raise ValueError(f"unknown check id {check_id!r}")
    anchor, fn = _REGISTRY[check_id]
    try:
        with np.errstate(over="raise"):  # a FloatingPointError, an ArithmeticError
            out = fn(fr, tol, floor, seed)
    except _CHECK_ERRORS as exc:
        out = CheckResult(n_points=len(fr.point), max_residual=float("inf"), threshold=tol,
                          verdict=FAIL, details={"error": f"{type(exc).__name__}: {exc}"})
    out.check_id = check_id
    out.anchor = anchor
    return out


def run_checks(F: FinslerStructure, ids, points: int, seed: int, tol: float,
               floor: float) -> list:
    """Each distinct id of `ids` once, in sorted order, on the run's one frame of its sample."""
    fr = PointFrame(F, tuple(F.sample(points, seed)))
    return [run_check(cid, fr, tol, floor, seed) for cid in sorted(set(ids))]
