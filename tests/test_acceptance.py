"""Acceptance gate: ten numbered criteria, each printing one PASS/FAIL line.

Run with plain pytest; the per-criterion lines bypass output capture so the
verdicts are visible in any run. Every threshold below is part of the
package contract and is intentionally hard-coded.
"""

import json

import numpy as np
import pytest

from finslerkit import connections as conn
from finslerkit import curvature as curv
from finslerkit import jets
from finslerkit import picalc as pc
from finslerkit.cli import main as cli_main
from finslerkit.fields import ComponentField, GradientField, constant_field, covector_jets
from finslerkit.frame import point_frame
from finslerkit.structures import by_name, conformal_change, euclidean, randers_change

from conftest import CATALOG_NAMES
from riemann_oracle import riemann as oracle_riemann
from riemann_oracle import ricci as oracle_ricci
from riemann_oracle import scalar as oracle_scalar
from riemann_oracle import sphere_metric

SEED = 5
NPTS = 20
FLOOR = 1e-3


def _announce(capsys, num, label, ok, detail=""):
    line = f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    return line


def _catalog():
    return [(name, by_name(name)) for name in CATALOG_NAMES]


def _probe_fields(n):
    rng = np.random.default_rng([SEED, n])
    cx = rng.uniform(-1, 1, size=(n, n))
    cy = rng.uniform(-1, 1, size=(n, n))

    def comp(i):
        return lambda x, y: sum(cx[i][j] * x[j] + cy[i][j] * y[j] for j in range(n))

    mixed = ComponentField([comp(i) for i in range(n)], name="mixed")
    grad = GradientField(lambda x, y: x[0] * x[1 % n] + 0.3 * y[0], name="grad")
    const = constant_field([1.0] + [-0.5] * (n - 1))
    return [mixed, grad, const]


def test_criterion_01_structural_certificates(capsys):
    worst = 0.0
    for name, s in _catalog():
        for p in s.sample(NPTS, seed=SEED):
            fr = point_frame(s, p)  # a batch of one: its results have a point axis
            y = np.array(p.y)
            F, C3 = fr.F[0], fr.C3[0]
            residuals = [
                conn.spray_defect(fr)[0],
                conn.conservativity_defect(fr)[0],
                conn.torsion_defect(fr)[0],
                *(defect[0] for defect in conn.metricity_defect(fr)),
                float(np.max(np.abs(F - F.swapaxes(1, 2)))),
                float(np.max(np.abs(np.einsum("ijk,k->ij", C3, y)))),
                conn.deflection_defect(fr)[0],
            ]
            worst = max(worst, max(residuals))
    ok = worst < 1e-7
    _announce(capsys, 1, "structural certificates", ok, f"max residual {worst:.3g}")
    assert ok, f"structural certificate residual {worst:.3g} >= 1e-7"


def test_criterion_02_lowered_form_derivative_identity(capsys):
    worst = 0.0
    for name, s in _catalog():
        probes = _probe_fields(s.n)
        for p in s.sample(NPTS, seed=SEED):
            fr = point_frame(s, p)
            for X in probes:
                M, B = (a[0] for a in pc.flat_form_and_selfadjoint_matrix(fr, X.jets(fr)))
                anti = B.T - B
                scale = max(1.0, np.abs(M).max(), np.abs(anti).max())
                worst = max(worst, np.abs(M - anti).max() / scale)
    ok = worst < 1e-7
    _announce(capsys, 2, "derivative of lowered form vs operator antisymmetrization",
              ok, f"max relative residual {worst:.3g}")
    assert ok, f"identity residual {worst:.3g} >= 1e-7"


def test_criterion_03_flatness_and_closedness_dichotomy(capsys):
    scalar_probes = [
        lambda x, y: x[0] ** 2 - 0.5 * x[1],
        lambda x, y: x[0] * y[1] + 0.2 * y[0],
        lambda x, y: 0.5 * y[0] * y[0],
    ]
    flat_torsion = 0.0
    flat_closed = 0.0
    flat_dsq = 0.0
    for name in ("euclidean2", "minkowski_quartic2"):
        s = by_name(name)
        for p in s.sample(NPTS, seed=SEED):
            fr = point_frame(s, p)
            flat_torsion = max(flat_torsion, np.abs(fr.Rhat).max())
            for f in scalar_probes:
                flat_closed = max(
                    flat_closed, pc.closedness_defect(fr, GradientField(f).jets(fr))[0]
                )
                flat_dsq = max(flat_dsq, np.abs(pc.dbar_sq(fr, f).nested).max())
    s = by_name("sphere2")
    pts = s.sample(NPTS, seed=SEED)
    sphere_torsion = max(np.abs(point_frame(s, p).Rhat).max() for p in pts)
    documented = GradientField(lambda x, y: 0.5 * y[0] * y[0], name="fiber-square")
    frames = [point_frame(s, p) for p in pts]
    sphere_closed = max(pc.closedness_defect(fr, documented.jets(fr))[0] for fr in frames)

    ok = (
        flat_torsion < 1e-8
        and flat_closed < 1e-7
        and flat_dsq < 1e-8
        and sphere_torsion > 0.1
        and sphere_closed > 1e-3
    )
    _announce(
        capsys, 3, "flat closedness vs curved obstruction", ok,
        f"flat torsion {flat_torsion:.3g}, flat closedness {flat_closed:.3g}, "
        f"flat dbar^2 {flat_dsq:.3g}, sphere torsion {sphere_torsion:.3g}, "
        f"sphere closedness {sphere_closed:.3g}",
    )
    assert flat_torsion < 1e-8
    assert flat_closed < 1e-7
    assert flat_dsq < 1e-8
    assert sphere_torsion > 0.1
    assert sphere_closed > 1e-3


def test_criterion_04_gradient_torsion_identity(capsys):
    f = lambda x, y: x[0] * y[0] + x[1]
    worst_rel = 0.0
    weakest_witness = np.inf
    for name in ("sphere2", "randers_sphere2"):
        s = by_name(name)
        best_side = 0.0
        for p in s.sample(NPTS, seed=SEED):
            res = pc.gradient_torsion_identity(point_frame(s, p), f)
            worst_rel = max(worst_rel, (res.residual / res.scale)[0])
            best_side = max(
                best_side, min(np.abs(res.lhs).max(), np.abs(res.rhs).max())
            )
        weakest_witness = min(weakest_witness, best_side)
    ok = worst_rel < 1e-6 and weakest_witness >= 1e-3
    _announce(
        capsys, 4, "curvature pairing of gradient fields", ok,
        f"max relative residual {worst_rel:.3g}, witness magnitude {weakest_witness:.3g}",
    )
    assert worst_rel < 1e-6
    assert weakest_witness >= 1e-3


def test_criterion_05_riemannian_oracle_equivalence(capsys):
    s = by_name("sphere2")
    worst_R = worst_ric = worst_sc = 0.0
    for p in s.sample(NPTS, seed=SEED):
        x = np.array(p.x)
        worst_R = max(
            worst_R, np.abs(point_frame(s, p).hcurv - oracle_riemann(sphere_metric, x)).max()
        )
        worst_ric = max(
            worst_ric, np.abs(point_frame(s, p).ricci - oracle_ricci(sphere_metric, x)).max()
        )
        worst_sc = max(worst_sc, abs(point_frame(s, p).scalar - 2.0))
    worst_contraction = 0.0
    for name, s2 in _catalog():
        for p in s2.sample(NPTS, seed=SEED):
            worst_contraction = max(
                worst_contraction, curv.curvature_contraction_defect(point_frame(s2, p))[0]
            )
    ok = (
        worst_R < 1e-6
        and worst_ric < 1e-6
        and worst_sc < 1e-6
        and worst_contraction < 1e-7
    )
    _announce(
        capsys, 5, "independent curvature oracle", ok,
        f"curvature {worst_R:.3g}, ricci {worst_ric:.3g}, scalar vs 2 {worst_sc:.3g}, "
        f"contraction {worst_contraction:.3g}",
    )
    assert worst_R < 1e-6
    assert worst_ric < 1e-6
    assert worst_sc < 1e-6
    assert worst_contraction < 1e-7


def test_criterion_06_scalar_curvature_shape(capsys):
    s = by_name("sphere2")
    pts = s.sample(NPTS, seed=SEED)
    frames = [point_frame(s, p) for p in pts]
    worst_fit = max((res.residual / res.scale)[0]
                    for res in map(curv.scalar_form_check, frames))
    iso = lambda x, y: (1.0 + 0.3 * x[0]) * s.L(x, y) ** 2
    aniso = lambda x, y: y[0] ** 2
    positional = lambda x, y: x[0] ** 3 - x[1]
    worst_iso = max(pc.isotropy_residual(fr, iso)[0] for fr in frames)
    min_aniso = min(pc.isotropy_residual(fr, aniso)[0] for fr in frames)
    worst_corollary = max(pc.isotropy_residual(fr, positional)[0] for fr in frames)
    ok = (
        worst_fit < 1e-6
        and worst_iso < 1e-9
        and min_aniso > 1e-2
        and worst_corollary < 1e-12
    )
    _announce(
        capsys, 6, "scalar shape of the torsion", ok,
        f"fit {worst_fit:.3g}, isotropic probe {worst_iso:.3g}, anisotropic probe "
        f"{min_aniso:.3g}, positional corollary {worst_corollary:.3g}",
    )
    assert worst_fit < 1e-6
    assert worst_iso < 1e-9
    assert min_aniso > 1e-2
    assert worst_corollary < 1e-12


def test_criterion_07_randers_drift_transfer(capsys):
    b = (0.2, 0.0)
    worst_ell = worst_identity = worst_literal = 0.0
    agree = True
    for base_name in ("euclidean2", "sphere2"):
        base = by_name(base_name)
        star = randers_change(base, b, validate=True)
        for p in base.sample(NPTS, seed=SEED):
            fr = point_frame(base, p)
            bj = covector_jets(fr, star.meta["b_fn"])
            rep = pc.drift_closedness_transfer(fr, point_frame(star, p), bj)
            worst_ell = max(
                worst_ell, abs(rep.ell_pairing[0]), abs(rep.star_ell_pairing[0])
            )
            worst_identity = max(
                worst_identity, rep.identity_residual[0] / rep.base_form_scale[0]
            )
            worst_literal = max(worst_literal, rep.literal_residual[0])
            agree = agree and (
                (rep.base_defect[0] > FLOOR) == (rep.star_defect[0] > FLOOR)
            )
    ok = worst_ell < 1e-9 and worst_identity < 1e-8 and agree
    _announce(
        capsys, 7, "drift companion transfer", ok,
        f"ell pairing {worst_ell:.3g}, scaled-form identity {worst_identity:.3g}, "
        f"verdicts agree {agree}; literal transcription residual {worst_literal:.3g} "
        "(reported, known false in general)",
    )
    assert worst_ell < 1e-9
    assert worst_identity < 1e-8
    assert agree


def test_criterion_08_conformal_transfer(capsys):
    e = euclidean(2)
    X = constant_field([0.0, 1.0])
    pts = e.sample(NPTS, seed=SEED)
    worst_const = 0.0
    tilde = conformal_change(e, 0.25)
    for p in pts:
        fr = point_frame(e, p)
        rep = pc.conformal_closedness_transfer(fr, point_frame(tilde, p), X.jets(fr))
        worst_const = max(worst_const, rep.actual_defect[0], rep.scaling_residual[0])
    worst_pred = 0.0
    best_defect = 0.0
    tilde = conformal_change(e, lambda x: x[0])
    for p in pts:
        fr = point_frame(e, p)
        rep = pc.conformal_closedness_transfer(fr, point_frame(tilde, p), X.jets(fr))
        worst_pred = max(worst_pred, rep.prediction_residual[0] / rep.scale[0])
        best_defect = max(best_defect, rep.actual_defect[0])
    ok = worst_const < 1e-7 and worst_pred < 1e-7 and best_defect > 1e-3
    _announce(
        capsys, 8, "conformal rescaling of closed forms", ok,
        f"constant sigma {worst_const:.3g}, prediction residual {worst_pred:.3g}, "
        f"linear-sigma defect witness {best_defect:.3g}",
    )
    assert worst_const < 1e-7
    assert worst_pred < 1e-7
    assert best_defect > 1e-3


def test_criterion_09_derivatives_match_finite_differences(capsys):
    worst = 0.0
    for name, s in _catalog():
        n = s.n
        fields = [s.L, lambda x, y: 0.5 * s.L(x, y) ** 2]
        multis = [
            m
            for m in _all_multis(2 * n, 3)
            if 1 <= sum(m) <= 3
        ]
        for p in s.sample(3, seed=SEED):
            for f in fields:
                jet = jets.jet_eval(f, p, 3)
                for m in multis:
                    ad = jet.partial(m)
                    fd = jets.fd_partial(f, p, m)
                    worst = max(worst, abs(ad - fd) / max(1.0, abs(ad)))
    ok = worst < 1e-5
    _announce(
        capsys, 9, "jet derivatives vs finite differences", ok,
        f"max relative deviation {worst:.3g}",
    )
    assert ok, f"AD/FD deviation {worst:.3g} >= 1e-5"


def _all_multis(nvars, max_deg):
    out = [[0] * nvars]
    for _ in range(max_deg):
        nxt = []
        for m in out:
            for i in range(nvars):
                c = list(m)
                c[i] += 1
                nxt.append(c)
        out.extend(nxt)
    seen = set()
    uniq = []
    for m in out:
        t = tuple(m)
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return uniq


def test_criterion_10_deterministic_reports(capsys, tmp_path):
    args = [
        "verify", "--metric", "sphere2", "--checks", "all",
        "--points", "6", "--seed", str(SEED),
    ]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    cli_main(args + ["--out", str(out1)])
    cli_main(args + ["--out", str(out2)])
    b1 = out1.read_bytes()
    b2 = out2.read_bytes()
    ok = b1 == b2 and len(b1) > 0
    parsed = json.loads(b1)
    _announce(
        capsys, 10, "byte-identical reports", ok,
        f"{len(b1)} bytes, {len(parsed['checks'])} checks",
    )
    assert ok
