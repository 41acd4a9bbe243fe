"""Scalar reference for the stacked PointFrame tower and field calculus.

The frame builds each rung as one stacked jet. This module rebuilds the
same rungs one component at a time from scalar jets, with the nested-list
Gauss-Jordan solve and the per-component loops, in the same floating-point
operation order. A stacked rung must equal its reference here exactly, not
merely to round-off. The same holds for the jets of pi-vector fields and
for the `picalc` helpers built on them (`field_jets`, `lowered_jets`,
`dbar_matrix`, `bracket`, `nabla_h_matrix` below), which take lists of
scalar component jets. Index conventions match the frame:

    g_jets[i][j]        g_ij, order 2
    ginv_jets[i][j]     g^ij, order 1
    G_jets[i]           G^i, order 2
    N_jets[i][j]        N^i_j, order 1
    dg_jets[s][k][j]    delta_j g_sk, order 1
    F_jets[i][j][k]     F^i_jk, order 1
"""

from functools import cached_property

import numpy as np

from finslerkit.errors import CapabilityError, DegenerateFieldError, SingularMetricError
from finslerkit.fields import (
    ComponentField,
    DriftCompanionField,
    GradientField,
    Positional,
    ProjectedField,
)
from finslerkit.jets import MAX_ORDER, Jet, jet_eval

_PIVOT_FLOOR = 1e-120


def jet_solve(A, B):
    """Gauss-Jordan on nested lists of scalar jets: A is n x n, B is n x m."""
    n = len(A)
    A = [list(row) for row in A]
    B = [list(row) for row in B]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col].value))
        if abs(A[piv][col].value) < _PIVOT_FLOOR:
            raise SingularMetricError("singular jet system: zero pivot")
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            B[col], B[piv] = B[piv], B[col]
        inv = 1.0 / A[col][col]
        A[col] = [entry * inv for entry in A[col]]
        B[col] = [entry * inv for entry in B[col]]
        for r in range(n):
            if r == col:
                continue
            f = A[r][col]
            A[r] = [a - f * ac for a, ac in zip(A[r], A[col])]
            B[r] = [b - f * bc for b, bc in zip(B[r], B[col])]
    return B


class ScalarTower:
    """The PointFrame rungs of `structure` at `point`, component by component."""

    def __init__(self, structure, point):
        self.point = point
        self.n = structure.n
        L = jet_eval(structure.L, point, MAX_ORDER)
        self.E_jet = 0.5 * (L * L)

    @cached_property
    def _E_dy(self):
        return [self.E_jet.partial_jet(self.n + i) for i in range(self.n)]

    @cached_property
    def g_jets(self):
        n = self.n
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                jet = self._E_dy[i].partial_jet(n + j)
                rows[i][j] = jet
                rows[j][i] = jet
        return rows

    @cached_property
    def g(self):
        n = self.n
        return np.array([[self.g_jets[i][j].value for j in range(n)] for i in range(n)])

    @cached_property
    def ginv_jets(self):
        n = self.n
        A = [[self.g_jets[i][j].truncated(1) for j in range(n)] for i in range(n)]
        I = [
            [Jet.constant(2 * n, 1, 1.0 if i == j else 0.0) for j in range(n)]
            for i in range(n)
        ]
        return jet_solve(A, I)

    @cached_property
    def G_jets(self):
        n = self.n
        y_jets = Jet.variable(2 * n, 2, range(n, 2 * n), self.point.y)
        rhs = []
        for m_idx in range(n):
            acc = -1.0 * self.E_jet.partial_jet(m_idx).truncated(2)
            dym = self._E_dy[m_idx]
            for k in range(n):
                acc = acc + y_jets[k] * dym.partial_jet(k).truncated(2)
            rhs.append([0.5 * acc])
        A = [[self.g_jets[i][j] for j in range(n)] for i in range(n)]
        sol = jet_solve(A, rhs)
        return [sol[i][0] for i in range(n)]

    @cached_property
    def N_jets(self):
        n = self.n
        return [[self.G_jets[i].partial_jet(n + j) for j in range(n)] for i in range(n)]

    @cached_property
    def N(self):
        n = self.n
        return np.array([[self.N_jets[i][j].value for j in range(n)] for i in range(n)])

    def delta_value(self, jet, k):
        out = jet.partial1(k)
        for m in range(self.n):
            out -= self.N[m, k] * jet.partial1(self.n + m)
        return out

    def delta_jet(self, jet, k):
        out = jet.partial_jet(k)
        for m in range(self.n):
            out = out - self.N_jets[m][k] * jet.partial_jet(self.n + m)
        return out

    @cached_property
    def dg_jets(self):
        n = self.n
        return [
            [[self.delta_jet(self.g_jets[s][k], j) for j in range(n)] for k in range(n)]
            for s in range(n)
        ]

    @cached_property
    def F_jets(self):
        n = self.n
        dg = self.dg_jets
        out = [[[None] * n for _ in range(n)] for _ in range(n)]
        for j in range(n):
            for k in range(j, n):
                col = []
                for s in range(n):
                    col.append(dg[s][k][j] + dg[j][s][k] - dg[j][k][s])
                for i in range(n):
                    acc = self.ginv_jets[i][0] * col[0]
                    for s in range(1, n):
                        acc = acc + self.ginv_jets[i][s] * col[s]
                    acc = 0.5 * acc
                    out[i][j][k] = acc
                    out[i][k][j] = acc
        return out

    @cached_property
    def F(self):
        n = self.n
        arr = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    arr[i, j, k] = self.F_jets[i][j][k].value
        return arr

    @cached_property
    def Cmix(self):
        n = self.n
        C3 = np.empty((n, n, n))
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    val = 0.5 * self.g_jets[i][j].partial1(n + k)
                    C3[i, j, k] = val
                    C3[j, i, k] = val
        return np.einsum("is,sjk->ijk", np.linalg.inv(self.g), C3)

    @cached_property
    def Rhat(self):
        n = self.n
        arr = np.zeros((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    val = self.delta_value(self.N_jets[i][j], k) - self.delta_value(
                        self.N_jets[i][k], j
                    )
                    arr[i, j, k] = val
                    arr[i, k, j] = -val
        return arr

    @cached_property
    def hcurv(self):
        n = self.n
        dF = np.empty((n, n, n, n))
        for i in range(n):
            for h in range(n):
                for k in range(n):
                    jet = self.F_jets[i][h][k]
                    for j in range(n):
                        dF[i, h, k, j] = self.delta_value(jet, j)
        F = self.F
        out = -np.transpose(dF, (0, 1, 3, 2)) + dF
        out -= np.einsum("mhk,imj->ihjk", F, F)
        out += np.einsum("mhj,imk->ihjk", F, F)
        out += np.einsum("mjk,ihm->ihjk", self.Rhat, self.Cmix)
        return out

    @cached_property
    def scalar(self):
        ricci = np.einsum("ihji->jh", self.hcurv)
        return float(np.einsum("jh,jh->", np.linalg.inv(self.g), ricci))


def stack(nested):
    """Coefficient array of a nested list of scalar jets, table axis last."""
    if isinstance(nested, Jet):
        return nested.coeffs
    return np.stack([stack(item) for item in nested])


# -- pi-vector fields and their calculus, one component at a time ---------------


def field_jets(X, frame, order):
    """The order-`order` jets of the components of X, as a list of scalar
    jets at a single-point frame."""
    n = frame.n
    if isinstance(X, ComponentField):
        return [frame.field_jet(c, order) for c in X.components]
    if isinstance(X, GradientField):
        if order > 1:
            raise CapabilityError("gradient components carry jets up to order 1")
        df = frame.delta_jets(frame.field_jet(X.f, 2))
        out = []
        for i in range(n):
            acc = frame.ginv_jets[i, 0] * df[0]
            for k in range(1, n):
                acc = acc + frame.ginv_jets[i, k] * df[k]
            out.append(acc.truncated(order))
        return out
    if isinstance(X, DriftCompanionField):
        if order > 1:
            raise CapabilityError("drift companion components carry jets up to order 1")
        b = [frame.field_jet(Positional(X.b_fn, i), order) for i in range(n)]
        yj = [jet_eval((lambda k: lambda x, y: y[k])(i), frame.point, order)
              for i in range(n)]
        alpha = b[0] * yj[0]
        for i in range(1, n):
            alpha = alpha + b[i] * yj[i]
        Lj = frame.L_jet.truncated(order)
        scale = alpha / (Lj * Lj)
        out = []
        for i in range(n):
            acc = frame.ginv_jets[i, 0].truncated(order) * b[0]
            for k in range(1, n):
                acc = acc + frame.ginv_jets[i, k].truncated(order) * b[k]
            out.append(acc - scale * yj[i])
        return out
    if isinstance(X, ProjectedField):
        Xj = field_jets(X.X, frame, order)
        vj = [Jet.constant(2 * n, order, v) for v in X.vec]
        gvx = None
        gxx = None
        for i in range(n):
            for j in range(n):
                gij = frame.g_jets[i, j].truncated(order)
                tvx = gij * (vj[i] * Xj[j])
                txx = gij * (Xj[i] * Xj[j])
                gvx = tvx if gvx is None else gvx + tvx
                gxx = txx if gxx is None else gxx + txx
        if abs(gxx.value) < 1e-18:
            raise DegenerateFieldError("cannot project: X has vanishing g-norm")
        lam = gvx / gxx
        return [vj[i] - lam * Xj[i] for i in range(n)]
    raise TypeError(f"no reference for {type(X).__name__}")


def lowered_jets(frame, Xjets):
    """Jets of w_k = g_km X^m from component jets."""
    n = frame.n
    out = []
    for k in range(n):
        acc = frame.g_jets[k, 0].truncated(1) * Xjets[0]
        for m in range(1, n):
            acc = acc + frame.g_jets[k, m].truncated(1) * Xjets[m]
        out.append(acc)
    return out


def dbar_matrix(frame, wjets):
    """(dbar w)_jk = delta_j w_k - delta_k w_j from component jets."""
    n = frame.n
    d = np.array([frame.delta_values(wjets[k]) for k in range(n)])  # [k, j] = delta_j w_k
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            v = d[k, j] - d[j, k]
            out[j, k] = v
            out[k, j] = -v
    return out


def bracket(frame, Xjets, Yjets):
    """rho[bX, bY]^m = X^k delta_k Y^m - Y^k delta_k X^m from component jets."""
    xv = np.array([j.value for j in Xjets])
    yv = np.array([j.value for j in Yjets])
    dX = [frame.delta_values(jet) for jet in Xjets]
    dY = [frame.delta_values(jet) for jet in Yjets]
    return np.array([sum(xv * dY[m] - yv * dX[m]) for m in range(len(Xjets))])


def nabla_h_matrix(frame, Xjets):
    """(A_X)^i_j = delta_j X^i + F^i_kj X^k from component jets."""
    vals = np.array([jet.value for jet in Xjets])
    out = np.array([frame.delta_values(jet) for jet in Xjets])
    out += np.einsum("ikj,k->ij", frame.F, vals)
    return out
