"""Per-point derivative tower for a Finsler structure.

A PointFrame owns every chart quantity at one (x, y): the energy jet,
the fundamental tensor, the geodesic spray, the nonlinear connection,
the linear connection coefficients, and their horizontal derivatives.
Everything is computed lazily and cached, so cheap consumers (say, a
metric check) never pay for curvature.

Index layout: variable slots 0..n-1 are x, slots n..2n-1 are y. All
tensor arrays are indexed with the contravariant slot first, so N[i, j]
is N^i_j and F[i, j, k] is F^i_jk with lower indices (j, k).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .chart import ChartPoint
from .errors import DomainError, SingularMetricError
from .jets import MAX_ORDER, Jet, jet_eval

COND_LIMIT = 1e12
_PIVOT_FLOOR = 1e-120


def jet_solve(A, B):
    """Solve the jet-linear system A X = B by Gauss-Jordan elimination.

    A is an n x n nested list of jets, B an n x m nested list. Pivots are
    chosen by the magnitude of the value part; a vanishing pivot means the
    underlying matrix of values is singular.
    """
    n = len(A)
    m = len(B[0])
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


class _readonly_array(cached_property):
    """A cached_property whose ndarray value is marked read-only: frames are
    shared through the point_frame cache, so no reader may write into one."""

    def __get__(self, instance, owner=None):
        value = super().__get__(instance, owner)
        if instance is not None:
            value.flags.writeable = False
        return value


class PointFrame:
    """All chart quantities of one structure at one admissible point."""

    def __init__(self, structure, point: ChartPoint):
        if point.n != structure.n:
            raise ValueError(
                f"point dimension {point.n} != structure dimension {structure.n}"
            )
        if not structure.domain(point.x, point.y):
            raise DomainError(f"{point} is outside the domain of {structure.name}")
        self.structure = structure
        self.point = point
        self.n = structure.n
        self._field_jets = {}

    # -- scalars ---------------------------------------------------------

    @cached_property
    def L_jet(self) -> Jet:
        jet = jet_eval(self.structure.L, self.point, MAX_ORDER)
        if jet.value <= 0.0:
            raise DomainError(
                f"Lagrangian is {jet.value:.3g} <= 0 at {self.point}; "
                "point lies outside the positivity cone"
            )
        return jet

    @cached_property
    def E_jet(self) -> Jet:
        return 0.5 * (self.L_jet * self.L_jet)

    @property
    def L(self) -> float:
        return self.L_jet.value

    @property
    def E(self) -> float:
        return self.E_jet.value

    # -- metric level ------------------------------------------------------

    @cached_property
    def _E_dy(self):
        # first fiber derivatives of the energy, jets of order 3
        return [self.E_jet.partial_jet(self.n + i) for i in range(self.n)]

    @cached_property
    def g_jets(self):
        """g_ij as order-2 jets (second fiber derivatives of the energy)."""
        n = self.n
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                jet = self._E_dy[i].partial_jet(n + j)
                rows[i][j] = jet
                rows[j][i] = jet
        return rows

    @_readonly_array
    def g(self) -> np.ndarray:
        n = self.n
        mat = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                mat[i, j] = self.g_jets[i][j].value
        eig = np.linalg.eigvalsh(mat)
        if eig[0] <= 0.0:
            raise SingularMetricError(
                f"fundamental tensor is not positive definite at {self.point} "
                f"(min eigenvalue {eig[0]:.3g})"
            )
        if eig[-1] / eig[0] > COND_LIMIT:
            raise SingularMetricError(
                f"fundamental tensor is numerically singular at {self.point} "
                f"(condition number {eig[-1] / eig[0]:.3g})"
            )
        return mat

    @_readonly_array
    def g_inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @cached_property
    def ginv_jets(self):
        """g^ij as order-1 jets, from solving g X = identity in the jet ring."""
        n = self.n
        self.g  # run the conditioning guard first
        A = [[self.g_jets[i][j].truncated(1) for j in range(n)] for i in range(n)]
        I = [
            [Jet.constant(2 * n, 1, 1.0 if i == j else 0.0) for j in range(n)]
            for i in range(n)
        ]
        return jet_solve(A, I)

    @_readonly_array
    def ell(self) -> np.ndarray:
        """The unit covector, first fiber derivatives of L."""
        return np.array(
            [self.L_jet.partial1(self.n + i) for i in range(self.n)]
        )

    @_readonly_array
    def phi(self) -> np.ndarray:
        """Projector onto the g-orthogonal complement of the tautological field."""
        y = np.array(self.point.y)
        return np.eye(self.n) - np.outer(y, self.ell) / self.L

    @_readonly_array
    def C3(self) -> np.ndarray:
        """All-lower Cartan tensor, C_ijk = half the fiber derivative of g_ij."""
        n = self.n
        out = np.empty((n, n, n))
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    val = 0.5 * self.g_jets[i][j].partial1(n + k)
                    out[i, j, k] = val
                    out[j, i, k] = val
        return out

    @_readonly_array
    def Cmix(self) -> np.ndarray:
        """C^i_jk, the Cartan tensor with the first index raised."""
        return np.einsum("is,sjk->ijk", self.g_inv, self.C3)

    # -- spray and nonlinear connection ------------------------------------

    @cached_property
    def G_jets(self):
        """Spray coefficients G^i as order-2 jets.

        Solves 2 g_ml G^l = y^k (d_k dy_m E) - d_m E, the chart form of the
        geodesic equation i_S(d d_J E) = -d E.
        """
        n = self.n
        y_jets = [
            Jet.variable(2 * n, 2, n + k, self.point.y[k]) for k in range(n)
        ]
        rhs = []
        for m_idx in range(n):
            acc = -1.0 * self.E_jet.partial_jet(m_idx).truncated(2)
            dym = self._E_dy[m_idx]
            for k in range(n):
                acc = acc + y_jets[k] * dym.partial_jet(k).truncated(2)
            rhs.append([0.5 * acc])
        A = [[self.g_jets[i][j] for j in range(n)] for i in range(n)]
        self.g  # conditioning guard
        sol = jet_solve(A, rhs)
        return [sol[i][0] for i in range(n)]

    @_readonly_array
    def G(self) -> np.ndarray:
        return np.array([jet.value for jet in self.G_jets])

    @cached_property
    def N_jets(self):
        """Nonlinear connection N^i_j = fiber derivative of the spray, order 1."""
        n = self.n
        return [
            [self.G_jets[i].partial_jet(n + j) for j in range(n)] for i in range(n)
        ]

    @_readonly_array
    def N(self) -> np.ndarray:
        n = self.n
        return np.array(
            [[self.N_jets[i][j].value for j in range(n)] for i in range(n)]
        )

    # -- horizontal derivatives --------------------------------------------

    def delta_value(self, jet: Jet, k: int) -> float:
        """Value of the horizontal derivative delta_k of a jet quantity."""
        out = jet.partial1(k)
        for m in range(self.n):
            out -= self.N[m, k] * jet.partial1(self.n + m)
        return out

    def delta_jet(self, jet: Jet, k: int) -> Jet:
        """Horizontal derivative as a jet; order drops by one (and is capped
        by the nonlinear connection's jet order)."""
        out = jet.partial_jet(k)
        for m in range(self.n):
            out = out - self.N_jets[m][k] * jet.partial_jet(self.n + m)
        return out

    # -- linear connection ---------------------------------------------------

    @cached_property
    def _dg_jets(self):
        # dg[s][k][j] = delta_j g_sk as an order-1 jet
        n = self.n
        return [
            [[self.delta_jet(self.g_jets[s][k], j) for j in range(n)] for k in range(n)]
            for s in range(n)
        ]

    @cached_property
    def F_jets(self):
        """Horizontal connection coefficients F^i_jk as order-1 jets."""
        n = self.n
        dg = self._dg_jets
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

    @_readonly_array
    def F(self) -> np.ndarray:
        n = self.n
        arr = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    arr[i, j, k] = self.F_jets[i][j][k].value
        return arr

    # -- curvature ------------------------------------------------------------

    @_readonly_array
    def Rhat(self) -> np.ndarray:
        """vh-torsion R^i_jk of the nonlinear connection (fiber components of
        the horizontal bracket defect)."""
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

    @_readonly_array
    def hcurv(self) -> np.ndarray:
        """Horizontal curvature tensor R^i_hjk, contravariant slot first."""
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

    @_readonly_array
    def ricci(self) -> np.ndarray:
        """Trace of the horizontal curvature on its first and last slots."""
        return np.einsum("ihji->jh", self.hcurv)

    @cached_property
    def scalar(self) -> float:
        return float(np.einsum("jh,jh->", self.g_inv, self.ricci))

    # -- scalar fields on the frame -------------------------------------------

    def field_jet(self, fn, order: int) -> Jet:
        """Jet of a scalar field (x, y) -> value at this frame's point, cached."""
        key = (fn, order)
        jet = self._field_jets.get(key)
        if jet is None:
            jet = jet_eval(fn, self.point, order)
            self._field_jets[key] = jet
        return jet


@lru_cache(maxsize=4096)
def point_frame(structure, point: ChartPoint) -> PointFrame:
    """Shared, memoized frame lookup; structures hash by identity and points
    by value, so repeated checks at one point reuse the whole tower."""
    return PointFrame(structure, point)
