"""Per-point derivative tower for a Finsler structure.

A PointFrame owns every chart quantity at one (x, y): the energy jet,
the fundamental tensor, the geodesic spray, the nonlinear connection,
the linear connection coefficients, and their horizontal derivatives.
Everything is computed lazily and cached, so cheap consumers (say, a
metric check) never pay for curvature.

Index layout: variable slots 0..n-1 are x, slots n..2n-1 are y. All
tensor arrays are indexed with the contravariant slot first, so N[i, j]
is N^i_j and F[i, j, k] is F^i_jk with lower indices (j, k). The jet rungs
are stacked Jets in the same layout, with the graded coefficient table as
the trailing axis: `N_jets[i][j]` is the jet of N^i_j. Each rung is built
with one jet operation per tensor rather than one per component. The
value arrays are C-contiguous, as einsum may sum in another order over
another memory layout.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .chart import ChartPoint
from .errors import DomainError, SingularMetricError
from .jets import MAX_ORDER, Jet, jet_eval

COND_LIMIT = 1e12
_PIVOT_FLOOR = 1e-120


def jet_solve(A: Jet, B: Jet) -> Jet:
    """Solve the jet-linear system A X = B by Gauss-Jordan elimination.

    A is an (n, n) stack of jets and B an (n, m) stack of the same or a
    lower order, which A is truncated to; the result is the (n, m) stack X.
    Pivots are chosen by the magnitude of the value part; a vanishing pivot
    means the underlying matrix of values is singular. Each step scales the pivot row by the jet reciprocal of the
    pivot, then updates every row of [A | B] at once, row - f * pivot_row,
    and puts the scaled pivot row back. Columns of A at or left of the pivot
    are never read again.
    """
    n = A.coeffs.shape[0]
    a = A.coeffs[..., :B.coeffs.shape[-1]]  # A truncated to the order of B
    rows = Jet(B.nvars, B.order, np.concatenate([a, B.coeffs], axis=1))
    for col in range(n):
        c = rows.coeffs
        piv = col + int(np.argmax(np.abs(c[col:, col, 0])))
        if abs(c[piv, col, 0]) < _PIVOT_FLOOR:
            raise SingularMetricError("singular jet system: zero pivot")
        if piv != col:
            c[[col, piv]] = c[[piv, col]]
        pivot_row = rows[col] * (1.0 / rows[col, col])
        rows = rows - rows[:, col, None] * pivot_row
        rows.coeffs[col] = pivot_row.coeffs
    return rows[:, n:]


class _readonly(cached_property):
    """A cached_property whose ndarray value, or Jet coefficient array, is
    marked read-only: frames are shared through the point_frame cache, so no
    reader may write into one."""

    def __get__(self, instance, owner=None):
        value = super().__get__(instance, owner)
        if instance is not None:
            (value.coeffs if isinstance(value, Jet) else value).flags.writeable = False
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

    @_readonly
    def _E_dy(self) -> Jet:
        # first fiber derivatives of the energy, an (n,) stack of order-3 jets
        return self.E_jet.partial_jet(range(self.n, 2 * self.n))

    @_readonly
    def g_jets(self) -> Jet:
        """g_ij as an (n, n) stack of order-2 jets (second fiber derivatives
        of the energy)."""
        return self._E_dy.partial_jet(range(self.n, 2 * self.n))

    @_readonly
    def g(self) -> np.ndarray:
        mat = self.g_jets.value.copy()
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

    @_readonly
    def g_inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @_readonly
    def ginv_jets(self) -> Jet:
        """g^ij as an (n, n) stack of order-1 jets, from solving g X = identity
        in the jet ring."""
        n = self.n
        self.g  # run the conditioning guard first
        return jet_solve(self.g_jets, Jet.constant(2 * n, 1, np.eye(n)))

    @_readonly
    def ell(self) -> np.ndarray:
        """The unit covector, first fiber derivatives of L."""
        return np.array(
            [self.L_jet.partial1(self.n + i) for i in range(self.n)]
        )

    @_readonly
    def phi(self) -> np.ndarray:
        """Projector onto the g-orthogonal complement of the tautological field."""
        y = np.array(self.point.y)
        return np.eye(self.n) - np.outer(y, self.ell) / self.L

    @_readonly
    def C3(self) -> np.ndarray:
        """All-lower Cartan tensor, C_ijk = half the fiber derivative of g_ij."""
        return np.ascontiguousarray(0.5 * self.g_jets.coeffs[..., 1 + self.n:1 + 2 * self.n])

    @_readonly
    def Cmix(self) -> np.ndarray:
        """C^i_jk, the Cartan tensor with the first index raised."""
        return np.einsum("is,sjk->ijk", self.g_inv, self.C3)

    # -- spray and nonlinear connection ------------------------------------

    @_readonly
    def G_jets(self) -> Jet:
        """Spray coefficients G^i as an (n,) stack of order-2 jets.

        Solves 2 g_ml G^l = y^k (d_k dy_m E) - d_m E, the chart form of the
        geodesic equation i_S(d d_J E) = -d E.
        """
        n = self.n
        y = Jet.variable(2 * n, 2, range(n, 2 * n), self.point.y)
        terms = y * self._E_dy.partial_jet(range(n))  # [m, k] = y^k d_k dy_m E
        acc = terms[:, 0] - self.E_jet.partial_jet(range(n))  # == -d_m E + terms[:, 0]
        for k in range(1, n):
            acc = acc + terms[:, k]
        self.g  # conditioning guard
        return jet_solve(self.g_jets, (0.5 * acc)[:, None])[:, 0]

    @_readonly
    def G(self) -> np.ndarray:
        return self.G_jets.value.copy()

    @_readonly
    def N_jets(self) -> Jet:
        """Nonlinear connection N^i_j = fiber derivative of the spray, an
        (n, n) stack of order-1 jets."""
        return self.G_jets.partial_jet(range(self.n, 2 * self.n))

    @_readonly
    def N(self) -> np.ndarray:
        return self.N_jets.value.copy()

    # -- horizontal derivatives --------------------------------------------

    def delta_values(self, jet: Jet) -> np.ndarray:
        """Values of the horizontal derivatives delta_k of a jet quantity,
        every direction k at once as a trailing axis."""
        n = self.n
        c = jet.coeffs
        out = c[..., 1:1 + n]
        for m in range(n):
            out = out - self.N[m] * c[..., 1 + n + m, None]
        return out

    def delta_jets(self, jet: Jet) -> Jet:
        """Horizontal derivatives delta_k of a jet quantity as jets, every
        direction k at once as a trailing tensor axis; the order drops by one
        (and is capped by the nonlinear connection's jet order)."""
        n = self.n
        dy = jet.partial_jet(range(n, 2 * n))  # [..., m] = dy_m
        # [..., k, m] = N^m_k dy_m
        terms = Jet(2 * n, 1, self.N_jets.coeffs.transpose(1, 0, 2)) * dy[..., None, :, :]
        out = jet.partial_jet(range(n))
        for m in range(n):
            out = out - terms[..., m, :]
        return out

    # -- linear connection ---------------------------------------------------

    @_readonly
    def _dg_jets(self) -> Jet:
        """delta_j g_sk as an (n, n, n) stack of order-1 jets, indexed [s, k, j]."""
        return self.delta_jets(self.g_jets)

    @_readonly
    def F_jets(self) -> Jet:
        """Horizontal connection coefficients F^i_jk as an (n, n, n) stack of
        order-1 jets, 1/2 g^is (delta_j g_sk + delta_k g_js - delta_s g_jk)."""
        n = self.n
        dg = self._dg_jets.coeffs  # [s, k, j] = delta_j g_sk
        col = (  # [s, j, k]
            Jet(2 * n, 1, dg.transpose(0, 2, 1, 3))
            + Jet(2 * n, 1, dg.transpose(1, 0, 2, 3))
            - Jet(2 * n, 1, dg.transpose(2, 0, 1, 3))
        )
        terms = self.ginv_jets[:, :, None, None] * col  # [i, s, j, k]
        acc = terms[:, 0]
        for s in range(1, n):
            acc = acc + terms[:, s]
        return 0.5 * acc

    @_readonly
    def F(self) -> np.ndarray:
        return self.F_jets.value.copy()

    # -- curvature ------------------------------------------------------------

    @_readonly
    def Rhat(self) -> np.ndarray:
        """vh-torsion R^i_jk of the nonlinear connection (fiber components of
        the horizontal bracket defect)."""
        n = self.n
        dN = self.delta_values(self.N_jets)  # [i, j, k] = delta_k N^i_j
        arr = np.zeros((n, n, n))
        for j in range(n):
            for k in range(j + 1, n):
                val = dN[:, j, k] - dN[:, k, j]
                arr[:, j, k] = val
                arr[:, k, j] = -val
        return arr

    @_readonly
    def hcurv(self) -> np.ndarray:
        """Horizontal curvature tensor R^i_hjk, contravariant slot first."""
        dF = self.delta_values(self.F_jets)  # [i, h, k, j] = delta_j F^i_hk
        F = self.F
        out = -np.transpose(dF, (0, 1, 3, 2)) + dF
        out -= np.einsum("mhk,imj->ihjk", F, F)
        out += np.einsum("mhj,imk->ihjk", F, F)
        out += np.einsum("mjk,ihm->ihjk", self.Rhat, self.Cmix)
        return out

    @_readonly
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
