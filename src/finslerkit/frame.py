"""Derivative tower for a Finsler structure, at one point or over a batch.

A PointFrame owns every chart quantity at one (x, y): the energy jet,
the fundamental tensor, the geodesic spray, the nonlinear connection,
the linear connection coefficients, and their horizontal derivatives.
Everything is computed lazily and cached, so cheap consumers (say, a
metric check) never pay for curvature.

Index layout: variable slots 0..n-1 are x, slots n..2n-1 are y. All
tensor arrays are indexed with the contravariant slot first, so N[i, j]
is N^i_j and F[i, j, k] is F^i_jk with lower indices (j, k). The jet rungs
are stacked Jets in the same layout, with the graded coefficient table as
the trailing axis: `N_jets[i, j]` is the jet of N^i_j. Each rung is built
with one jet operation per tensor rather than one per component. The
value arrays are C-contiguous, as einsum may sum in another order over
another memory layout.

A frame may also hold a batch: `PointFrame(structure, points)` with a
tuple of chart points puts a leading point axis before the tensor axes of
every array and jet rung, computed by the same code, and slice i of each
equals the quantity of a frame at points[i] alone, bit for bit. There is
no frame cache: whoever builds a frame owns it, and `checks.run_checks`
builds the batch frame of its sample once and hands it to every check. The
calculus modules (`picalc`, `connections`, `curvature`) take the frame they
compute on. Where a batch cannot compute a quantity at every point (a point
outside the positivity cone, a singular metric), the quantity raises for
the whole batch, with an error that names the point it failed at (through
`located_jet_eval` for a field, and in `E_jet` for a numpy overflow of L^2).

A frame may stand on a base frame: `frame.derived(structure)` is the frame
of a Randers or conformal change of `frame.structure` at the same points.
The change's Lagrangian is a lift of the base Lagrangian,
`meta["lift"](x, y, base L)`, so the derived frame's `L_jet` lifts the base
frame's `L_jet` instead of evaluating the base Lagrangian again. The
coordinate jets are the same, so the lifted jet has every bit of the jet
the change's own Lagrangian gives; every rung above it follows.
"""

from __future__ import annotations

import numpy as np

from .chart import ChartPoint
from .errors import DomainError, NumericalError, SingularMetricError
from .jets import MAX_ORDER, Jet, jet_eval

COND_LIMIT = 1e12
_PIVOT_FLOOR = 1e-120


def jet_solve(A: Jet, B: Jet) -> Jet:
    """Solve the jet-linear system A X = B by Gauss-Jordan elimination.

    A is an (..., n, n) stack of jets and B an (..., n, m) stack of the same
    or a lower order, which A is truncated to; the result is the (..., n, m)
    stack X. B broadcasts over the leading axes (points) of A, and each
    system pivots on its own. Pivots are chosen by the magnitude of the
    value part; a vanishing pivot means the underlying matrix of values is
    singular. Each step scales the pivot row by the jet reciprocal of the
    pivot, then updates every row of [A | B] at once, row - f * pivot_row,
    and puts the scaled pivot row back. A step then drops the pivot column:
    neither it nor any column left of it is read again, so the products run
    over the columns right of the pivot and over B only, and give the bits
    an update of every column gives them.
    """
    n = A.coeffs.shape[-2]
    a = A.coeffs[..., :B.coeffs.shape[-1]]  # A truncated to the order of B
    b = B.coeffs
    if a.shape[:-3] != b.shape[:-3]:
        b = np.broadcast_to(b, a.shape[:-3] + b.shape[-3:])
    c = np.concatenate([a, b], axis=-2)  # [..., row, column of A | B]
    nvars, order = B.nvars, B.order
    one = c.ndim == 3  # a single system
    for col in range(n):
        # column 0 of c is the pivot column
        piv = col + np.abs(c.T[0, 0, col:]).argmax(0).T  # over the leading axes
        if one:
            if abs(c[piv, 0, 0]) < _PIVOT_FLOOR:
                raise SingularMetricError("singular jet system: zero pivot")
            if piv != col:
                c[[col, piv]] = c[[piv, col]]
        else:
            at = np.indices(piv.shape, sparse=True)
            if np.any(np.abs(c[(*at, piv, 0, 0)]) < _PIVOT_FLOOR):
                raise SingularMetricError("singular jet system: zero pivot")
            swap = np.nonzero(piv != col)
            if swap[0].size:
                top, low = swap + (col,), swap + (piv[swap],)
                c[top], c[low] = c[low], c[top]
        inv = 1.0 / Jet(nvars, order, c[..., col, 0, :])
        pivot_row = Jet(nvars, order, c[..., col, 1:, :]) * (inv if one else inv[..., None, :])
        factor = Jet(nvars, order, c[..., :, 0, None, :])
        update = factor * (pivot_row if one else pivot_row[..., None, :, :])
        c = c[..., 1:, :] - update.coeffs
        c[..., col, :, :] = pivot_row.coeffs
    return Jet(nvars, order, c)


def _freeze(value) -> None:
    """Mark an ndarray value, or a Jet's coefficient array, read-only."""
    if isinstance(value, Jet):
        value = value.coeffs
    if isinstance(value, np.ndarray):
        value.flags.writeable = False


class _lazy:
    """A frame quantity computed by `func` on first access and stored in the
    instance __dict__, which then answers every later read.

    Its value is read-only (`_freeze`): one frame is shared by every check
    of a run, so no reader may write into one. A quantity that raises is not
    stored, and raises again on the next access. `func` is looked up at call
    time.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, frame, owner=None):
        if frame is None:
            return self
        value = self.func(frame)
        _freeze(value)
        frame.__dict__[self.name] = value
        return value


class PointFrame:
    """All chart quantities of one structure at one admissible point, or at
    each point of a tuple of them (a batch, with a leading point axis)."""

    def __init__(self, structure, point: ChartPoint):
        for p in point if isinstance(point, tuple) else (point,):
            if p.n != structure.n:
                raise ValueError(
                    f"point dimension {p.n} != structure dimension {structure.n}"
                )
            if not structure.domain(p.x, p.y):
                raise DomainError(f"{p} is outside the domain of {structure.name}")
        self.structure = structure
        self.point = point
        self.n = structure.n
        self._lead = (len(point),) if isinstance(point, tuple) else ()
        self._field_jets = {}

    _base = None  # the frame a derived frame lifts its Lagrangian jet from

    def derived(self, structure) -> "PointFrame":
        """The frame of `structure`, a change of this frame's structure
        (`meta["base"]`), at this frame's points; its `L_jet` lifts this
        frame's `L_jet` through `meta["lift"]`. It keeps this frame alive."""
        if structure.meta.get("base") is not self.structure:
            raise ValueError(f"{structure.name} is not a change of {self.structure.name}")
        frame = PointFrame(structure, self.point)
        frame._base = self
        return frame

    def _first(self, bad):
        """Index and chart point of the first point where some entry of `bad` holds."""
        if not self._lead:
            return (), self.point
        k = int(np.argmax(np.reshape(bad, self._lead + (-1,)).any(-1)))
        return k, self.point[k]

    def _y(self) -> np.ndarray:
        if self._lead:
            return np.array([p.y for p in self.point])
        return np.array(self.point.y)

    def _against(self, arr: np.ndarray, ndim: int) -> np.ndarray:
        """A tensor over this frame's points, reshaped to broadcast against
        `ndim`-axis arrays that share its point axes: ones are inserted
        between the point axes and the tensor axes."""
        if not self._lead:
            return arr  # broadcasting prepends the ones itself
        k = len(self._lead)
        return arr.reshape(self._lead + (1,) * (ndim - arr.ndim) + arr.shape[k:])

    # -- scalars ---------------------------------------------------------

    @_lazy
    def L_jet(self) -> Jet:
        if self._base is None:
            jet = located_jet_eval(self.structure.L, self.point, MAX_ORDER)
        else:  # the float pass runs the change's own Lagrangian
            lift, base = self.structure.meta["lift"], self._base.L_jet
            jet = located_jet_eval(lambda x, y: lift(x, y, base), self.point, MAX_ORDER,
                                   self.structure.L)
        value = jet.coeffs.T[0]
        bad = value <= 0.0
        if bad.any():
            k, at = self._first(bad)
            raise DomainError(
                f"Lagrangian is {value[k]:.3g} <= 0 at {at}; "
                "point lies outside the positivity cone"
            )
        return jet

    @_lazy
    def E_jet(self) -> Jet:
        try:
            return 0.5 * (self.L_jet * self.L_jet)
        except FloatingPointError as exc:  # numpy overflow raised as an error
            with np.errstate(all="ignore"):
                square = (self.L_jet * self.L_jet).coeffs
            raise FloatingPointError(f"{exc} at {self._first(~np.isfinite(square))[1]}") from exc

    @property
    def L(self) -> float:
        return self.L_jet.value

    @property
    def E(self) -> float:
        return self.E_jet.value

    # -- metric level ------------------------------------------------------

    @_lazy
    def _E_dy(self) -> Jet:
        # first fiber derivatives of the energy, an (n,) stack of order-3 jets
        return self.E_jet.partial_jet(range(self.n, 2 * self.n))

    @_lazy
    def g_jets(self) -> Jet:
        """g_ij as an (n, n) stack of order-2 jets (second fiber derivatives
        of the energy)."""
        return self._E_dy.partial_jet(range(self.n, 2 * self.n))

    @_lazy
    def g(self) -> np.ndarray:
        mat = self.g_jets.value.copy()
        eig = np.linalg.eigvalsh(mat).T
        low = eig[0]
        bad = low <= 0.0
        if bad.any():
            k, at = self._first(bad)
            raise SingularMetricError(
                f"fundamental tensor is not positive definite at {at} "
                f"(min eigenvalue {low[k]:.3g})"
            )
        cond = eig[-1] / low
        bad = cond > COND_LIMIT
        if bad.any():
            k, at = self._first(bad)
            raise SingularMetricError(
                f"fundamental tensor is numerically singular at {at} "
                f"(condition number {cond[k]:.3g})"
            )
        return mat

    @_lazy
    def g_inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @_lazy
    def ginv_jets(self) -> Jet:
        """g^ij as an (n, n) stack of order-1 jets, from solving g X = identity
        in the jet ring."""
        n = self.n
        self.g  # run the conditioning guard first
        return jet_solve(self.g_jets, Jet.constant(2 * n, 1, np.eye(n)))

    @_lazy
    def ell(self) -> np.ndarray:
        """The unit covector, first fiber derivatives of L."""
        return np.ascontiguousarray(self.L_jet.coeffs[..., 1 + self.n:1 + 2 * self.n])

    @_lazy
    def phi(self) -> np.ndarray:
        """Projector onto the g-orthogonal complement of the tautological field."""
        outer = self._y()[..., :, None] * self.ell[..., None, :]
        return np.eye(self.n) - outer / np.reshape(self.L, self._lead + (1, 1))

    @_lazy
    def C3(self) -> np.ndarray:
        """All-lower Cartan tensor, C_ijk = half the fiber derivative of g_ij."""
        return np.ascontiguousarray(0.5 * self.g_jets.coeffs[..., 1 + self.n:1 + 2 * self.n])

    @_lazy
    def Cmix(self) -> np.ndarray:
        """C^i_jk, the Cartan tensor with the first index raised."""
        return np.einsum("...is,...sjk->...ijk", self.g_inv, self.C3)

    # -- spray and nonlinear connection ------------------------------------

    @_lazy
    def G_jets(self) -> Jet:
        """Spray coefficients G^i as an (n,) stack of order-2 jets.

        Solves 2 g_ml G^l = y^k (d_k dy_m E) - d_m E, the chart form of the
        geodesic equation i_S(d d_J E) = -d E.
        """
        n = self.n
        y = Jet.variable(2 * n, 2, range(n, 2 * n), self._y()[..., None, :])
        # [..., m, k] = y^k d_k dy_m E
        terms = y * self._E_dy.partial_jet(range(n))
        # column 0 also takes -d_m E, so the row sums are the right-hand side
        terms.coeffs[..., 0, :] -= self.E_jet.partial_jet(range(n)).truncated(2).coeffs
        self.g  # conditioning guard
        return jet_solve(self.g_jets, (0.5 * terms.sum_last())[..., None, :])[..., 0, :]

    @_lazy
    def G(self) -> np.ndarray:
        return self.G_jets.value.copy()

    @_lazy
    def N_jets(self) -> Jet:
        """Nonlinear connection N^i_j = fiber derivative of the spray, an
        (n, n) stack of order-1 jets."""
        return self.G_jets.partial_jet(range(self.n, 2 * self.n))

    @_lazy
    def N(self) -> np.ndarray:
        return self.N_jets.value.copy()

    # -- horizontal derivatives --------------------------------------------

    def delta_values(self, jet: Jet) -> np.ndarray:
        """Values of the horizontal derivatives delta_k of a jet quantity,
        every direction k at once as a trailing axis."""
        n = self.n
        c = jet.coeffs
        N = self._against(self.N, c.ndim + 1)
        out = c[..., 1:1 + n]
        for m in range(n):
            out = out - N[..., m, :] * c[..., 1 + n + m, None]
        return out

    def delta_jets(self, jet: Jet) -> Jet:
        """Horizontal derivatives delta_k of a jet quantity as jets, every
        direction k at once as a trailing tensor axis; the order drops by one
        (and is capped by the nonlinear connection's jet order)."""
        n = self.n
        dy = jet.partial_jet(range(n, 2 * n))  # [..., m] = dy_m
        # [..., k, m] = N^m_k dy_m
        Nt = self._against(self.N_jets.coeffs.swapaxes(-3, -2), dy.coeffs.ndim + 1)
        terms = Jet(2 * n, 1, Nt) * dy[..., None, :, :]
        out = jet.partial_jet(range(n))
        for m in range(n):
            out = out - terms[..., m, :]
        return out

    # -- linear connection ---------------------------------------------------

    @_lazy
    def _dg_jets(self) -> Jet:
        """delta_j g_sk as an (n, n, n) stack of order-1 jets, indexed [s, k, j]."""
        return self.delta_jets(self.g_jets)

    @_lazy
    def F_jets(self) -> Jet:
        """Horizontal connection coefficients F^i_jk as an (n, n, n) stack of
        order-1 jets, 1/2 g^is (delta_j g_sk + delta_k g_js - delta_s g_jk)."""
        n = self.n
        dg = self._dg_jets.coeffs  # [..., s, k, j] = delta_j g_sk
        # [..., s, j, k]: delta_j g_sk + delta_k g_js - delta_s g_jk
        col = dg.swapaxes(-3, -2) + dg.swapaxes(-4, -3) - dg.swapaxes(-4, -2).swapaxes(-3, -2)
        col = Jet(2 * n, 1, self._against(col, col.ndim + 1))  # [..., 1, s, j, k]
        terms = self.ginv_jets[..., None, None, :] * col  # [..., i, s, j, k]
        return 0.5 * Jet(2 * n, 1, np.moveaxis(terms.coeffs, -4, -2)).sum_last()

    @_lazy
    def F(self) -> np.ndarray:
        return self.F_jets.value.copy()

    # -- curvature ------------------------------------------------------------

    @_lazy
    def Rhat(self) -> np.ndarray:
        """vh-torsion R^i_jk of the nonlinear connection (fiber components of
        the horizontal bracket defect)."""
        dN = self.delta_values(self.N_jets)  # [..., i, j, k] = delta_k N^i_j
        return antisymmetric(dN)

    @_lazy
    def hcurv(self) -> np.ndarray:
        """Horizontal curvature tensor R^i_hjk, contravariant slot first."""
        dF = self.delta_values(self.F_jets)  # [..., i, h, k, j] = delta_j F^i_hk
        F = self.F
        out = -np.swapaxes(dF, -1, -2) + dF
        out -= np.einsum("...mhk,...imj->...ihjk", F, F)
        out += np.einsum("...mhj,...imk->...ihjk", F, F)
        out += np.einsum("...mjk,...ihm->...ihjk", self.Rhat, self.Cmix)
        return out

    @_lazy
    def ricci(self) -> np.ndarray:
        """Trace of the horizontal curvature on its first and last slots."""
        return np.einsum("...ihji->...jh", self.hcurv)

    @_lazy
    def scalar(self) -> float:
        sc = np.einsum("...jh,...jh->...", self.g_inv, self.ricci)
        return sc if self._lead else float(sc)

    # -- scalar fields on the frame -------------------------------------------

    def field_jet(self, fn, order: int) -> Jet:
        """Jet of a scalar field (x, y) -> value at this frame's point, or one
        stacked jet over the points of a batch, cached and read-only."""
        key = (fn, order)
        jet = self._field_jets.get(key)
        if jet is None:
            jet = located_jet_eval(fn, self.point, order)
            _freeze(jet)
            self._field_jets[key] = jet
        return jet


def located_jet_eval(fn, points, order: int, float_fn=None) -> Jet:
    """jet_eval(fn, points, order) at a chart point or a tuple of them. If it
    raises a NumericalError or an ArithmeticError, `float_fn` (default `fn`)
    runs on floats point by point, and the first point that raises re-raises
    its own error, naming the point; if none does, the stacked error stands.
    `jet_eval` is read from this module at each call."""
    try:
        return jet_eval(fn, points, order)
    except (NumericalError, ArithmeticError) as exc:
        for p in points if isinstance(points, tuple) else (points,):
            try:
                (float_fn or fn)(p.x, p.y)  # a non-finite value is jet_eval's error
            except (NumericalError, ArithmeticError) as alone:
                raise type(alone)(f"{alone} at {p}") from exc
        raise


def point_frame(structure, point) -> PointFrame:
    """The frame of a structure at a chart point, or over a tuple of them:
    a function of its own, so that rebinding it leaves the class alone."""
    return PointFrame(structure, point)


# -- per-point arithmetic over a frame's leading axes ----------------------------
#
# Each helper works on one point's tensors or on a stack with leading point
# (or probe) axes, and gives every point the bits of the single-point numpy
# expression it names: a stacked matmul runs the same BLAS kernel per point,
# while a sum over the last axis or an einsum for a dot product may add in
# another order.


def antisymmetric(t):
    """t[..., j, k] - t[..., k, j] of each point's square matrices, computed
    once per pair j < k and negated below the diagonal, with +0.0 on it (so
    an entry below the diagonal is -0.0 where the pair's entries are equal,
    unlike t - t.T)."""
    n = t.shape[-1]
    out = np.zeros(t.shape)
    for j in range(n):
        for k in range(j + 1, n):
            v = t[..., j, k] - t[..., k, j]
            out[..., j, k] = v
            out[..., k, j] = -v
    return out


def _plain(value):
    """A 0-d result as a Python float; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


def matvec(A, v):
    """A @ v for each point: (..., n, n) matrices times (..., n) vectors."""
    return np.matmul(A, v[..., None])[..., 0]


def dot(u, v):
    """u @ v for each point, of (..., n) vectors."""
    return _plain(np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0])


def quad(u, A, v):
    """u @ A @ v for each point, evaluated left to right as written."""
    return _plain(np.matmul(np.matmul(u[..., None, :], A), v[..., :, None])[..., 0, 0])


def max_abs(a, ndim: int):
    """np.max(np.abs(t)) of each point's tensor t, the last `ndim` axes of a."""
    return _plain(np.abs(a).max(axis=tuple(range(-ndim, 0))))


def pymax(first, *rest):
    """The builtin max(first, *rest) at each point: a later value replaces the
    running one only where it is greater, so a NaN never replaces it."""
    out = first
    for value in rest:
        out = np.where(value > out, value, out)
    return _plain(out)
