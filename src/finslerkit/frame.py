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
the trailing axis: `N_jets[i, j]` is the jet of N^i_j. Each rung is built
with one jet operation per tensor rather than one per component. The
value arrays are C-contiguous, as einsum may sum in another order over
another memory layout.

A frame may also hold a batch: `PointFrame(structure, points)` with a
tuple of chart points puts a leading point axis before the tensor axes of
every array and jet rung, computed by the same code; `point_frame` with a
tuple memoizes one such frame, and the checks run on it. `point_frames` builds
one batch over the uncached points of a sample and hands out per-point
frames whose attributes and field jets are slices of the batch's, read on
first access and equal to a standalone frame's bit for bit. Where the batch
cannot compute a quantity at every point (a point outside the positivity
cone, a singular metric), each of its frames computes that quantity alone,
and raises what it raises alone.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from operator import attrgetter

import numpy as np

from .chart import ChartPoint
from .errors import DomainError, FinslerError, SingularMetricError
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
    and puts the scaled pivot row back. Columns of A at or left of the pivot
    are never read again.
    """
    n = A.coeffs.shape[-2]
    a = A.coeffs[..., :B.coeffs.shape[-1]]  # A truncated to the order of B
    b = B.coeffs
    if a.shape[:-3] != b.shape[:-3]:
        b = np.broadcast_to(b, a.shape[:-3] + b.shape[-3:])
    rows = Jet(B.nvars, B.order, np.concatenate([a, b], axis=-2))
    one = rows.coeffs.ndim == 3  # a single system
    for col in range(n):
        c = rows.coeffs
        piv = col + np.abs(c.T[0, col, col:]).argmax(0).T  # over the leading axes
        if one:
            if abs(c[piv, col, 0]) < _PIVOT_FLOOR:
                raise SingularMetricError("singular jet system: zero pivot")
            if piv != col:
                c[[col, piv]] = c[[piv, col]]
        else:
            at = np.indices(piv.shape, sparse=True)
            if np.any(np.abs(c[(*at, piv, col, 0)]) < _PIVOT_FLOOR):
                raise SingularMetricError("singular jet system: zero pivot")
            swap = np.nonzero(piv != col)
            if swap[0].size:
                top, low = swap + (col,), swap + (piv[swap],)
                c[top], c[low] = c[low], c[top]
        inv = 1.0 / rows[..., col, col, :]
        pivot_row = rows[..., col, :, :] * (inv if one else inv[..., None, :])
        factor = rows[..., :, col, None, :]
        rows = rows - factor * (pivot_row if one else pivot_row[..., None, :, :])
        rows.coeffs[..., col, :, :] = pivot_row.coeffs
    return rows[..., n:, :]


# What a batch may raise because of some of its points; each of its frames
# then computes that quantity alone.
_BATCH_ERRORS = (FinslerError, ArithmeticError)


def _freeze(value) -> None:
    """Mark an ndarray value, or a Jet's coefficient array, read-only."""
    if isinstance(value, Jet):
        value = value.coeffs
    if isinstance(value, np.ndarray):
        value.flags.writeable = False


class _lazy:
    """A frame quantity computed by `func` on first access and stored in the
    instance __dict__, which then answers every later read.

    Its value is read-only (`_freeze`): frames are shared through the frame
    cache, so no reader may write into one. A frame from `point_frames`
    takes its slice of the batch's value instead of calling `func`, unless
    the batch cannot compute it; a batch keeps the error of a quantity it
    cannot compute and raises it again on the next access. `func` is looked
    up at call time.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name
        self.read = attrgetter(name)

    def __get__(self, frame, owner=None):
        if frame is None:
            return self
        if frame._failed and self.name in frame._failed:
            raise frame._failed[self.name]
        value = frame._batch_part(self.name, self.read) if frame._batch else None
        if value is None:
            try:
                value = self.func(frame)
            except _BATCH_ERRORS as exc:
                if frame._lead:
                    frame._failed[self.name] = exc
                raise
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
        # set by point_frames on the frames of a batch
        self._batch = None
        self._index = None
        # on a batch: the error of each quantity it cannot compute at every point
        self._failed = {}

    def _batch_part(self, key, read):
        """This frame's slice of `read(batch)`, or None when the batch cannot
        compute it at every point (the frame then computes it alone)."""
        batch = self._batch
        if key in batch._failed:
            return None
        try:
            whole = read(batch)
        except _BATCH_ERRORS as exc:
            batch._failed[key] = exc
            return None
        if isinstance(whole, Jet):
            return Jet(whole.nvars, whole.order, whole.coeffs[self._index])
        part = whole[self._index]
        return float(part) if part.ndim == 0 else part

    def _first(self, bad):
        """Index and chart point of the first point where `bad` holds."""
        if not self._lead:
            return (), self.point
        k = int(np.argmax(bad))
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
        jet = jet_eval(self.structure.L, self.point, MAX_ORDER)
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
        return 0.5 * (self.L_jet * self.L_jet)

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
        acc = terms[..., 0, :] - self.E_jet.partial_jet(range(n))  # == -d_m E + terms[..., 0]
        for k in range(1, n):
            acc = acc + terms[..., k, :]
        self.g  # conditioning guard
        return jet_solve(self.g_jets, (0.5 * acc)[..., None, :])[..., 0, :]

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
        acc = terms[..., 0, :, :, :]
        for s in range(1, n):
            acc = acc + terms[..., s, :, :, :]
        return 0.5 * acc

    @_lazy
    def F(self) -> np.ndarray:
        return self.F_jets.value.copy()

    # -- curvature ------------------------------------------------------------

    @_lazy
    def Rhat(self) -> np.ndarray:
        """vh-torsion R^i_jk of the nonlinear connection (fiber components of
        the horizontal bracket defect)."""
        n = self.n
        dN = self.delta_values(self.N_jets)  # [..., i, j, k] = delta_k N^i_j
        arr = np.zeros(dN.shape)
        for j in range(n):
            for k in range(j + 1, n):
                val = dN[..., j, k] - dN[..., k, j]
                arr[..., j, k] = val
                arr[..., k, j] = -val
        return arr

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
        """Jet of a scalar field (x, y) -> value at this frame's point, cached
        and read-only. A frame of a batch reads its slice of one stacked
        `jet_eval` of `fn` over the whole batch."""
        key = (fn, order)
        jet = self._field_jets.get(key)
        if jet is None:
            if self._batch:
                jet = self._batch_part(key, lambda batch: batch.field_jet(fn, order))
            if jet is None:
                jet = jet_eval(fn, self.point, order)
                _freeze(jet)
            self._field_jets[key] = jet
        return jet


# -- the frame cache ------------------------------------------------------------

# Frame slots, least recently used first. Structures hash by identity and
# points by value; a batch fills one slot per point.
_CACHE_SLOTS = 4096
_frames: OrderedDict = OrderedDict()


def _remember(key, frame: PointFrame) -> None:
    _frames[key] = frame
    if len(_frames) > _CACHE_SLOTS:
        _frames.popitem(last=False)


def point_frame(structure, point) -> PointFrame:
    """Shared, memoized frame lookup; structures hash by identity and points
    by value, so repeated checks at one point reuse the whole tower. A tuple
    of chart points gives one batch frame over all of them, with a leading
    point axis, in one cache slot."""
    key = (structure, point)
    frame = _frames.get(key)
    if frame is None:
        frame = PointFrame(structure, point)
        _remember(key, frame)
    else:
        _frames.move_to_end(key)
    return frame


point_frame.cache_clear = _frames.clear  # as on the lru_cache it replaces


def point_frames(structure, points) -> list:
    """The cached frames of `structure` at `points`, as `point_frame` gives
    them. The points not cached yet share one batch frame: each new frame's
    quantities and field jets are its slices of the batch's, computed once
    for all of them on first access. A point without a frame (outside the
    domain, or of another dimension) is skipped, and `point_frame` raises
    for it as for any such point. The batch lives as long as any of its
    frames."""
    frames, fresh = [], []
    for p in points:
        key = (structure, p)
        frame = _frames.get(key)
        if frame is None:
            try:
                frame = PointFrame(structure, p)
            except (ValueError, DomainError):
                continue
            _remember(key, frame)
            fresh.append(frame)
        frames.append(frame)
    if len(fresh) > 1:
        batch = PointFrame(structure, tuple(frame.point for frame in fresh))
        for i, frame in enumerate(fresh):
            frame._batch, frame._index = batch, i
    return frames


@contextmanager
def local_batch(structure, points):
    """The batch frame `point_frame(structure, tuple(points))` for the length
    of a block: it leaves the cache when the block exits, so a check's own
    structures and points do not outlive the check."""
    key = (structure, tuple(points))
    frame = point_frame(*key)
    try:
        yield frame
    finally:
        if _frames.get(key) is frame:
            del _frames[key]


# -- per-point arithmetic over a frame's leading axes ----------------------------
#
# Each helper works on one point's tensors or on a stack with leading point
# (or probe) axes, and gives every point the bits of the single-point numpy
# expression it names: a stacked matmul runs the same BLAS kernel per point,
# while a sum over the last axis or an einsum for a dot product may add in
# another order.


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
