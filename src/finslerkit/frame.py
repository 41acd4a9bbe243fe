"""Derivative tower for a Finsler structure over a batch of chart points.

A PointFrame owns every chart quantity at its points (x, y): the energy jet,
the fundamental tensor, the geodesic spray, the nonlinear connection,
the linear connection coefficients, and their horizontal derivatives.
Everything is computed lazily and cached, so cheap consumers (say, a
metric check) never pay for curvature. The two rungs that solve with g,
`ginv_jets` and `G_jets`, run `jets.jet_solve` on `g_inv`, which reads `g`
and so its conditioning guard first; `ginv_jets.value` is `g_inv`.

Index layout: variable slots 0..n-1 are x, slots n..2n-1 are y. All
tensor arrays are indexed with the contravariant slot first, so N[i, j]
is N^i_j and F[i, j, k] is F^i_jk with lower indices (j, k). The jet rungs
are stacked Jets in the same layout, with the graded coefficient table as
the trailing axis: `N_jets[i, j]` is the jet of N^i_j, and `N_jets.dy`
holds dy_k N^i_j at [..., i, j, k]. Each rung is built with one jet
operation per tensor rather than one per component. The value arrays are
C-contiguous, as einsum may sum in another order over another memory layout.

Every frame is a batch: `PointFrame(structure, points)` on a tuple of chart
points puts a leading point axis before the tensor axes of every array and
jet rung, and slice i of each equals the quantity of a frame on
`(points[i],)` alone, bit for bit. A bare chart point is the batch of one
`(point,)`; only the `scalar` of such a frame reads out a Python float.
There is no frame cache: whoever builds a frame owns it, and
`checks.run_checks` builds the batch frame of its sample once and hands it
to every check. The calculus modules (`picalc`, `connections`, `curvature`)
take the frame they compute on. Where a batch cannot compute a quantity at
every point (a point outside the positivity cone, a singular metric), the
quantity raises for the whole batch, with an error that names the point it
failed at (through `located_jet_eval` for a field, and in `E_jet` for a
numpy overflow of L^2).

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
from . import jets
from .jets import MAX_ORDER, Jet, jet_eval

COND_LIMIT = 1e12


def _freeze(value) -> None:
    """Mark an ndarray value, or a Jet's coefficient array, read-only."""
    if isinstance(value, Jet):
        value = value.coeffs
    if isinstance(value, np.ndarray):
        value.setflags(write=False)


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
    """All chart quantities of one structure at each admissible point of a
    tuple of them, with a leading point axis; a bare point is a tuple of one."""

    def __init__(self, structure, point):
        self._bare = not isinstance(point, tuple)  # `scalar` reads out a float
        point = (point,) if self._bare else point
        for p in point:
            if p.n != structure.n:
                raise ValueError(
                    f"point dimension {p.n} != structure dimension {structure.n}"
                )
            if not structure.domain(p.x, p.y):
                raise DomainError(f"{p} is outside the domain of {structure.name}")
        self.structure = structure
        self.point = point
        self.n = structure.n
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
        k = int(np.argmax(bad.reshape(len(self.point), -1).any(-1)))
        return k, self.point[k]

    @staticmethod
    def _against(arr: np.ndarray, ndim: int) -> np.ndarray:
        """A tensor over a frame's points, reshaped to broadcast against
        `ndim`-axis arrays that share its point axis: ones are inserted
        between the point axis and the tensor axes."""
        return arr.reshape(arr.shape[:1] + (1,) * (ndim - arr.ndim) + arr.shape[1:])

    # -- scalars ---------------------------------------------------------

    @_lazy
    def L_jet(self) -> Jet:
        L = self.structure.L

        def in_cone(x, y):  # the float pass: the first failing point may be outside the cone
            value = L(x, y)
            if value <= 0.0:
                raise _outside_cone(value, ChartPoint(x, y))

        if self._base is None:
            fn = L
        else:  # the float pass still runs the change's own Lagrangian
            lift, base = self.structure.meta["lift"], self._base.L_jet
            fn = lambda x, y: lift(x, y, base)
        jet = located_jet_eval(fn, self.point, MAX_ORDER, in_cone)
        value = jet.coeffs.T[0]
        bad = value <= 0.0
        if bad.any():
            k, at = self._first(bad)
            raise _outside_cone(value[k], at)
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
    def L(self) -> np.ndarray:
        return self.L_jet.value

    @property
    def E(self) -> np.ndarray:
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
        in the jet ring; its value part is `g_inv`."""
        eye = Jet.constant(2 * self.n, 1, np.eye(self.n))
        return jets.jet_solve(self.g_jets, eye, self.g_inv)

    @_lazy
    def y(self) -> np.ndarray:
        """The fiber coordinates y^i of the frame's points."""
        return np.array([p.y for p in self.point])

    @_lazy
    def ell(self) -> np.ndarray:
        """The unit covector, first fiber derivatives of L."""
        return np.ascontiguousarray(self.L_jet.dy)

    @_lazy
    def phi(self) -> np.ndarray:
        """Projector onto the g-orthogonal complement of the tautological field."""
        outer = self.y[..., :, None] * self.ell[..., None, :]
        return np.eye(self.n) - outer / self.L[:, None, None]

    def flat_jets(self, Xj: Jet) -> Jet:
        """Order-1 jets of X flat = i_X g, w_k = g_km X^m, from those of X."""
        return (self.g_jets.truncated(1) * Xj[..., None, :, :]).sum_last()

    def sharp_jets(self, wj: Jet) -> Jet:
        """Order-1 jets of w sharp, X^i = g^ik w_k, from those of a 1-form w."""
        return (self.ginv_jets * wj[..., None, :, :]).sum_last()

    @_lazy
    def C3(self) -> np.ndarray:
        """All-lower Cartan tensor, C_ijk = half the fiber derivative of g_ij."""
        return np.ascontiguousarray(0.5 * self.g_jets.dy)

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
        y = Jet.variable(2 * n, 2, range(n, 2 * n), self.y[..., None, :])
        # [..., m, k] = y^k d_k dy_m E
        terms = y * self._E_dy.partial_jet(range(n))
        # column 0 also takes -d_m E, so the row sums are the right-hand side
        terms.coeffs[..., 0, :] -= self.E_jet.partial_jet(range(n)).truncated(2).coeffs
        rhs = (0.5 * terms.sum_last())[..., None, :]
        return jets.jet_solve(self.g_jets, rhs, self.g_inv)[..., 0, :]

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
        every direction k at once as a trailing axis: the bits of
        `delta_jets(jet.truncated(1)).value`, which cost 6-7% more to read on a
        1000-point sphere2 run_checks and on a single-point Sc stream."""
        dy = jet.dy
        N = self._against(self.N, dy.ndim + 1)
        out = jet.dx
        for m in range(self.n):
            out = out - N[..., m, :] * dy[..., m, None]
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
    def scalar(self):
        """Scalar curvature g^jh Ric_jh per point; on a frame built on a bare
        chart point, the Python float of its one point."""
        sc = np.einsum("...jh,...jh->...", self.g_inv, self.ricci)
        return float(sc[0]) if self._bare else sc

    # -- scalar fields on the frame -------------------------------------------

    def field_jet(self, fn, order: int) -> Jet:
        """Jet of a scalar field (x, y) -> value, one stacked jet over the
        frame's points, cached and read-only."""
        key = (fn, order)
        jet = self._field_jets.get(key)
        if jet is None:
            jet = located_jet_eval(fn, self.point, order)
            _freeze(jet)
            self._field_jets[key] = jet
        return jet


def _outside_cone(value, at) -> DomainError:
    """L_jet's error at the chart point `at`, where L takes `value` <= 0."""
    return DomainError(f"Lagrangian is {value:.3g} <= 0 at {at}; "
                       "point lies outside the positivity cone")


def located_jet_eval(fn, points, order: int, float_fn=None) -> Jet:
    """jet_eval(fn, points, order) at a tuple of chart points. If it
    raises a NumericalError or an ArithmeticError, `float_fn` (default `fn`)
    runs on floats point by point, and the first point that raises re-raises
    its own error, naming the point; if none does, the stacked error stands.
    Any other error of `float_fn` (L_jet's cone error, which names its point
    itself) passes through. `jet_eval` is read from this module at each call."""
    try:
        return jet_eval(fn, points, order)
    except (NumericalError, ArithmeticError) as exc:
        for p in points:
            try:
                (float_fn or fn)(p.x, p.y)  # a non-finite value is jet_eval's error
            except (NumericalError, ArithmeticError) as alone:
                raise type(alone)(f"{alone} at {p}") from exc
        raise


def point_frame(structure, point) -> PointFrame:
    """The frame of a structure over a tuple of chart points, or a bare one:
    a function of its own, so that rebinding it leaves the class alone."""
    return PointFrame(structure, point)


# -- per-point arithmetic over a frame's leading axes ----------------------------
#
# Each helper works on a stack with leading point (or probe) axes, and gives
# every point the bits of the numpy expression it names on that point's
# tensors alone: a stacked matmul runs the same BLAS kernel per point, while
# a sum over the last axis or an einsum for a dot product may add in another
# order.


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


def matvec(A, v):
    """A @ v for each point: (..., n, n) matrices times (..., n) vectors."""
    return np.matmul(A, v[..., None])[..., 0]


def dot(u, v):
    """u @ v for each point, of (..., n) vectors."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def quad(u, A, v):
    """u @ A @ v for each point, evaluated left to right as written."""
    return np.matmul(np.matmul(u[..., None, :], A), v[..., :, None])[..., 0, 0]


def max_abs(a, ndim: int):
    """np.max(np.abs(t)) of each point's tensor t, the last `ndim` axes of a."""
    return np.abs(a).max(axis=tuple(range(-ndim, 0)))


def pymax(first, *rest):
    """The builtin max(first, *rest) at each point: a later value replaces the
    running one only where it is greater, so a NaN never replaces it."""
    out = first
    for value in rest:
        out = np.where(value > out, value, out)
    return out
