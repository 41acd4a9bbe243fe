"""Truncated multivariate jet arithmetic over the 2n chart variables.

A jet table holds the raw partial derivatives (not Taylor coefficients) of
a smooth function at one point, for every multi-index of total degree up to
`order`. The multi-index table is graded by degree, so the table of a
lower order is always a prefix of a higher one; truncation is a slice and
mixed-partial symmetry is structural (one slot per sorted multi-index).
Slot 0 is the value, then the first partials, x first (`Jet.dx`, `Jet.dy`).

A Jet holds a stack of such tables: `coeffs` has shape (..., T), leading
axes and the graded table of length T last. Ring operations broadcast over
the leading axes and `jet[i]` is the sub-jet as a view, so one operation
serves every component of a tensor, and every point of a sample when the
leading axis runs over points (vector Taylor propagation, Griewank &
Walther, *Evaluating Derivatives*, ch. 13). `jet_eval` evaluates a field
once on stacked coordinate jets at a sequence of chart points, one point
being a sequence of one, and names the point where the evaluation fails.

Products use the Leibniz rule in raw-derivative form,

    d^g (u v) = sum_{a <= g} C(g, a) d^a u d^{g-a} v,

with the binomial weights precomputed per (nvars, order). Each output slot
sums its terms in one fixed order whatever the stack shape, so a stacked
product equals the component-wise products bit for bit. The terms are
summed in one of two ways. One output row and a small stack add them with
one `np.bincount` over the output slots. A large stack is multiplied
coefficient-major, as vector Taylor propagation keeps its direction axis:
the table axis goes first and each term of a slot program is one
contiguous row over all points and components. One output row and a large
stack are also support-aware, as vector Taylor propagation carries the
sparsity of its seeds: a term runs only when both of its operand columns
are nonzero (somewhere in the stack, for a large one), which drops most of
the work for Lagrangians built from x-only factors, y-only polynomials and
constants.
Transcendental functions go through Taylor composition in the jet ring, so
everything is exact to round-off for the smooth closed-form fields used
here; a stack's Taylor coefficients are built per degree over all its value
parts, from the same Python float seeds and IEEE operations for every
value part, so a stacked function equals the component-wise results bit for
bit too.

The module also carries the jet linear solve (`jet_solve`) and the
finite-difference oracle (`fd_partial`) that certifies jet output in tests.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .chart import ChartPoint
from .errors import CapabilityError, NumericalError

MAX_ORDER = 4


@lru_cache(maxsize=None)
def index_table(nvars: int, order: int):
    """(multi-index tuple list, position dict) graded by total degree."""
    idx = []
    for deg in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), deg):
            mi = [0] * nvars
            for v in combo:
                mi[v] += 1
            idx.append(tuple(mi))
    pos = {mi: i for i, mi in enumerate(idx)}
    return tuple(idx), pos


@lru_cache(maxsize=None)
def _mul_program(nvars: int, order: int):
    table, pos = index_table(nvars, order)
    io, ia, ib, w = [], [], [], []
    for gi, gamma in enumerate(table):
        for alpha in itertools.product(*[range(g + 1) for g in gamma]):
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            weight = 1.0
            for g, a in zip(gamma, alpha):
                weight *= math.comb(g, a)
            io.append(gi)
            ia.append(pos[alpha])
            ib.append(pos[beta])
            w.append(weight)
    return (
        np.asarray(io, dtype=np.intp),
        np.asarray(ia, dtype=np.intp),
        np.asarray(ib, dtype=np.intp),
        np.asarray(w, dtype=np.float64),
        len(table),
    )


# One program per support pair: a stream of one-point Sc queries over the 7
# catalog metrics meets 67 in its one-row products, and each `_live_program`
# reads one. The bound keeps a long-lived process from growing with every
# pair it ever meets.
@lru_cache(maxsize=256)
def _point_program(nvars: int, order: int, live_a: bytes, live_b: bytes):
    """`_mul_program` without the terms whose column is dead in `live_a` or
    `live_b` (bool-array bytes, one entry per column), in program order."""
    io, ia, ib, w, size = _mul_program(nvars, order)
    live = np.frombuffer(live_a, dtype=bool)[ia] & np.frombuffer(live_b, dtype=bool)[ib]
    return io[live], ia[live], ib[live], w[live], size


# One program per support pair of a large stack: a 1000-point sweep of
# sphere2 builds 30, of minkowski_quartic3 46. Bounded as `_point_program` is.
@lru_cache(maxsize=256)
def _live_program(nvars: int, order: int, live_a: bytes, live_b: bytes):
    """The `_point_program` of the supports `live_a` and `live_b`,
    coefficient-major.

    A column is live when it is nonzero in some row of the stack. Returns
    the slots sorted by falling live-term count (stable) and, for each
    column c, (k_c, ia, ib, w) over the k_c leading slots that have a c-th
    live term, in `_mul_program` order, so column c updates a prefix of the
    sorted slots. Slots with no live term come last and are never updated.
    Full support gives every term of every slot, without padding.
    """
    io, ia, ib, w, size = _point_program(nvars, order, live_a, live_b)
    counts = np.bincount(io, minlength=size)
    first = np.cumsum(counts) - counts  # io is sorted: a slot's terms are contiguous
    perm = np.argsort(-counts, kind="stable")
    columns = []
    for c in range(counts.max()):
        t = first[perm[: np.count_nonzero(counts > c)]] + c
        columns.append((t.size, ia[t], ib[t], w[t, None]))
    return perm, tuple(columns)


# From this much work, the S output rows times the `_mul_program` terms, a
# stacked product runs coefficient-major. Bincount time over
# coefficient-major time for (S, T) operands, dense or an x-only times a
# y-only one, by work (median of 3 runs; 2 cores, numpy 2.4):
#
#   nvars order terms | dense 5e3  1e4  2e4  4e4  1e5 | x*y 5e3  1e4  2e4  4e4  1e5
#     4     2     45  |       0.6  0.6  1.8  1.8  2.1 |     0.8  1.3  1.6  1.7  4.0
#     4     3    165  |       0.4  0.6  0.9  1.1  2.6 |     0.9  1.6  2.1  3.1  7.1
#     4     4    495  |       0.2  0.4  0.6  0.9  2.6 |     0.9  1.6  2.5  4.0 11.8
#     6     2     91  |       0.5  0.8  1.0  1.2  2.2 |     0.9  1.3  1.8  2.4  4.7
#     6     3    455  |       0.3  0.5  0.8  1.1  2.8 |     0.9  1.3  2.2  3.5  9.4
#     6     4   1820  |       0.2  0.3  0.6  0.8  2.5 |     0.9  1.3  2.5  3.8 11.0
#
# Dense operands break even from 1e4-2e4 (order 2) to 4e4-1e5 (order 4),
# sparse ones at 5e3-1e4; 2e4 splits the loss. A frame on one point stays
# far below it (nine order-2 rows over 6 variables are 819), a 1000-point
# sample above it (1000 order-2 rows over 4 variables are 45,000).
_COEFFICIENT_MAJOR_WORK = 20_000


def _leibniz(nvars: int, order: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays of one order, broadcast over their
    leading axes.

    Every slot adds its terms (w a[ia]) b[ib] in `_mul_program` order onto a
    +0.0 start, as `np.bincount` does, so a stacked product equals the
    scalar products bit for bit, down to the sign of a zero. Order 1 has the
    closed form (0 + a0 b_k) + a_k b0. Above it the terms are summed one of
    two ways. By bincount: one output row (a product at one point, whatever
    its operands' leading ones) runs the `_point_program` of the nonzero
    masks on the flat tables, and a small stack runs every term of every row
    in one bincount over the row-offset slots io + T row. Coefficient-major, for a large
    stack: both operands become (T, S) arrays over the S output rows, their
    supports (`any` along the rows) pick the `_live_program`, and its column
    c adds the contiguous rows (w_c A[ia_c]) B[ib_c] onto the first k_c
    sorted slots; a slot with no live term stays +0.0. Skipping the terms
    with a dead column changes no bit for finite operands: such a term adds
    +-0.0 to a sum that is never -0.0.
    """
    if order <= 1:
        out = a[..., :1] * b + 0.0
        tail = out[..., 1:]
        tail += a[..., 1:] * b[..., :1]
        return out
    if a.size == b.size == a.shape[-1]:  # one output row, read flat
        io, ia, ib, w, size = _point_program(nvars, order, (a != 0.0).tobytes(),
                                             (b != 0.0).tobytes())
        out = np.bincount(io, weights=w * a.ravel()[ia] * b.ravel()[ib], minlength=size)
        return out.reshape(a.shape if a.ndim >= b.ndim else b.shape)
    io, ia, ib, w, size = _mul_program(nvars, order)
    lead = np.broadcast(a[..., 0], b[..., 0])
    if lead.size * io.size < _COEFFICIENT_MAJOR_WORK:
        terms = (w * a.take(ia, -1)) * b.take(ib, -1)
        slots = np.arange(0, lead.size * size, size)[:, None] + io
        out = np.bincount(slots.ravel(), weights=terms.ravel(), minlength=lead.size * size)
        return out.reshape(lead.shape + (size,))
    A, B = (np.moveaxis(np.broadcast_to(x, lead.shape + (size,)), -1, 0).reshape(size, -1)
            for x in (a, b))
    perm, columns = _live_program(nvars, order, A.any(axis=1).tobytes(), B.any(axis=1).tobytes())
    acc = np.zeros(A.shape)
    for k, ia_c, ib_c, w_c in columns:
        acc[:k] += (w_c * A[ia_c]) * B[ib_c]
    out = np.empty(acc.shape[::-1])
    out[:, perm] = acc.T
    return out.reshape(lead.shape + (size,))


def jet_solve(A: Jet, B: Jet, inv: np.ndarray) -> Jet:
    """Solve the jet-linear system A X = B, given the inverse `inv` of A's
    value matrices, which the caller computes behind its conditioning guard.

    A is an (..., n, n) stack of jets and B an (..., n, m) stack of the same
    or a lower order K, which A is truncated to; B broadcasts over A's
    leading axes (points). With C = inv B and M = inv (A - A_0), X = C - M X,
    and M has no value part, so the degree-d slots of M X read X below degree
    d only: X starts as C, and for d = 1..K its degree-d slots take away
    those of sum_j M_ij X_jm, an order-d product (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13). Each matmul runs once, per point, and
    the j sum adds in index order, so a stack's slice i is system i alone.
    """
    nvars, order, T = B.nvars, B.order, B.coeffs.shape[-1]
    a, b = A.coeffs[..., :T], B.coeffs  # A truncated to the order of B
    M = np.matmul(inv, a.reshape(a.shape[:-2] + (-1,))).reshape(a.shape)
    M[..., 0] = 0.0
    X = np.matmul(inv, b.reshape(b.shape[:-2] + (-1,)))
    X = X.reshape(X.shape[:-1] + b.shape[-2:])
    Xt = X.swapaxes(-3, -2)  # [..., m, j]
    for d in range(1, order + 1):
        lo, hi = _table_size(nvars, d - 1), _table_size(nvars, d)
        # [..., i, m, j] = M_ij X_jm, order d
        terms = Jet(nvars, d, M[..., :, None, :, :hi]) * Jet(nvars, d, Xt[..., None, :, :, :hi])
        X[..., lo:hi] -= terms.sum_last().coeffs[..., lo:hi]
    return Jet(nvars, order, X)


@lru_cache(maxsize=None)
def _shift_map(nvars: int, order: int, slots: tuple):
    """(len(slots), T') table: row r holds the positions in the order-`order`
    table of alpha + e_v for v = slots[r], alpha over the (order-1) table."""
    lo, _ = index_table(nvars, order - 1)
    _, pos_hi = index_table(nvars, order)
    return np.array([[pos_hi[alpha[:v] + (alpha[v] + 1,) + alpha[v + 1:]] for alpha in lo]
                     for v in slots], dtype=np.intp)


@lru_cache(maxsize=None)
def _table_size(nvars: int, order: int) -> int:
    return math.comb(nvars + order, order)


class Jet:
    """Raw-derivative jet of a scalar function at a point, or a stack of them.

    `coeffs` has shape (..., T): any leading axes (points, then tensor
    components), then the graded table. Readouts (`value`, `dx`, `dy`,
    `partial`) are arrays over the leading axes.
    """

    __slots__ = ("nvars", "order", "coeffs")
    __array_ufunc__ = None  # keep numpy scalars from absorbing us

    def __init__(self, nvars, order, coeffs):
        self.nvars = nvars
        self.order = order
        self.coeffs = coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape[-1:] != (_table_size(nvars, order),):
            raise ValueError("coefficient array does not match the index table")

    @classmethod
    def constant(cls, nvars, order, value):
        """Constant jet; an array `value` gives a stack of that shape."""
        c = np.zeros(getattr(value, "shape", ()) + (_table_size(nvars, order),))
        c[..., 0] = value
        return cls(nvars, order, c)

    @classmethod
    def variable(cls, nvars, order, slots, values):
        """Jets of the coordinate functions z_s for a sequence of slots s, at
        values of shape (..., len(slots)): a stack with the slots last."""
        if order < 1:
            raise ValueError("coordinate jets need order >= 1")
        slots = np.asarray(slots)
        values = np.asarray(values, dtype=np.float64)
        c = np.zeros(values.shape + (_table_size(nvars, order),))
        c[..., 0] = values
        c[..., np.arange(slots.size), 1 + slots] = 1.0
        return cls(nvars, order, c)

    @classmethod
    def stack(cls, jets) -> "Jet":
        """One stack of jets of one order: `out[..., i, :]` is `jets[i]`, so
        the new axis comes after the leading axes the jets share."""
        first = jets[0]
        return cls(first.nvars, first.order, np.stack([j.coeffs for j in jets], axis=-2))

    def __getitem__(self, key):
        """Sub-jet of a stack over its leading axes, sharing coefficients."""
        return Jet(self.nvars, self.order, self.coeffs[key])

    def sum_last(self) -> "Jet":
        """Sum of a stack over its last tensor axis, adding the terms in
        index order: ((t_0 + t_1) + t_2) + ..."""
        c = self.coeffs
        acc = c[..., 0, :]
        for k in range(1, c.shape[-2]):
            acc = acc + c[..., k, :]
        return Jet(self.nvars, self.order, acc)

    # -- readout ---------------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        return self.coeffs[..., 0]

    @property
    def dx(self) -> np.ndarray:
        """First partials along x, slots 0..n-1 of the 2n variables: an (..., n)
        view of the table, read-only where the table is (a frame's rungs)."""
        return self.coeffs[..., 1:1 + self.nvars // 2]

    @property
    def dy(self) -> np.ndarray:
        """First partials along y, slots n..2n-1: an (..., n) view, as `dx`."""
        return self.coeffs[..., 1 + self.nvars // 2:1 + self.nvars]

    def partial(self, multi):
        """Raw partial derivative for a full multi-index (length nvars)."""
        multi = tuple(int(m) for m in multi)
        if len(multi) != self.nvars:
            raise ValueError("multi-index length must equal nvars")
        if sum(multi) > self.order:
            raise CapabilityError(
                f"degree {sum(multi)} exceeds stored jet order {self.order}"
            )
        _, pos = index_table(self.nvars, self.order)
        return self.coeffs[..., pos[multi]]

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise CapabilityError("cannot extend a jet to higher order")
        if order == self.order:
            return self
        return Jet(self.nvars, order, self.coeffs[..., : _table_size(self.nvars, order)])

    def partial_jet(self, slots) -> "Jet":
        """Jets of the partial derivatives along a sequence of variable slots,
        one order lower, on a new last tensor axis: `out[..., s, :]` is the
        partial along `slots[s]`."""
        if self.order < 1:
            raise CapabilityError("order-0 jet has no derivatives")
        sm = _shift_map(self.nvars, self.order, tuple(slots))
        return Jet(self.nvars, self.order - 1, self.coeffs.take(sm, -1))

    # -- ring operations -------------------------------------------------

    def _mat(self, other):
        if other.nvars != self.nvars:
            raise ValueError("jets live over different variable sets")
        if other.order == self.order:
            return self.order, self.coeffs, other.coeffs
        k = min(self.order, other.order)
        s = _table_size(self.nvars, k)
        return k, self.coeffs[..., :s], other.coeffs[..., :s]

    def __add__(self, other):
        if isinstance(other, Jet):
            k, a, b = self._mat(other)
            return Jet(self.nvars, k, a + b)
        c = self.coeffs.copy()
        c[..., 0] += other  # a number, or an array over the leading axes
        return Jet(self.nvars, self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            k, a, b = self._mat(other)
            return Jet(self.nvars, k, a - b)
        c = self.coeffs.copy()
        c[..., 0] -= other
        return Jet(self.nvars, self.order, c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[..., 0] += other
        return Jet(self.nvars, self.order, c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            k, a, b = self._mat(other)
            return Jet(self.nvars, k, _leibniz(self.nvars, k, a, b))
        return Jet(self.nvars, self.order, self.coeffs * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.nvars, self.order, self.coeffs / float(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * float(other)

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p < 0:
                return self._reciprocal() ** (-p)
            out = Jet.constant(self.nvars, self.order, 1.0)
            for _ in range(p):
                out = out * self
            return out
        return powr(self, float(p))

    # -- composition with smooth univariate functions ---------------------

    def compose(self, taylor_coeffs) -> "Jet":
        """Evaluate sum_m c_m (self - self.value)^m in the jet ring by Horner's
        rule, (c_M v + c_{M-1}) v + ... with v = self - self.value.

        The first step is constant(c_M) * v as a scalar multiple: every other
        Leibniz term of that product is a signed zero, and `+ 0.0` is its
        +0.0 start. Each step adds c_m in place on the fresh product. On a
        stack each c_m is an array over the leading axes, one series per jet:
        `taylor_coeffs` is the (order + 1, ...) array that `_taylor` builds.
        """
        if len(taylor_coeffs) == 1:
            return Jet.constant(self.nvars, self.order, taylor_coeffs[0])
        v = self - self.value
        out = Jet(self.nvars, self.order, taylor_coeffs[-1][..., None] * v.coeffs + 0.0)
        out.coeffs[..., 0] += taylor_coeffs[-2]
        for c in reversed(taylor_coeffs[:-2]):
            out = out * v
            out.coeffs[..., 0] += c
        return out

    def _reciprocal(self):
        return _taylor(self, _reciprocal_series)

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, value={self.value!r})"


def _taylor(u: Jet, series) -> Jet:
    """u composed with the function whose Taylor coefficients at the value
    parts u0, up to degree `order`, are series(u0, order).

    A series takes the value parts of the whole stack as one list of floats,
    in ravel order, and returns one sequence over them per degree, read as an
    array over the leading axes. An error at any jet of the stack raises for
    the whole stack, naming the first bad value part.
    """
    u0 = u.coeffs[..., 0]
    return u.compose(np.array(series(u0.ravel().tolist(), u.order)).reshape((-1,) + u0.shape))


# Series share the factors of a degree, such as binom(r, m) and m!, across
# the stack. The transcendental seed stays a Python float operation per
# value part: numpy's power and exp may differ from float ** and `math` by
# an ulp. A seed's power keeps its float division or product in the same
# expression: that raises ZeroDivisionError on an underflowed power, as
# float arithmetic does, and keeps the reciprocal, power and log seeds free
# of numpy calls.


def _binom_real(r: float, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= (r - i) / (i + 1)
    return out


def _power_domain(u0: list):
    for v in u0:
        if v <= 0.0:
            raise NumericalError(f"fractional power needs a positive value part, got {v}")


def _log_domain(u0: list):
    for v in u0:
        if v <= 0.0:
            raise NumericalError("log needs a positive value part")


def _reciprocal_series(u0: list, order: int) -> list:
    if 0.0 in u0:
        raise NumericalError("division by a jet with zero value part")
    out = []
    for m in range(order + 1):
        s, e = (-1.0) ** m, m + 1
        out.append([s / v ** e for v in u0])
    return out


def _power_series(r: float):
    def series(u0: list, order: int) -> list:
        _power_domain(u0)
        out = []
        for m in range(order + 1):
            c, e = _binom_real(r, m), r - m
            out.append([c * v ** e for v in u0])
        return out

    return series


def _exp_series(u0: list, order: int) -> list:
    e0 = np.array([math.exp(v) for v in u0])
    return [e0 / math.factorial(m) for m in range(order + 1)]


def _log_series(u0: list, order: int) -> list:
    _log_domain(u0)
    out = [[math.log(v) for v in u0]]
    for m in range(1, order + 1):
        s = (-1.0) ** (m + 1)
        out.append([s / (m * v ** m) for v in u0])
    return out


def _sin_series(u0: list, order: int, shift: int = 0) -> list:
    s0, c0 = np.array([math.sin(v) for v in u0]), np.array([math.cos(v) for v in u0])
    cycle = [s0, c0, -s0, -c0]  # the derivatives of sin; cos starts one later
    return [cycle[(m + shift) % 4] / math.factorial(m) for m in range(order + 1)]


def _cos_series(u0: list, order: int) -> list:
    return _sin_series(u0, order, 1)


def powr(u, r: float):
    """u**r for real r; u must be a positive number or a jet with positive value."""
    if not isinstance(u, Jet):
        u = float(u)
        _power_domain((u,))
        return u ** r
    return _taylor(u, _power_series(r))


def sqrt(u):
    if not isinstance(u, Jet):
        u = float(u)
        _power_domain((u,))
        return math.sqrt(u)
    return powr(u, 0.5)


def exp(u):
    if not isinstance(u, Jet):
        return math.exp(u)
    return _taylor(u, _exp_series)


def log(u):
    if not isinstance(u, Jet):
        u = float(u)
        _log_domain((u,))
        return math.log(u)
    return _taylor(u, _log_series)


def sin(u):
    if not isinstance(u, Jet):
        return math.sin(u)
    return _taylor(u, _sin_series)


def cos(u):
    if not isinstance(u, Jet):
        return math.cos(u)
    return _taylor(u, _cos_series)


# -- evaluation of scalar fields ------------------------------------------


def coordinate_jets(points, order: int):
    """Coordinate jets (x-list, y-list) seeding jet evaluation at a sequence
    of chart points: their (P, 2n) coordinate rows seed one `Jet.variable`
    stack z, whose row `z[:, s, :]` is coordinate s."""
    rows = np.asarray([p.x + p.y for p in points])
    nvars = rows.shape[-1]
    z = Jet.variable(nvars, order, range(nvars), rows)
    jets = [z[:, s, :] for s in range(nvars)]
    return jets[:nvars // 2], jets[nvars // 2:]


def _stacked(value, nvars: int, order: int, count: int) -> Jet:
    """A field's value at `count` points as one jet: a number is the constant
    jet, and a list or tuple stacks its components, each a jet or a number."""
    if isinstance(value, (list, tuple)):
        return Jet.stack([v if isinstance(v, Jet) else _stacked(v, nvars, order, count)
                          for v in value])
    return Jet.constant(nvars, order, np.full(count, float(value)))


def jet_eval(field, points, order: int, float_fn=None) -> Jet:
    """Evaluate `field(x, y)` in jet arithmetic at a sequence of chart points,
    to an `order` from 1 to `MAX_ORDER`.

    `field` must be written against the generic math functions of this
    module so the same callable also works on plain floats. It returns a
    value, or a list or tuple of n components, each a jet or a number. It
    runs once on stacked coordinate jets, so the result is a (P, T) stack or,
    as `Jet.stack` of the components, a (P, n, T) one, and each point's
    slice equals `jet_eval` at `(point,)` alone, bit for bit.
    Whether a point is admissible is for the caller to ask (`PointFrame`
    asks its structure). An error at any point raises for all. For a
    NumericalError or an ArithmeticError, `float_fn` (default `field`) runs
    on floats point by point, and the first point that raises re-raises its
    own error with ` at ChartPoint(...)` appended; if none does, the stacked
    error stands. Any other error of `float_fn` (`PointFrame.L_jet`'s cone
    error, which names its point itself) passes through.
    """
    if order > MAX_ORDER:
        raise CapabilityError(f"jet order {order} exceeds the supported maximum {MAX_ORDER}")
    xj, yj = coordinate_jets(points, order)  # an order below 1 is a ValueError
    try:
        out = field(xj, yj)
        if not isinstance(out, Jet):
            out = _stacked(out, xj[0].nvars, order, len(points))
        if not np.isfinite(out.coeffs).all():
            bad = points[int(np.argmin(np.isfinite(out.coeffs).reshape(len(points), -1).all(-1)))]
            raise NumericalError(f"field produced non-finite jet coefficients at {bad}")
    except (NumericalError, ArithmeticError) as exc:
        for p in points:
            try:
                (float_fn or field)(p.x, p.y)  # a non-finite value is the stacked error
            except (NumericalError, ArithmeticError) as alone:
                raise type(alone)(f"{alone} at {p}") from exc
        raise
    return out


def field_value(field, point: ChartPoint) -> float:
    """Plain float evaluation, shared by the finite-difference oracle."""
    return _value_at(field, point.x, point.y)


def _value_at(field, x: tuple, y: tuple) -> float:
    """field(x, y) on coordinate tuples, as a float; a non-finite value
    raises, naming the chart point (x, y)."""
    v = float(field(x, y))
    if not math.isfinite(v):
        raise NumericalError(f"field produced a non-finite value at {ChartPoint(x, y)}")
    return v


# -- finite-difference oracle ----------------------------------------------


def fd_partial(field, point: ChartPoint, multi) -> float:
    """Central-difference estimate of a raw partial derivative.

    `multi` is a full multi-index over the 2n coordinates (x-block first),
    total degree at most 3. The step is 1e-4 up to degree 2 and 1e-3 at
    degree 3, where one Richardson extrapolation step follows. The stencil
    walks coordinate tuples: a step moves one entry c[d] by +h or -h and
    the field runs on (c[:n], c[n:]). This is the independent oracle used
    to certify jet arithmetic; it never feeds production code paths.
    """
    multi = tuple(int(m) for m in multi)
    if len(multi) != 2 * point.n:
        raise ValueError("multi-index must cover all 2n coordinates")
    if any(m < 0 for m in multi):
        raise ValueError("multi-index entries must be nonnegative")
    deg = sum(multi)
    if deg == 0:
        return field_value(field, point)
    if deg > 3:
        raise CapabilityError("finite-difference oracle supports degree <= 3")
    step = 1e-4 if deg <= 2 else 1e-3
    coords = point.coords()
    for d, m in enumerate(multi):
        if m > 0 and coords[d] + step == coords[d]:
            raise NumericalError("finite-difference step underflows at this point")
    n = point.n

    def central(c, mi, h):
        d = next(i for i, m in enumerate(mi) if m > 0)
        rest = mi[:d] + (mi[d] - 1,) + mi[d + 1:]
        ends = []
        for s in (h, -h):
            e = c[:d] + (c[d] + s,) + c[d + 1:]
            ends.append(central(e, rest, h) if any(rest) else _value_at(field, e[:n], e[n:]))
        return (ends[0] - ends[1]) / (2.0 * h)

    est = central(coords, multi, step)
    if deg == 3:
        est_half = central(coords, multi, step / 2.0)
        est = (4.0 * est_half - est) / 3.0
    return est
