"""Truncated multivariate jet arithmetic over the 2n chart variables.

A Jet holds the raw partial derivatives (not Taylor coefficients) of a
smooth function at one point, for every multi-index of total degree up to
`order`. The multi-index table is graded by degree, so the table of a
lower order is always a prefix of a higher one; truncation is a slice and
mixed-partial symmetry is structural (one slot per sorted multi-index).

A Jet may also hold a stack of such tables: `coeffs` has shape (..., T),
leading axes and the graded table of length T last. Ring operations
broadcast over the leading axes and `jet[i]` is the sub-jet as a view, so
one operation serves every component of a tensor, and every point of a
sample when the leading axis runs over points (vector Taylor propagation,
Griewank & Walther, *Evaluating Derivatives*, ch. 13). `jet_eval` at a
sequence of points evaluates a field once on stacked coordinate jets.

Products use the Leibniz rule in raw-derivative form,

    d^g (u v) = sum_{a <= g} C(g, a) d^a u d^{g-a} v,

with the binomial weights precomputed per (nvars, order). Each output slot
sums its terms in one fixed order whatever the stack shape, so a stacked
product equals the component-wise scalar products bit for bit. A large
stack is multiplied coefficient-major, as vector Taylor propagation keeps
its direction axis: the table axis goes first and each term of a slot
program is one contiguous row over all points and components. It is also
support-aware, as vector Taylor propagation carries the sparsity of its
seeds: a term runs only when both of its operand columns are nonzero
somewhere in the stack, which drops most of the work for Lagrangians built
from x-only factors, y-only polynomials and constants.
Transcendental functions go through Taylor composition in the jet ring, so
everything is exact to round-off for the smooth closed-form fields used
here; a stack's Taylor coefficients are built per degree over all its value
parts, from the same Python float seeds and IEEE operations as a scalar
jet's, so a stacked function equals the component-wise scalar results bit
for bit too.

The module also carries the finite-difference oracle (`fd_partial`) the
test suite uses to certify jet output against an independent scheme.
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
def _index_table(nvars: int, order: int):
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
    table, pos = _index_table(nvars, order)
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


def _slot_tables(io, size: int, *terms):
    """Per-slot term counts, and each term array as a zero-padded (T, m)
    table, one row per output slot with its terms in program order."""
    counts = np.bincount(io, minlength=size)
    col = np.arange(io.size) - np.repeat(np.cumsum(counts) - counts, counts)
    tables = []
    for src in terms:
        table = np.zeros((size, counts.max()), dtype=src.dtype)
        table[io, col] = src
        tables.append(table)
    return counts, tables


@lru_cache(maxsize=None)
def _gather_program(nvars: int, order: int):
    """`_mul_program` as zero-padded (T, m) tables; padding has weight 0."""
    io, ia, ib, w, size = _mul_program(nvars, order)
    return tuple(_slot_tables(io, size, ia, ib, w)[1])


# One program per support pair met: a 1000-point sweep of sphere2 builds 30,
# of minkowski_quartic3 46. The bound keeps a long-lived process from
# growing with every pair it ever meets.
@lru_cache(maxsize=256)
def _live_program(nvars: int, order: int, live_a: bytes, live_b: bytes):
    """The `_mul_program` terms whose two columns are live, coefficient-major.

    `live_a` and `live_b` are the operands' supports as bool-array bytes:
    column i is live when it is nonzero in some row of the stack. Returns
    the slots sorted by falling live-term count (stable) and, for each
    column c, (k_c, ia, ib, w) over the k_c leading slots that have a c-th
    live term, in `_mul_program` order, so column c updates a prefix of the
    sorted slots. Slots with no live term come last and are never updated.
    Full support gives every term of every slot, without padding.
    """
    io, ia, ib, w, size = _mul_program(nvars, order)
    live = np.frombuffer(live_a, dtype=bool)[ia] & np.frombuffer(live_b, dtype=bool)[ib]
    counts, (ia, ib, w) = _slot_tables(io[live], size, ia[live], ib[live], w[live])
    perm = np.argsort(-counts, kind="stable")
    columns = []
    for c in range(ia.shape[1]):
        rows = perm[: np.count_nonzero(counts > c)]
        columns.append((rows.size, ia[rows, c], ib[rows, c], w[rows, c, None]))
    return perm, tuple(columns)


# From this much work, the broadcast output's S rows times the (T, m) slot
# programs, a stacked product runs coefficient-major. Measured at nvars 4
# and 6, orders 2-4, equal dense (S, T) operands: the whole (T, m) gather is
# 1.3-2.6x faster at 1e4, the two break even at 4e4-5e4, and the
# coefficient-major kernel is 1.2-1.4x faster at 7e4 and about 3x from 1e5.
# Support filtering leaves the dense crossover where it was. An x-only
# times a y-only operand breaks even near 1e4, but the supports are read
# from the (T, S) arrays of the coefficient-major branch, so the choice
# stays on the work count. A single-point frame of the catalog stays below
# 4e3 (the largest is one 6-variable order-4 table, 3360); a sample of
# hundreds of points lies above.
_COLUMN_GATHER_WORK = 50_000


def _leibniz(nvars: int, order: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays of one order, broadcast over their
    leading axes.

    Every slot adds its terms (w a[ia]) b[ib] in `_mul_program` order onto a
    +0.0 start, as `np.bincount` does for a single table, so a stacked
    product equals the scalar products bit for bit, down to the sign of a
    zero. Order 1 has the closed form (0 + a0 b_k) + a_k b0. A small stack
    gathers the whole zero-padded (..., T, m) term array and adds it column
    by column: numpy's `add.reduce` would sum 8 or more terms pairwise
    (order 3 has 8), in another order. A large stack runs coefficient-major:
    both operands become (T, S) arrays over the S output rows, their
    supports (`any` along the rows) pick the `_live_program`, and its
    column c adds the contiguous rows (w_c A[ia_c]) B[ib_c] onto the first
    k_c sorted slots; a slot with no live term stays +0.0. Skipping the
    padding and the terms with a zero column changes no bit for finite
    operands: such a term adds +-0.0 to a sum that is never -0.0.
    """
    if order <= 1:
        out = a[..., :1] * b + 0.0
        tail = out[..., 1:]
        tail += a[..., 1:] * b[..., :1]
        return out
    if a.ndim == 1 and b.ndim == 1:
        io, ia, ib, w, size = _mul_program(nvars, order)
        return np.bincount(io, weights=w * a[ia] * b[ib], minlength=size)
    ia, ib, w = _gather_program(nvars, order)
    lead = np.broadcast(a[..., 0], b[..., 0])
    if lead.size * ia.size < _COLUMN_GATHER_WORK:
        terms = (w * a.take(ia, -1)) * b.take(ib, -1)
        out = np.zeros(terms.shape[:-1])
        for c in range(terms.shape[-1]):
            out += terms[..., c]
        return out
    size = ia.shape[0]
    A, B = (np.moveaxis(np.broadcast_to(x, lead.shape + (size,)), -1, 0).reshape(size, -1)
            for x in (a, b))
    perm, columns = _live_program(nvars, order, A.any(axis=1).tobytes(), B.any(axis=1).tobytes())
    acc = np.zeros(A.shape)
    for k, ia_c, ib_c, w_c in columns:
        acc[:k] += (w_c * A[ia_c]) * B[ib_c]
    out = np.empty(acc.shape[::-1])
    out[:, perm] = acc.T
    return out.reshape(lead.shape + (size,))


@lru_cache(maxsize=None)
def _shift_map(nvars: int, order: int, slot):
    """Positions in the order-`order` table of alpha + e_slot, alpha over the
    (order-1) table; a tuple of slots stacks one row per slot."""
    if isinstance(slot, tuple):
        return np.stack([_shift_map(nvars, order, s) for s in slot])
    lo, _ = _index_table(nvars, order - 1)
    _, pos_hi = _index_table(nvars, order)
    out = []
    for alpha in lo:
        shifted = list(alpha)
        shifted[slot] += 1
        out.append(pos_hi[tuple(shifted)])
    return np.asarray(out, dtype=np.intp)


@lru_cache(maxsize=None)
def _table_size(nvars: int, order: int) -> int:
    return math.comb(nvars + order, order)


def _value_part(other):
    """A number, or an array over a stack's leading axes, to add to or
    subtract from value parts."""
    return other if isinstance(other, np.ndarray) else float(other)


class Jet:
    """Raw-derivative jet of a scalar function at a point, or a stack of them.

    `coeffs` has shape (..., T): any leading axes (points, then tensor
    components), then the graded table. Readouts of a stack (`value`,
    `partial1`, `partial`) are arrays over the leading axes.
    """

    __slots__ = ("nvars", "order", "coeffs")
    __array_ufunc__ = None  # keep numpy scalars from absorbing us

    def __init__(self, nvars, order, coeffs):
        self.nvars = nvars
        self.order = order
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        if self.coeffs.shape[-1:] != (_table_size(nvars, order),):
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
        """Sub-jet of a stack over its leading axes, sharing coefficients. A
        scalar jet takes only keys that begin with `...`, such as
        `jet[..., None, :]`, which stands it against a stack."""
        if self.coeffs.ndim == 1 and not (type(key) is tuple and key and key[0] is Ellipsis):
            raise TypeError("a scalar jet has no tensor axes to index")
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

    def _slot(self, i):
        c = self.coeffs
        return float(c[i]) if c.ndim == 1 else c[..., i]

    @property
    def value(self):
        return self._slot(0)

    def partial1(self, slot: int):
        return self._slot(1 + slot)

    def partial(self, multi):
        """Raw partial derivative for a full multi-index (length nvars)."""
        multi = tuple(int(m) for m in multi)
        if len(multi) != self.nvars:
            raise ValueError("multi-index length must equal nvars")
        if sum(multi) > self.order:
            raise CapabilityError(
                f"degree {sum(multi)} exceeds stored jet order {self.order}"
            )
        _, pos = _index_table(self.nvars, self.order)
        return self._slot(pos[multi])

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise CapabilityError("cannot extend a jet to higher order")
        if order == self.order:
            return self
        return Jet(self.nvars, order, self.coeffs[..., : _table_size(self.nvars, order)])

    def partial_jet(self, slot) -> "Jet":
        """Jet of the partial derivative w.r.t. variable `slot`, one order lower.

        A sequence of slots appends a tensor axis: `out[..., s, :]` is the
        partial along `slot[s]`.
        """
        if self.order < 1:
            raise CapabilityError("order-0 jet has no derivatives")
        if not isinstance(slot, (int, np.integer)):
            slot = tuple(slot)
        sm = _shift_map(self.nvars, self.order, slot)
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
        c[..., 0] += _value_part(other)
        return Jet(self.nvars, self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            k, a, b = self._mat(other)
            return Jet(self.nvars, k, a - b)
        c = self.coeffs.copy()
        c[..., 0] -= _value_part(other)
        return Jet(self.nvars, self.order, c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[..., 0] += _value_part(other)
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
        inv = self._reciprocal()
        return inv if other == 1.0 else inv * float(other)  # x * 1.0 == x exactly

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
        stack each c_m may be an array over the leading axes, one series per
        jet.
        """
        if len(taylor_coeffs) == 1:
            return Jet.constant(self.nvars, self.order, taylor_coeffs[0])
        v = self - self.value
        top = taylor_coeffs[-1]
        if isinstance(top, np.ndarray):
            top = top[..., None]
        out = Jet(self.nvars, self.order, top * v.coeffs + 0.0)
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
    in ravel order, and returns one sequence over them per degree; a single
    jet reads index 0. An error at any jet of the stack raises for the whole
    stack, naming the first bad value part.
    """
    if u.coeffs.ndim == 1:
        return u.compose([c[0] for c in series([u.value], u.order)])
    u0 = u.coeffs[..., 0]
    return u.compose([np.reshape(c, u0.shape) for c in series(u0.ravel().tolist(), u.order)])


# Series share the factors of a degree, such as binom(r, m) and m!, across
# the stack. The transcendental seed stays a Python float operation per
# value part: numpy's power and exp may differ from float ** and `math` by
# an ulp. A seed's power keeps its float division or product in the same
# expression: that raises ZeroDivisionError on an underflowed power, as a
# scalar jet always did, and keeps the reciprocal, power and log of a
# single jet free of numpy calls.


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


def coordinate_jets(point, order: int):
    """Coordinate jets (x-list, y-list) seeding jet evaluation at `point`.

    A chart point seeds as its (2n,) coordinate row, a sequence of them as
    (P, 2n) rows, into one `Jet.variable` stack z over the 2n slots; its row
    `z[..., s, :]` is coordinate s, with a leading point axis for a sequence
    (vector Taylor propagation seeds one point as a stack of one)."""
    rows = np.asarray(point.coords() if isinstance(point, ChartPoint)
                      else [p.x + p.y for p in point])
    nvars = rows.shape[-1]
    z = Jet.variable(nvars, order, range(nvars), rows)
    jets = [z[..., s, :] for s in range(nvars)]
    return jets[:nvars // 2], jets[nvars // 2:]


def jet_eval(field, point, order: int) -> Jet:
    """Evaluate `field(x, y)` in jet arithmetic at a chart point.

    `field` must be written against the generic math functions of this
    module so the same callable also works on plain floats. At a sequence
    of chart points the field runs once on stacked coordinate jets and the
    result has a leading point axis; each point's slice equals `jet_eval` at
    that point alone, bit for bit. An error at any point raises for all.
    Whether a point is admissible is for the caller to ask (`PointFrame`
    asks its structure).
    """
    if order > MAX_ORDER:
        raise CapabilityError(f"jet order {order} exceeds the supported maximum {MAX_ORDER}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    single = isinstance(point, ChartPoint)
    xj, yj = coordinate_jets(point, max(order, 1))
    out = field(xj, yj)
    if not isinstance(out, Jet):
        value = float(out) if single else np.full(len(point), float(out))
        out = Jet.constant(xj[0].nvars, max(order, 1), value)
    if not np.all(np.isfinite(out.coeffs)):
        bad = point if single else point[int(np.argmin(np.isfinite(out.coeffs).all(-1)))]
        raise NumericalError(f"field produced non-finite jet coefficients at {bad}")
    return out.truncated(order) if out.order > order else out


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
