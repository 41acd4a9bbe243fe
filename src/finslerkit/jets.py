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
product equals the component-wise scalar products bit for bit.
Transcendental functions go through Taylor composition in the jet ring, so
everything is exact to round-off for the smooth closed-form fields used
here; on a stack each jet's Taylor coefficients come from the same Python
float arithmetic as a scalar jet's, so a stacked function equals the
component-wise scalar results bit for bit too.

The module also carries the finite-difference oracle (`fd_partial`) the
test suite uses to certify jet output against an independent scheme.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .chart import ChartPoint
from .errors import CapabilityError, DomainError, NumericalError

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


@lru_cache(maxsize=None)
def _gather_program(nvars: int, order: int):
    """`_mul_program` as zero-padded (T, m) tables, one row per output slot
    with its terms in program order; padding has weight 0."""
    io, ia, ib, w, size = _mul_program(nvars, order)
    counts = np.bincount(io, minlength=size)
    col = np.arange(io.size) - np.repeat(np.cumsum(counts) - counts, counts)
    out = []
    for src, dtype in ((ia, np.intp), (ib, np.intp), (w, np.float64)):
        table = np.zeros((size, counts.max()), dtype=dtype)
        table[io, col] = src
        out.append(table)
    return tuple(out)


# Above this many gathered coefficients (both operands' coefficient counts
# times the longest slot program) a stacked product gathers column by column.
# Measured at nvars 4 and 6, orders 2-4, equal operands: the whole (T, m)
# gather is 1.2-2.5x faster below about 2e5 and 1-3x slower above 6e5. A
# single-point frame stays below 2e4; a sample of hundreds of points lies
# above.
_COLUMN_GATHER_WORK = 1 << 18


def _leibniz(nvars: int, order: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays of one order, broadcast over their
    leading axes.

    Every slot adds its terms (w a[ia]) b[ib] in `_mul_program` order onto a
    +0.0 start, as `np.bincount` does for a single table, so a stacked
    product equals the scalar products bit for bit, down to the sign of a
    zero. Order 1 has the closed form (0 + a0 b_k) + a_k b0. A stack of
    higher order adds its terms column by column: numpy's `add.reduce`
    would sum 8 or more terms pairwise (order 3 has 8), in another order.
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
    if (a.size + b.size) * ia.shape[1] < _COLUMN_GATHER_WORK:
        terms = (w * a.take(ia, -1)) * b.take(ib, -1)
        out = np.zeros(terms.shape[:-1])
        for c in range(terms.shape[-1]):
            out += terms[..., c]
        return out
    # a large stack (points times components) gathers one column at a time
    # and never holds the whole (..., T, m) term array
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + ia.shape[:1])
    for c in range(ia.shape[1]):
        out += (w[:, c] * a.take(ia[:, c], -1)) * b.take(ib[:, c], -1)
    return out


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
    def variable(cls, nvars, order, slot, value):
        """Jet of the coordinate function z_slot at z_slot = value; a sequence
        of slots with values of shape (..., len(slots)) gives the stack of
        those jets, slots last."""
        if order < 1:
            raise ValueError("coordinate jets need order >= 1")
        size = _table_size(nvars, order)
        if isinstance(slot, (int, np.integer)):
            c = np.zeros(size)
            c[0] = float(value)
            c[1 + slot] = 1.0
        else:
            slot = np.asarray(slot)
            c = np.zeros(np.shape(value) + (size,))
            c[..., 0] = value
            c[..., np.arange(slot.size), 1 + slot] = 1.0
        return cls(nvars, order, c)

    def __getitem__(self, key):
        """Sub-jet of a stack over its leading axes, sharing coefficients."""
        if self.coeffs.ndim == 1:
            raise TypeError("a scalar jet has no tensor axes to index")
        return Jet(self.nvars, self.order, self.coeffs[key])

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
        c[..., 0] += float(other)
        return Jet(self.nvars, self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            k, a, b = self._mat(other)
            return Jet(self.nvars, k, a - b)
        c = self.coeffs.copy()
        c[..., 0] -= other if isinstance(other, np.ndarray) else float(other)
        return Jet(self.nvars, self.order, c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[..., 0] += float(other)
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
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer() and p >= 0):
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
    """u composed with the function whose Taylor coefficients at a value u0,
    up to degree `order`, are series(u0, order).

    A stack gets one coefficient list per jet from the same Python float
    arithmetic, as arrays over its leading axes (numpy's exp and power may
    differ from `math` and float ** by an ulp). An error at any jet of the
    stack raises for the whole stack.
    """
    if u.coeffs.ndim == 1:
        return u.compose(series(u.value, u.order))
    u0 = u.coeffs[..., 0]
    rows = [series(v, u.order) for v in u0.ravel().tolist()]
    cs = np.array(rows).T.reshape((u.order + 1,) + u0.shape)
    return u.compose(list(cs))


def _binom_real(r: float, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= (r - i) / (i + 1)
    return out


def _reciprocal_series(u0: float, order: int) -> list:
    if u0 == 0.0:
        raise NumericalError("division by a jet with zero value part")
    return [(-1.0) ** m / u0 ** (m + 1) for m in range(order + 1)]


def _power_series(r: float):
    def series(u0: float, order: int) -> list:
        if u0 <= 0.0:
            raise NumericalError(f"fractional power needs a positive value part, got {u0}")
        return [_binom_real(r, m) * u0 ** (r - m) for m in range(order + 1)]

    return series


def _exp_series(u0: float, order: int) -> list:
    e0 = math.exp(u0)
    return [e0 / math.factorial(m) for m in range(order + 1)]


def _log_series(u0: float, order: int) -> list:
    if u0 <= 0.0:
        raise NumericalError("log needs a positive value part")
    cs = [math.log(u0)]
    for m in range(1, order + 1):
        cs.append((-1.0) ** (m + 1) / (m * u0 ** m))
    return cs


def _sin_series(u0: float, order: int) -> list:
    cycle = [math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0)]
    return [cycle[m % 4] / math.factorial(m) for m in range(order + 1)]


def _cos_series(u0: float, order: int) -> list:
    cycle = [math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0)]
    return [cycle[m % 4] / math.factorial(m) for m in range(order + 1)]


def powr(u, r: float):
    """u**r for real r; u must be a positive number or a jet with positive value."""
    if not isinstance(u, Jet):
        return float(u) ** r
    return _taylor(u, _power_series(r))


def sqrt(u):
    if not isinstance(u, Jet):
        return math.sqrt(u)
    return powr(u, 0.5)


def exp(u):
    if not isinstance(u, Jet):
        return math.exp(u)
    return _taylor(u, _exp_series)


def log(u):
    if not isinstance(u, Jet):
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
    """Coordinate jets (x-list, y-list) seeding jet evaluation at `point`; a
    sequence of chart points gives stacks with a leading point axis."""
    if isinstance(point, ChartPoint):
        n = point.n
        nvars = 2 * n
        xj = [Jet.variable(nvars, order, i, point.x[i]) for i in range(n)]
        yj = [Jet.variable(nvars, order, n + i, point.y[i]) for i in range(n)]
        return xj, yj
    n = point[0].n
    z = Jet.variable(2 * n, order, range(2 * n), [p.x + p.y for p in point])
    stacks = [Jet(2 * n, order, z.coeffs[:, s]) for s in range(2 * n)]
    return stacks[:n], stacks[n:]


def jet_eval(field, point, order: int, domain=None) -> Jet:
    """Evaluate `field(x, y)` in jet arithmetic at a chart point.

    `field` must be written against the generic math functions of this
    module so the same callable also works on plain floats. At a sequence
    of chart points the field runs once on stacked coordinate jets and the
    result has a leading point axis; each point's slice equals `jet_eval` at
    that point alone, bit for bit. An error at any point raises for all.
    """
    if order > MAX_ORDER:
        raise CapabilityError(f"jet order {order} exceeds the supported maximum {MAX_ORDER}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    points = (point,) if isinstance(point, ChartPoint) else tuple(point)
    lead = () if isinstance(point, ChartPoint) else (len(points),)
    if domain is not None:
        for p in points:
            if not domain(p.x, p.y):
                raise DomainError(f"point outside the admissible chart domain: {p}")
    nvars = 2 * points[0].n
    xj, yj = coordinate_jets(point, max(order, 1))
    out = field(xj, yj)
    if not isinstance(out, Jet):
        out = Jet.constant(nvars, max(order, 1), np.full(lead, float(out)) if lead else float(out))
    if not np.all(np.isfinite(out.coeffs)):
        bad = point if not lead else points[int(np.argmin(np.isfinite(out.coeffs).all(-1)))]
        raise NumericalError(f"field produced non-finite jet coefficients at {bad}")
    return out.truncated(order) if out.order > order else out


def field_value(field, point: ChartPoint) -> float:
    """Plain float evaluation, shared by the finite-difference oracle."""
    v = float(field(point.x, point.y))
    if not math.isfinite(v):
        raise NumericalError(f"field produced a non-finite value at {point}")
    return v


# -- finite-difference oracle ----------------------------------------------


def fd_partial(field, point: ChartPoint, multi, step: float = None,
               richardson: bool = None) -> float:
    """Central-difference estimate of a raw partial derivative.

    `multi` is a full multi-index over the 2n coordinates (x-block first),
    total degree at most 3. Degree-3 estimates use one Richardson
    extrapolation step by default. This is the independent oracle used to
    certify jet arithmetic; it never feeds production code paths.
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
    if step is None:
        step = 1e-4 if deg <= 2 else 1e-3
    if step <= 0.0:
        raise ValueError("step must be positive")
    coords = point.coords()
    for d, m in enumerate(multi):
        if m > 0 and coords[d] + step == coords[d]:
            raise NumericalError("finite-difference step underflows at this point")
    if richardson is None:
        richardson = deg == 3

    def central(pt, mi, h):
        d = next(i for i, m in enumerate(mi) if m > 0)
        rest = list(mi)
        rest[d] -= 1
        rest = tuple(rest)
        if sum(rest) == 0:
            hi = field_value(field, pt.shifted(d, +h))
            lo = field_value(field, pt.shifted(d, -h))
        else:
            hi = central(pt.shifted(d, +h), rest, h)
            lo = central(pt.shifted(d, -h), rest, h)
        return (hi - lo) / (2.0 * h)

    est = central(point, multi, step)
    if richardson:
        est_half = central(point, multi, step / 2.0)
        est = (4.0 * est_half - est) / 3.0
    return est
