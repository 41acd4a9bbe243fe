"""Jet arithmetic: exactness on closed forms, ring laws, and the
finite-difference cross-check."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finslerkit.chart import ChartPoint
from finslerkit.checks import _quadratic_scalar
from finslerkit.errors import CapabilityError, DomainError, NumericalError
from finslerkit.jets import (
    MAX_ORDER,
    _COEFFICIENT_MAJOR_WORK,
    Jet,
    _binom_real,
    _cos_series,
    _exp_series,
    _live_program,
    _log_series,
    _mul_program,
    _point_program,
    _power_series,
    _reciprocal_series,
    _sin_series,
    coordinate_jets,
    cos,
    exp,
    fd_partial,
    field_value,
    index_table,
    jet_eval,
    log,
    powr,
    sin,
    sqrt,
)
from finslerkit import frame as frame_module
from finslerkit.frame import point_frame
from finslerkit.structures import by_name

from conftest import CATALOG_NAMES

P = ChartPoint(x=(0.3, -0.7), y=(1.1, 0.4))


def multi(nvars, **kw):
    """Build a full multi-index from slot=degree keyword pairs like s0=2."""
    m = [0] * nvars
    for key, deg in kw.items():
        m[int(key[1:])] = deg
    return tuple(m)


class TestPolynomialExactness:
    def test_quadratic_partials(self):
        f = lambda x, y: x[0] ** 2 * y[1] + 3.0 * x[1] * y[0]
        jet = jet_eval(f, (P,), 3)[0]
        x0, x1 = P.x
        y0, y1 = P.y
        assert jet.value == pytest.approx(x0 ** 2 * y1 + 3 * x1 * y0, abs=1e-15)
        assert jet.partial(multi(4, s0=1)) == pytest.approx(2 * x0 * y1, abs=1e-15)
        assert jet.partial(multi(4, s1=1)) == pytest.approx(3 * y0, abs=1e-15)
        assert jet.partial(multi(4, s2=1)) == pytest.approx(3 * x1, abs=1e-15)
        assert jet.partial(multi(4, s3=1)) == pytest.approx(x0 ** 2, abs=1e-15)
        assert jet.partial(multi(4, s0=1, s3=1)) == pytest.approx(2 * x0, abs=1e-15)
        assert jet.partial(multi(4, s0=2)) == pytest.approx(2 * y1, abs=1e-15)
        assert jet.partial(multi(4, s0=2, s3=1)) == pytest.approx(2.0, abs=1e-15)
        assert jet.partial(multi(4, s2=2)) == 0.0

    def test_quartic_pure_power(self):
        f = lambda x, y: y[0] ** 4
        jet = jet_eval(f, (P,), 4)[0]
        y0 = P.y[0]
        assert jet.partial(multi(4, s2=2)) == pytest.approx(12 * y0 ** 2, rel=1e-14)
        assert jet.partial(multi(4, s2=3)) == pytest.approx(24 * y0, rel=1e-14)
        assert jet.partial(multi(4, s2=4)) == pytest.approx(24.0, rel=1e-14)

    def test_mixed_partial_symmetry_is_structural(self):
        f = lambda x, y: sin(x[0] * y[1]) * exp(x[1])
        jet = jet_eval(f, (P,), 3)[0]
        a = jet.partial(multi(4, s0=1, s1=1, s3=1))
        # one storage slot per sorted multi-index, so the "other order"
        # reads the same table entry
        assert a == jet.partial(multi(4, s3=1, s1=1, s0=1))


class TestFrozenValues:
    """Hand-derived reference numbers for a quartic-root norm."""

    def test_quartic_norm_first_fiber_partial(self):
        f = lambda x, y: sqrt(y[0] ** 4 + y[1] ** 4)
        p = ChartPoint(x=(0.0, 0.0), y=(1.0, 1.0))
        jet = jet_eval(f, (p,), 2)[0]
        # d/dy0 (y0^4 + y1^4)^(1/2) = 2 y0^3 / sqrt(y0^4 + y1^4) = sqrt(2)
        assert jet.dy[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        # d2/dy0^2 = 6 y0^2/sqrt(u) - 4 y0^6 u^(-3/2) = 2 sqrt(2)
        assert jet.partial(multi(4, s2=2)) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)

    def test_homogeneous_norm_euler_identity(self):
        f = lambda x, y: sqrt(y[0] ** 2 + y[1] ** 2)
        jet = jet_eval(f, (P,), 1)[0]
        val = jet.value
        euler = P.y[0] * jet.dy[0] + P.y[1] * jet.dy[1]
        assert euler == pytest.approx(val, rel=1e-14)


class TestTranscendentals:
    def test_exp_log_roundtrip(self):
        xj, yj = coordinate_jets((P,), 4)
        u = 1.5 + xj[0] * xj[0] + yj[1]
        back = exp(log(u))
        assert np.allclose(back.coeffs, u.coeffs, atol=1e-12)

    def test_sqrt_squares_back(self):
        xj, yj = coordinate_jets((P,), 4)
        u = 2.0 + xj[1] + yj[0] * yj[0]
        s = sqrt(u)
        assert np.allclose((s * s).coeffs, u.coeffs, atol=1e-12)

    def test_pythagorean_identity(self):
        xj, yj = coordinate_jets((P,), 4)
        u = xj[0] * yj[1] + 0.3
        one = sin(u) * sin(u) + cos(u) * cos(u)
        expect = Jet.constant(4, 4, 1.0)
        assert np.allclose(one.coeffs, expect.coeffs, atol=1e-12)

    def test_powr_matches_integer_power(self):
        xj, yj = coordinate_jets((P,), 3)
        u = 1.2 + yj[0]
        assert np.allclose(powr(u, 3.0).coeffs, (u ** 3).coeffs, atol=1e-12)

    def test_powr_rejects_nonpositive_value(self):
        j = Jet.constant(4, 2, -1.0)
        with pytest.raises(NumericalError):
            powr(j, 0.5)

    @pytest.mark.parametrize("fn,u0,message", [
        (lambda u: powr(u, 0.25), -0.5, "fractional power needs a positive value part, got -0.5"),
        (lambda u: powr(u, 0.25), 0.0, "fractional power needs a positive value part, got 0.0"),
        (sqrt, -0.5, "fractional power needs a positive value part, got -0.5"),
        (log, 0.0, "log needs a positive value part"),
        (log, -1.0, "log needs a positive value part"),
    ])
    def test_float_paths_share_the_jet_domain_errors(self, fn, u0, message):
        for u in (u0, Jet.constant(4, 2, u0)):
            with pytest.raises(NumericalError) as err:
                fn(u)
            assert str(err.value) == message

    def test_division_by_zero_value_jet(self):
        j = Jet.variable(4, 2, [0], [0.0])[0]
        with pytest.raises(NumericalError):
            1.0 / j

    def test_integral_float_power_takes_the_integer_path(self):
        j = 0.2 * Jet.variable(4, 3, [1], [0.5])[0] - 0.9 + Jet.variable(4, 3, [2], [0.3])[0] ** 2
        assert j.value < 0.0
        for p in (-2.0, -1.0, 0.0, 3.0):
            assert (j ** p).coeffs.tobytes() == (j ** int(p)).coeffs.tobytes()
        assert (j.value ** -2.0) == pytest.approx((j ** -2.0).value, rel=1e-15)
        stack = Jet(4, 2, np.stack([(j * s).truncated(2).coeffs for s in (1.0, -1.0, 2.0)]))
        assert (stack ** -2.0).coeffs.tobytes() == (stack ** -2).coeffs.tobytes()
        with pytest.raises(NumericalError):
            j ** -2.5


@st.composite
def small_jets(draw, nvars=2, order=3):
    size = math.comb(nvars + order, order)
    coeffs = draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return Jet(nvars, order, np.array(coeffs))


class TestRingLaws:
    @given(small_jets(), small_jets())
    @settings(max_examples=60, deadline=None)
    def test_multiplication_commutes(self, a, b):
        assert np.allclose((a * b).coeffs, (b * a).coeffs, atol=1e-9)

    @given(small_jets(), small_jets(), small_jets())
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, a, b, c):
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-8)

    @given(small_jets())
    @settings(max_examples=40, deadline=None)
    def test_one_is_neutral(self, a):
        one = Jet.constant(a.nvars, a.order, 1.0)
        assert np.allclose((a * one).coeffs, a.coeffs, atol=0.0)

    @given(small_jets())
    @settings(max_examples=40, deadline=None)
    def test_leibniz_on_partial_jets(self, a):
        b = a + 0.5
        prod = a * b
        lhs = prod.partial_jet([1])
        rhs = a.partial_jet([1]) * b.truncated(a.order - 1) + a.truncated(
            a.order - 1
        ) * b.partial_jet([1])
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-8)


def _reference_product(a: Jet, b: Jet) -> np.ndarray:
    """Leibniz sum of two scalar jets, summed in program order by bincount."""
    k = min(a.order, b.order)
    io, ia, ib, w, size = _mul_program(a.nvars, k)
    ca, cb = a.coeffs[:size], b.coeffs[:size]
    return np.bincount(io, weights=w * ca[ia] * cb[ib], minlength=size)


@st.composite
def stacked_factors(draw):
    """A (2, 3) stack of jets and a second factor of shape (2, 3), (3,) or a
    scalar jet, in either operand order, with independent orders."""
    nvars = draw(st.sampled_from([4, 6]))
    orders = draw(st.tuples(st.integers(1, MAX_ORDER), st.integers(1, MAX_ORDER)))
    shapes = [(2, 3), draw(st.sampled_from([(2, 3), (3,), ()]))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jets = []
    for order, shape in zip(orders, shapes):
        shape = shape + (math.comb(nvars + order, order),)
        c = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
        c[rng.random(shape) < 0.2] = 0.0
        jets.append(Jet(nvars, order, c))
    return jets if draw(st.booleans()) else jets[::-1]


# Leading shapes of the two factors for a point axis of P and a tensor axis
# of k: a point-wise product, an outer product over the tensor axes, a
# shared tensor against a stack, and a scalar jet against a stack.
BROADCAST_PAIRS = {
    "points": lambda P, k: ((P,), (P,)),
    "outer": lambda P, k: ((P, 1, k), (P, k, 1)),
    "shared": lambda P, k: ((k,), (P, k)),
    "scalar": lambda P, k: ((), (P,)),
}


def _block_support(kind, nvars, order, rng):
    """Columns of an operand that is x-only, y-only, constant, all zero,
    truncated to a lower order, full, or random (x-block first)."""
    table, _ = index_table(nvars, order)
    half = nvars // 2
    deg = np.array([sum(mi) for mi in table])
    x_part = np.array([sum(mi[:half]) for mi in table])
    return {
        "x": x_part == deg,
        "y": x_part == 0,
        "const": deg == 0,
        "zero": np.zeros(deg.size, dtype=bool),
        "trunc": deg <= rng.integers(1, order),
        "full": np.ones(deg.size, dtype=bool),
        "random": rng.random(deg.size) < 0.5,
    }[kind]


def _listed_terms(perm, columns, size):
    """slot -> [(ia, ib, w), ...] in the order the columns add them."""
    listed = {s: [] for s in range(size)}
    for k, ia_c, ib_c, w_c in columns:
        for slot, i, j, v in zip(perm[:k], ia_c, ib_c, w_c[:, 0]):
            listed[int(slot)].append((int(i), int(j), float(v)))
    return listed


class TestStackedJets:
    @given(stacked_factors())
    @settings(max_examples=80, deadline=None)
    def test_stacked_product_is_componentwise_bit_for_bit(self, factors):
        a, b = factors
        prod = a * b
        k = min(a.order, b.order)
        assert prod.order == k
        assert prod.coeffs.shape == (2, 3, math.comb(a.nvars + k, k))
        ca = np.broadcast_to(a.coeffs, (2, 3) + a.coeffs.shape[-1:])
        cb = np.broadcast_to(b.coeffs, (2, 3) + b.coeffs.shape[-1:])
        for idx in np.ndindex(2, 3):
            sa, sb = Jet(a.nvars, a.order, ca[idx]), Jet(b.nvars, b.order, cb[idx])
            assert (sa * sb).coeffs.tobytes() == prod.coeffs[idx].tobytes()
            assert prod.coeffs[idx].tobytes() == _reference_product(sa, sb).tobytes()

    @given(st.sampled_from([4, 6]), st.tuples(st.integers(1, MAX_ORDER), st.integers(1, MAX_ORDER)),
           st.sampled_from(sorted(BROADCAST_PAIRS)), st.integers(1, 400), st.integers(1, 3),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    # the sweep's order-4 Lagrangian products, far above the threshold
    @example(4, (4, 4), "points", 400, 1, False, 0)
    # a stack of one point, as on a frame on one point, below it
    @example(6, (4, 4), "outer", 1, 3, True, 1)
    @settings(max_examples=40, deadline=None)
    def test_large_stack_product_is_componentwise_bit_for_bit(
            self, nvars, orders, pair, points, k, flip, seed):
        rng = np.random.default_rng(seed)
        jets = []
        for order, shape in zip(orders, BROADCAST_PAIRS[pair](points, k)):
            shape = shape + (math.comb(nvars + order, order),)
            c = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-4.0, 4.0, shape)
            zero = rng.random(shape) < 0.2
            c[zero] = rng.choice([-0.0, 0.0], int(zero.sum()))
            jets.append(Jet(nvars, order, c))
        a, b = jets[::-1] if flip else jets
        prod = a * b
        lead = np.broadcast_shapes(a.coeffs.shape[:-1], b.coeffs.shape[:-1])
        size = math.comb(nvars + prod.order, prod.order)
        assert prod.coeffs.shape == lead + (size,)
        assert prod.coeffs.flags.c_contiguous
        ca = np.broadcast_to(a.coeffs, lead + a.coeffs.shape[-1:])
        cb = np.broadcast_to(b.coeffs, lead + b.coeffs.shape[-1:])
        for idx in np.ndindex(lead):
            sa, sb = Jet(nvars, a.order, ca[idx]), Jet(nvars, b.order, cb[idx])
            assert prod.coeffs[idx].tobytes() == _reference_product(sa, sb).tobytes()

    @given(st.sampled_from([4, 6]), st.tuples(st.integers(2, MAX_ORDER), st.integers(2, MAX_ORDER)),
           st.sampled_from(sorted(BROADCAST_PAIRS)), st.integers(1, 400), st.integers(1, 3),
           st.tuples(*[st.sampled_from(["x", "y", "const", "zero", "trunc", "full", "random"])] * 2),
           st.integers(0, 2 ** 32 - 1))
    # the sweep's order-4 Lagrangian products: an x-only factor times a y-only one
    @example(4, (4, 4), "points", 400, 1, ("x", "y"), 0)
    @example(6, (4, 4), "outer", 300, 2, ("trunc", "const"), 1)
    @example(4, (3, 4), "shared", 400, 3, ("zero", "random"), 2)
    @settings(max_examples=60, deadline=None)
    def test_block_sparse_stack_product_is_componentwise_bit_for_bit(
            self, nvars, orders, pair, points, k, kinds, seed):
        """Operands zero in whole columns across the stack; a dead column
        holds +-0.0, so a skipped term would show in the sign of a zero."""
        rng = np.random.default_rng(seed)
        jets = []
        for order, shape, kind in zip(orders, BROADCAST_PAIRS[pair](points, k), kinds):
            live = _block_support(kind, nvars, order, rng)
            shape = shape + (live.size,)
            c = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-4.0, 4.0, shape)
            zero = (rng.random(shape) < 0.2) | ~live
            c[zero] = rng.choice([-0.0, 0.0], int(zero.sum()))
            jets.append(Jet(nvars, order, c))
        a, b = jets
        prod = a * b
        lead = np.broadcast_shapes(a.coeffs.shape[:-1], b.coeffs.shape[:-1])
        assert prod.coeffs.shape == lead + (math.comb(nvars + prod.order, prod.order),)
        assert prod.coeffs.flags.c_contiguous
        ca = np.broadcast_to(a.coeffs, lead + a.coeffs.shape[-1:])
        cb = np.broadcast_to(b.coeffs, lead + b.coeffs.shape[-1:])
        for idx in np.ndindex(lead):
            sa, sb = Jet(nvars, a.order, ca[idx]), Jet(nvars, b.order, cb[idx])
            assert prod.coeffs[idx].tobytes() == _reference_product(sa, sb).tobytes()

    @given(st.sampled_from([4, 6]), st.tuples(st.integers(2, MAX_ORDER), st.integers(2, MAX_ORDER)),
           st.tuples(*[st.sampled_from(["x", "y", "const", "zero", "trunc", "full", "random"])] * 2),
           st.tuples(*[st.sampled_from([(), (1,), (1, 1)])] * 2),
           st.integers(0, 2 ** 32 - 1))
    @example(4, (4, 4), ("x", "y"), ((), ()), 0)
    @example(6, (4, 2), ("y", "zero"), ((), ()), 1)
    @example(4, (4, 4), ("x", "y"), ((1,), (1,)), 2)
    @example(4, (3, 4), ("random", "full"), ((1, 1), (1, 1)), 3)
    @example(6, (4, 4), ("trunc", "y"), ((1,), (1, 1)), 4)
    @example(4, (4, 3), ("const", "random"), ((), (1,)), 5)
    @settings(max_examples=150, deadline=None)
    def test_single_jet_product_skips_dead_terms_bit_for_bit(self, nvars, orders, kinds,
                                                            leads, seed):
        """Single jets with random supports: a zero column holds +-0.0, so a
        skipped term would show in the sign of a zero. A stack of one row,
        (1, T) or (1, 1, T), and its broadcast against (T,) or another stack
        of one, take the same one-row product."""
        rng = np.random.default_rng(seed)
        jets = []
        for order, kind, lead in zip(orders, kinds, leads):
            live = _block_support(kind, nvars, order, rng)
            c = rng.choice([-1.0, 1.0], live.size) * 10.0 ** rng.uniform(-4.0, 4.0, live.size)
            zero = (rng.random(live.size) < 0.2) | ~live
            c[zero] = rng.choice([-0.0, 0.0], int(zero.sum()))
            jets.append(Jet(nvars, order, c.reshape(lead + c.shape)))
        a, b = jets
        before = _point_program.cache_info()
        prod = a * b
        after = _point_program.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1  # one lookup
        size = math.comb(nvars + prod.order, prod.order)
        assert prod.coeffs.shape == np.broadcast_shapes(*leads) + (size,)
        rows = [Jet(nvars, jet.order, jet.coeffs.reshape(-1)) for jet in jets]
        assert prod.coeffs.tobytes() == _reference_product(*rows).tobytes()

    @given(st.sampled_from([4, 6]), st.integers(2, MAX_ORDER), st.integers(1, 4),
           st.integers(1, 3), st.tuples(*[st.sampled_from(["slice", "broadcast", "moved"])] * 2),
           st.integers(0, 2 ** 32 - 1))
    @example(6, 4, 1, 3, ("slice", "slice"), 0)  # jet_solve's M[..., :hi] X[..., :hi], nine rows
    @example(4, 4, 4, 2, ("broadcast", "moved"), 1)
    @settings(max_examples=60, deadline=None)
    def test_small_stack_of_views_is_componentwise_bit_for_bit(self, nvars, order, points, k,
                                                              kinds, seed):
        """Non-contiguous operands below the crossover, as outer products
        (P, 1, k) x (P, k, 1): a table-axis slice of a longer table, as
        `jet_solve` reads M[..., :hi], a view broadcast over the point axis,
        and a point axis moved to the front."""
        size = math.comb(nvars + order, order)
        rows = points * k * k
        assume(1 < rows and rows * _mul_program(nvars, order)[0].size < _COEFFICIENT_MAJOR_WORK)
        rng = np.random.default_rng(seed)

        def table(lead, length=size):
            shape = lead + (length,)
            c = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-4.0, 4.0, shape)
            zero = rng.random(c.shape) < 0.2
            c[zero] = rng.choice([-0.0, 0.0], int(zero.sum()))
            return c

        def view(kind, lead):
            if kind == "slice":
                return table(lead, math.comb(nvars + order + 1, order + 1))[..., :size]
            if kind == "broadcast":
                return np.broadcast_to(table(lead[1:]), lead + (size,))
            return np.moveaxis(table(lead[1:] + lead[:1]), -2, 0)

        ca, cb = (view(kind, lead) for kind, lead in zip(kinds, [(points, 1, k), (points, k, 1)]))
        before = _live_program.cache_info(), _point_program.cache_info()
        prod = Jet(nvars, order, ca) * Jet(nvars, order, cb)
        assert (_live_program.cache_info(), _point_program.cache_info()) == before
        lead = (points, k, k)
        assert prod.coeffs.shape == lead + (size,)
        ca, cb = np.broadcast_to(ca, prod.coeffs.shape), np.broadcast_to(cb, prod.coeffs.shape)
        for idx in np.ndindex(lead):
            sa, sb = Jet(nvars, order, ca[idx]), Jet(nvars, order, cb[idx])
            assert prod.coeffs[idx].tobytes() == _reference_product(sa, sb).tobytes()

    def test_the_examples_lie_on_both_sides_of_the_threshold(self):
        work = lambda nvars, order, rows: rows * _mul_program(nvars, order)[0].size
        assert work(4, 4, 400) >= _COEFFICIENT_MAJOR_WORK > work(6, 4, 3 * 3)

    def test_single_point_queries_build_no_live_program(self):
        """P = 1 stays on the bincount and whole-table gather paths."""
        before = _live_program.cache_info()
        for name in CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"]:
            F = by_name(name)
            for p in F.sample(5, seed=11):
                point_frame(F, p).scalar
        after = _live_program.cache_info()
        assert after.hits + after.misses == before.hits + before.misses

    @pytest.mark.parametrize("nvars", [4, 6])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_row_program_lists_each_slot_program_without_padding(self, nvars, order):
        """Full support gives every term of every slot, in program order."""
        io, ia, ib, w, size = _mul_program(nvars, order)
        full = np.ones(size, dtype=bool).tobytes()
        perm, columns = _live_program(nvars, order, full, full)
        ks = [col[0] for col in columns]
        assert ks[-1] > 0 and sum(ks) == io.size
        listed = _listed_terms(perm, columns, size)
        for s in range(size):
            terms = io == s
            assert listed[s] == list(zip(ia[terms].tolist(), ib[terms].tolist(),
                                         w[terms].tolist()))

    @pytest.mark.parametrize("nvars", [4, 6])
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("kinds", [("x", "y"), ("y", "y"), ("x", "const"), ("zero", "full"),
                                       ("trunc", "x"), ("random", "random"), ("full", "full")])
    def test_live_program_lists_the_live_terms_of_each_slot(self, nvars, order, kinds):
        io, ia, ib, w, size = _mul_program(nvars, order)
        rng = np.random.default_rng([nvars, order])
        live_a, live_b = (_block_support(kind, nvars, order, rng) for kind in kinds)
        perm, columns = _live_program(nvars, order, live_a.tobytes(), live_b.tobytes())
        assert sorted(perm.tolist()) == list(range(size))
        ks = [col[0] for col in columns]
        assert ks == sorted(ks, reverse=True) and all(k > 0 for k in ks)
        for k, ia_c, ib_c, w_c in columns:
            assert ia_c.shape == ib_c.shape == (k,) and w_c.shape == (k, 1)
        listed = _listed_terms(perm, columns, size)
        live = live_a[ia] & live_b[ib]
        counts = [len(listed[s]) for s in perm.tolist()]
        assert counts == sorted(counts, reverse=True)
        for tie in range(size - 1):  # equal counts keep table order
            if counts[tie] == counts[tie + 1]:
                assert perm[tie] < perm[tie + 1]
        for s in range(size):
            terms = (io == s) & live
            assert listed[s] == list(zip(ia[terms].tolist(), ib[terms].tolist(),
                                         w[terms].tolist()))
    @given(st.sampled_from([4, 6]), st.integers(0, MAX_ORDER), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_compose_is_plain_horner_bit_for_bit(self, nvars, order, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(math.comb(nvars + order, order))
        c[rng.random(c.size) < 0.3] = 0.0
        u = Jet(nvars, order, c)
        cs = list(rng.standard_normal(order + 1))
        v = u - u.value
        ref = Jet.constant(nvars, order, cs[-1]).coeffs
        for t in reversed(cs[:-1]):
            ref = _reference_product(Jet(nvars, order, ref), v)
            ref[0] += t
        assert u.compose(cs).coeffs.tobytes() == ref.tobytes()

    def test_an_array_over_the_leading_axes_moves_the_value_parts(self):
        rng = np.random.default_rng(5)
        stack = Jet(4, 2, rng.standard_normal((3, 2, 15)))
        arr = rng.standard_normal((3, 2))
        for out, expect in ((stack + arr, stack.coeffs[..., 0] + arr),
                            (arr + stack, stack.coeffs[..., 0] + arr),
                            (stack - arr, stack.coeffs[..., 0] - arr),
                            (arr - stack, arr - stack.coeffs[..., 0])):
            assert out.coeffs.shape == stack.coeffs.shape
            assert out.coeffs[..., 0].tobytes() == expect.tobytes()
        assert (stack + arr).coeffs[..., 1:].tobytes() == stack.coeffs[..., 1:].tobytes()
        assert (arr - stack).coeffs[..., 1:].tobytes() == (-stack.coeffs[..., 1:]).tobytes()
        for idx in np.ndindex(3, 2):
            point = stack[idx]
            assert (stack + arr)[idx].coeffs.tobytes() == (point + arr[idx]).coeffs.tobytes()
            assert (arr - stack)[idx].coeffs.tobytes() == (arr[idx] - point).coeffs.tobytes()
        # a row of values stands against the last leading axis
        assert (stack + arr[0]).coeffs[..., 0].tobytes() == (stack.coeffs[..., 0] + arr[0]).tobytes()

    def test_wrong_table_length_raises(self):
        with pytest.raises(ValueError):
            Jet(4, 2, np.zeros(14))
        with pytest.raises(ValueError):
            Jet(4, 2, np.zeros((3, 16)))
        with pytest.raises(ValueError):
            Jet(4, 2, 1.0)

    def test_index_is_a_view_of_the_stack(self):
        stack = Jet(4, 1, np.arange(10.0).reshape(2, 5))
        row = stack[1]
        assert np.shares_memory(row.coeffs, stack.coeffs)
        assert row.value == 5.0 and row.dx[0] == 6.0
        assert np.array_equal(stack.value, [0.0, 5.0])
        with pytest.raises(ValueError):  # a key into the table axis leaves no table
            row[0]

    def test_stack_and_sum_last_keep_index_order(self):
        rng = np.random.default_rng(3)
        terms = [Jet(4, 2, rng.standard_normal((5, 15)) * 10.0 ** k) for k in (8, -8, 0)]
        stack = Jet.stack(terms)
        assert stack.coeffs.shape == (5, 3, 15)
        for i, t in enumerate(terms):
            assert stack[..., i, :].coeffs.tobytes() == t.coeffs.tobytes()
        expect = (terms[0] + terms[1]) + terms[2]
        assert stack.sum_last().coeffs.tobytes() == expect.coeffs.tobytes()
        scalar = terms[0][0]
        assert scalar[..., None, :].coeffs.shape == (1, 15)

    def test_partial_jet_over_slots_stacks_the_partials(self):
        jet = jet_eval(lambda x, y: exp(x[0]) * y[1] ** 3, (P,), 3)[0]
        stacked = jet.partial_jet(range(2, 4))
        assert stacked.order == 2 and stacked.coeffs.shape == (2, 15)
        for s, slot in enumerate(range(2, 4)):
            assert np.array_equal(stacked[s].coeffs, jet.partial_jet([slot])[0].coeffs)
            for beta in index_table(4, 2)[0]:
                shifted = beta[:slot] + (beta[slot] + 1,) + beta[slot + 1:]
                assert stacked[s].partial(beta) == jet.partial(shifted)


STACKED_FUNCTIONS = {
    "sqrt": sqrt,
    "powr": lambda u: powr(u, -1.25),
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "reciprocal": lambda u: 1.0 / u,
}


class TestStackedFunctions:
    @given(st.sampled_from(sorted(STACKED_FUNCTIONS)), st.sampled_from([4, 6]),
           st.integers(1, MAX_ORDER), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_stacked_function_is_componentwise_bit_for_bit(self, name, nvars, order, seed):
        rng = np.random.default_rng(seed)
        shape = (2, 3, math.comb(nvars + order, order))
        c = rng.standard_normal(shape)
        c[rng.random(shape) < 0.2] = 0.0
        # positive value parts of varied size, as sqrt, powr and log need
        c[..., 0] = rng.uniform(0.05, 3.0, (2, 3)) * 10.0 ** rng.integers(-2, 3, (2, 3))
        fn = STACKED_FUNCTIONS[name]
        out = fn(Jet(nvars, order, c))
        assert out.coeffs.shape == shape
        for idx in np.ndindex(2, 3):
            single = fn(Jet(nvars, order, c[idx]))
            assert single.coeffs.tobytes() == out.coeffs[idx].tobytes(), (name, idx)

    def test_an_invalid_entry_raises_for_the_stack(self):
        c = np.zeros((3, 5))
        c[:, 0] = [1.0, -2.0, 3.0]
        with pytest.raises(NumericalError, match="got -2.0"):
            sqrt(Jet(4, 1, c))
        c[1, 0] = 0.0
        with pytest.raises(NumericalError, match="zero value part"):
            1.0 / Jet(4, 1, c)


# The per-point series of a scalar jet, one Python float list per value
# part, as `_taylor` evaluated every jet of a stack before it went per degree
SCALAR_SERIES = {
    "reciprocal": (_reciprocal_series,
                   lambda u0, order: [(-1.0) ** m / u0 ** (m + 1) for m in range(order + 1)]),
    "powr": (_power_series(-1.25),
             lambda u0, order: [_binom_real(-1.25, m) * u0 ** (-1.25 - m) for m in range(order + 1)]),
    "sqrt": (_power_series(0.5),
             lambda u0, order: [_binom_real(0.5, m) * u0 ** (0.5 - m) for m in range(order + 1)]),
    "exp": (_exp_series,
            lambda u0, order: [math.exp(u0) / math.factorial(m) for m in range(order + 1)]),
    "log": (_log_series,
            lambda u0, order: [math.log(u0)] + [(-1.0) ** (m + 1) / (m * u0 ** m)
                                                for m in range(1, order + 1)]),
    "sin": (_sin_series,
            lambda u0, order: [[math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0)][m % 4]
                               / math.factorial(m) for m in range(order + 1)]),
    "cos": (_cos_series,
            lambda u0, order: [[math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0)][m % 4]
                               / math.factorial(m) for m in range(order + 1)]),
}


class TestStackedSeries:
    @given(st.sampled_from(sorted(SCALAR_SERIES)), st.integers(0, MAX_ORDER),
           st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
    # numpy's exp and power take a SIMD path, which may differ by an ulp,
    # only on arrays longer than a few elements: pin long stacks
    @example("exp", MAX_ORDER, 300, 0)
    @example("powr", MAX_ORDER, 300, 1)
    @example("sqrt", MAX_ORDER, 300, 2)
    @example("log", MAX_ORDER, 300, 3)
    @example("reciprocal", MAX_ORDER, 300, 4)
    @settings(max_examples=80, deadline=None)
    def test_stacked_coefficients_equal_the_scalar_series(self, name, order, points, seed):
        rng = np.random.default_rng(seed)
        u0 = (rng.uniform(0.05, 3.0, points) * 10.0 ** rng.integers(-2, 3, points)).tolist()
        series, scalar = SCALAR_SERIES[name]
        stacked = series(u0, order)
        assert len(stacked) == order + 1
        for i, v in enumerate(u0):
            expect = np.array(scalar(v, order))
            assert np.array([c[i] for c in stacked]).tobytes() == expect.tobytes(), (name, i)
            assert np.array([c[0] for c in series([v], order)]).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("name,fn,message", [
        ("sqrt", sqrt, "fractional power needs a positive value part, got -2.0"),
        ("powr", lambda u: powr(u, 1.5), "fractional power needs a positive value part, got -2.0"),
        ("log", log, "log needs a positive value part"),
    ])
    def test_the_stacked_error_names_the_first_bad_value(self, name, fn, message):
        c = np.zeros((2, 3, 5))
        c[..., 0] = [[1.0, 2.0, -2.0], [-3.0, 0.0, 1.5]]  # ravel order: -2.0 comes first
        for jet in (Jet(4, 1, c), Jet(4, 1, c[0, 2])):
            with pytest.raises(NumericalError) as err:
                fn(jet)
            assert str(err.value) == message


def _probe_polynomial(x, y):
    return 0.3 * x[0] + x[1] * y[0] - 0.7 * (y[1] * y[1]) * x[0] + 1.5


# A component of a random field: a constant, or c + sum_s a_s z_s over the
# four coordinates z of a point of euclidean2
_COMPONENTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.tuples(st.floats(-2.0, 2.0), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)))


def _component(spec):
    if isinstance(spec, float):
        return lambda x, y: spec

    def affine(x, y):
        acc, weights = spec
        for a, z in zip(weights, list(x) + list(y)):
            acc = acc + a * z
        return acc

    return affine


class TestStackedEvaluation:
    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    def test_probe_polynomial_stack_equals_each_point(self, order):
        pts = by_name("sphere2").sample(12, seed=4)
        stack = jet_eval(_probe_polynomial, pts, order)
        assert stack.order == order
        for i, p in enumerate(pts):
            assert jet_eval(_probe_polynomial, (p,), order)[0].coeffs.tobytes() \
                == stack.coeffs[i].tobytes()

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    def test_lagrangian_stack_equals_each_point(self, name):
        s = by_name(name)
        pts = s.sample(12, seed=4)
        stack = jet_eval(s.L, pts, MAX_ORDER)
        for i, p in enumerate(pts):
            assert jet_eval(s.L, (p,), MAX_ORDER)[0].coeffs.tobytes() == stack.coeffs[i].tobytes()

    def test_constant_field_is_a_stack_of_constants(self):
        pts = by_name("euclidean2").sample(3, seed=4)
        stack = jet_eval(lambda x, y: 2.5, pts, 2)
        for i in range(3):
            assert stack.coeffs[i].tobytes() == Jet.constant(4, 2, 2.5).coeffs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_COMPONENTS, min_size=1, max_size=4), st.integers(1, MAX_ORDER),
           st.integers(0, 2 ** 32 - 1))
    def test_a_field_of_components_equals_the_stack_of_each(self, specs, order, seed):
        pts = by_name("euclidean2").sample(5, seed=seed)
        comps = [_component(spec) for spec in specs]
        whole = jet_eval(lambda x, y: [f(x, y) for f in comps], pts, order)
        each = Jet.stack([jet_eval(f, pts, order) for f in comps])
        assert whole.order == order
        assert whole.coeffs.shape == (5, len(comps), math.comb(4 + order, order))
        assert whole.coeffs.tobytes() == each.coeffs.tobytes()

    def test_a_bad_point_raises_for_the_stack(self):
        pts = [ChartPoint((0.0, 0.0), (1.0, 0.5)), ChartPoint((0.0, 0.0), (0.5, 1.0))]
        with pytest.raises(NumericalError, match="got -0.75"):
            jet_eval(lambda x, y: sqrt(y[0] * y[0] - y[1] * y[1]), pts, 1)


class TestLocatedErrors:
    """An error of the stacked evaluation is located by a float pass over the
    points."""

    PTS = [ChartPoint((0.1, 0.2), (1.0, 0.5)), ChartPoint((0.3, 0.4), (0.9, 0.6)),
           ChartPoint((0.5, 0.6), (0.8, 0.7)), ChartPoint((0.7, 0.8), (0.7, 0.8))]

    @pytest.mark.parametrize("k", range(4))
    def test_a_field_that_raises_only_at_point_k_names_point_k(self, k):
        # u = y0 - y1 - (y0 - y1 at point k) is 0 at point k and at least 0.2
        # in size elsewhere, so u^2 - 0.01 is negative at point k alone
        shift = self.PTS[k].y[1] - self.PTS[k].y[0]

        def f(x, y):
            u = y[0] - y[1] + shift
            return sqrt(u * u - 0.01)

        with pytest.raises(NumericalError) as err:
            jet_eval(f, self.PTS, 2)
        assert str(err.value) == (
            f"fractional power needs a positive value part, got -0.01 at {self.PTS[k]}")

    def test_the_float_error_keeps_its_own_type(self):
        # the stacked reciprocal raises a NumericalError, floats divide by zero
        with pytest.raises(ZeroDivisionError) as err:
            jet_eval(lambda x, y: 1.0 / (x[0] - 0.5), self.PTS, 1)
        assert str(err.value) == f"float division by zero at {self.PTS[2]}"
        assert isinstance(err.value.__cause__, NumericalError)

    @pytest.mark.parametrize("k", range(4))
    def test_a_component_non_finite_only_at_point_k_names_point_k(self, k):
        # 4e308 / (1 + 1000 u^2) overflows at point k alone, where u = 0, and
        # only in its value slot; floats overflow to inf without an error, so
        # the point comes from the stacked jet's (point, component) entries
        shift = self.PTS[k].y[1] - self.PTS[k].y[0]

        def f(x, y):
            u = y[0] - y[1] + shift
            return [u, 1e308 / (1.0 + 1000.0 * (u * u)) * 4.0]

        with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
            jet_eval(f, self.PTS, 1)
        assert str(err.value) == (
            f"field produced non-finite jet coefficients at {self.PTS[k]}")

    @pytest.mark.parametrize("k", range(4))
    def test_a_component_that_divides_by_zero_only_at_point_k_names_point_k(self, k):
        shift = self.PTS[k].y[1] - self.PTS[k].y[0]

        def f(x, y):
            u = y[0] - y[1] + shift
            return (x[0], 1.0 / u)

        with pytest.raises(ZeroDivisionError) as err:
            jet_eval(f, self.PTS, 1)
        assert str(err.value) == f"float division by zero at {self.PTS[k]}"

    def test_a_stacked_error_with_no_float_error_stands(self):
        # at a subnormal value part, sqrt's second Taylor coefficient overflows
        # (a Python float OverflowError), while sqrt itself is finite
        pts = [ChartPoint((0.0, 0.0), (1.0, 1.0)), ChartPoint((0.0, 0.0), (5e-324, 1.0))]
        assert sqrt(5e-324) > 0.0
        with pytest.raises(OverflowError) as err:
            jet_eval(lambda x, y: sqrt(y[0]), pts, 2)
        assert "ChartPoint" not in str(err.value) and err.value.__cause__ is None

    def test_a_float_fn_error_that_is_not_numerical_passes_through(self):
        def refuse(x, y):
            raise DomainError(f"refused at {ChartPoint(x, y)}")

        with pytest.raises(DomainError) as err:
            jet_eval(lambda x, y: sqrt(x[0] - 0.5), self.PTS, 1, refuse)
        assert str(err.value) == f"refused at {self.PTS[0]}"


def _unit(nvars, slot):
    return tuple(int(s == slot) for s in range(nvars))


class TestFirstPartials:
    """`dx` and `dy` read the first partials along x and along y out of the
    table, as views."""

    @staticmethod
    def _jets():
        """One field's jet at a point (a batch of one), its stack over two
        points, and a frame's (P, n, n) stack of g_ij jets."""
        f = lambda x, y: exp(x[0] * y[2]) * (x[1] + y[0] * y[1]) + x[2] ** 2 * y[1]
        pts = [ChartPoint((0.3, -0.7, 0.2), (1.1, 0.4, -0.5)),
               ChartPoint((-0.1, 0.5, 0.9), (0.2, 1.3, 0.6))]
        s = by_name("minkowski_quartic3")
        g_jets = point_frame(s, tuple(s.sample(2, seed=4))).g_jets
        return jet_eval(f, pts[:1], 2), jet_eval(f, pts, 2), g_jets

    def test_dx_and_dy_are_the_unit_partials_bit_for_bit(self):
        for jet in self._jets():
            n = jet.nvars // 2
            for k in range(n):
                for got, slot in ((jet.dx[..., k], k), (jet.dy[..., k], n + k)):
                    want = np.asarray(jet.partial(_unit(jet.nvars, slot)))
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_readouts_are_views_of_the_table(self):
        for jet in self._jets():
            for view in (jet.dx, jet.dy):
                assert view.shape == jet.coeffs.shape[:-1] + (jet.nvars // 2,)
                assert np.shares_memory(view, jet.coeffs)

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_frame_rung_readout_refuses_writes(self, batch):
        s = by_name("sphere2")
        pts = s.sample(3, seed=1)
        fr = point_frame(s, tuple(pts) if batch else pts[0])
        with pytest.raises(ValueError):
            fr.g_jets.dy[...] = 0.0
        # on a single point's table too, where dy[..., k] is a 0-d view
        part = fr.E_jet.dy[..., 0]
        with pytest.raises(ValueError):
            part -= 1.0

    def test_the_old_readout_and_solver_home_are_gone(self):
        assert not hasattr(Jet, "partial1")
        assert not hasattr(frame_module, "jet_solve")


class TestOrderSemantics:
    def test_product_truncates_to_min_order(self):
        a = Jet.constant(4, 3, 2.0)
        b = Jet.constant(4, 1, 5.0)
        assert (a * b).order == 1

    def test_partial_jet_drops_order(self):
        f = lambda x, y: x[0] ** 2 * y[0]
        jet = jet_eval(f, (P,), 3)[0]
        d = jet.partial_jet([0])[0]
        assert d.order == 2
        assert d.value == pytest.approx(2 * P.x[0] * P.y[0], rel=1e-14)

    def test_partial_beyond_order_raises(self):
        jet = jet_eval(lambda x, y: y[0] ** 4, (P,), 2)[0]
        with pytest.raises(CapabilityError):
            jet.partial(multi(4, s2=3))

    def test_jet_eval_rejects_excessive_order(self):
        with pytest.raises(CapabilityError):
            jet_eval(lambda x, y: y[0], (P,), MAX_ORDER + 1)

    @pytest.mark.parametrize("order", [0, -1])
    def test_jet_eval_rejects_an_order_below_one(self, order):
        with pytest.raises(ValueError, match="order >= 1"):
            jet_eval(lambda x, y: y[0], (P,), order)

    def test_truncation_is_prefix_slice(self):
        jet = jet_eval(lambda x, y: exp(x[0]) * y[1], (P,), 4)[0]
        t = jet.truncated(2)
        assert np.array_equal(t.coeffs, jet.coeffs[: t.coeffs.size])


FD_CASES = [
    ("norm", lambda x, y: sqrt(y[0] ** 2 + 2.0 * y[1] ** 2 + x[0] ** 2 * y[0] ** 2)),
    ("wave", lambda x, y: sin(x[0] + y[1]) * exp(0.3 * x[1]) + y[0] * y[0] * x[1]),
    ("rational", lambda x, y: (y[0] ** 2 + y[1] ** 2) / (1.0 + x[1] ** 2)),
]


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("name,f", FD_CASES, ids=[c[0] for c in FD_CASES])
    def test_jet_matches_fd_to_degree_three(self, name, f):
        jet = jet_eval(f, (P,), 3)[0]
        for m in _all_multis(4, 3):
            exact = jet.partial(m)
            approx = fd_partial(f, P, m)
            assert abs(exact - approx) <= 1e-5 * max(1.0, abs(exact)), (m, exact, approx)

    def test_fd_degree_zero_is_plain_value(self):
        f = FD_CASES[0][1]
        assert fd_partial(f, P, (0, 0, 0, 0)) == field_value(f, P)

    def test_fd_rejects_degree_four(self):
        with pytest.raises(CapabilityError):
            fd_partial(FD_CASES[0][1], P, (4, 0, 0, 0))

    def test_fd_rejects_bad_multi(self):
        with pytest.raises(ValueError):
            fd_partial(FD_CASES[0][1], P, (1, 0))

    @given(st.sampled_from(CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"]),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_tuple_walk_has_the_bits_of_the_chart_point_walk(self, name, seed, probe):
        s = by_name(name)
        f = s.L
        if probe:
            poly = _quadratic_scalar(s.n, np.random.default_rng(seed), True)
            f = lambda x, y: poly(x, y) * s.L(x, y)
        p = s.sample(1, seed)[0]
        for m in index_table(2 * s.n, 3)[0][1:]:
            assert fd_partial(f, p, m).hex() == _chart_point_fd(f, p, m).hex(), m


def _chart_point_fd(field, point, multi):
    """The finite-difference stencil walked over chart points: every
    stencil point is a fresh ChartPoint one coordinate away from the last,
    evaluated by field_value. The reference for fd_partial's tuple walk."""
    deg = sum(multi)
    step = 1e-4 if deg <= 2 else 1e-3
    n = point.n

    def moved(pt, d, h):
        c = list(pt.coords())
        c[d] = c[d] + h
        return ChartPoint(tuple(c[:n]), tuple(c[n:]))

    def central(pt, mi, h):
        d = next(i for i, m in enumerate(mi) if m > 0)
        rest = list(mi)
        rest[d] -= 1
        rest = tuple(rest)
        if sum(rest) == 0:
            hi = field_value(field, moved(pt, d, +h))
            lo = field_value(field, moved(pt, d, -h))
        else:
            hi = central(moved(pt, d, +h), rest, h)
            lo = central(moved(pt, d, -h), rest, h)
        return (hi - lo) / (2.0 * h)

    est = central(point, multi, step)
    if deg == 3:
        est_half = central(point, multi, step / 2.0)
        est = (4.0 * est_half - est) / 3.0
    return est


def _all_multis(nvars, max_degree):
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            if sum(prefix) > 0:
                out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d, slots - 1)

    rec([], max_degree, nvars)
    return out
