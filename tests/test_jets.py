"""Jet arithmetic: exactness on closed forms, ring laws, and the
finite-difference cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit.chart import ChartPoint
from finslerkit.errors import CapabilityError, DomainError, NumericalError
from finslerkit.jets import (
    MAX_ORDER,
    Jet,
    _mul_program,
    coordinate_jets,
    cos,
    exp,
    fd_partial,
    field_value,
    jet_eval,
    log,
    powr,
    sin,
    sqrt,
)
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
        jet = jet_eval(f, P, 3)
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
        jet = jet_eval(f, P, 4)
        y0 = P.y[0]
        assert jet.partial(multi(4, s2=2)) == pytest.approx(12 * y0 ** 2, rel=1e-14)
        assert jet.partial(multi(4, s2=3)) == pytest.approx(24 * y0, rel=1e-14)
        assert jet.partial(multi(4, s2=4)) == pytest.approx(24.0, rel=1e-14)

    def test_mixed_partial_symmetry_is_structural(self):
        f = lambda x, y: sin(x[0] * y[1]) * exp(x[1])
        jet = jet_eval(f, P, 3)
        a = jet.partial(multi(4, s0=1, s1=1, s3=1))
        # one storage slot per sorted multi-index, so the "other order"
        # reads the same table entry
        assert a == jet.partial(multi(4, s3=1, s1=1, s0=1))


class TestFrozenValues:
    """Hand-derived reference numbers for a quartic-root norm."""

    def test_quartic_norm_first_fiber_partial(self):
        f = lambda x, y: sqrt(y[0] ** 4 + y[1] ** 4)
        p = ChartPoint(x=(0.0, 0.0), y=(1.0, 1.0))
        jet = jet_eval(f, p, 2)
        # d/dy0 (y0^4 + y1^4)^(1/2) = 2 y0^3 / sqrt(y0^4 + y1^4) = sqrt(2)
        assert jet.partial1(2) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        # d2/dy0^2 = 6 y0^2/sqrt(u) - 4 y0^6 u^(-3/2) = 2 sqrt(2)
        assert jet.partial(multi(4, s2=2)) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13)

    def test_homogeneous_norm_euler_identity(self):
        f = lambda x, y: sqrt(y[0] ** 2 + y[1] ** 2)
        jet = jet_eval(f, P, 1)
        val = jet.value
        euler = P.y[0] * jet.partial1(2) + P.y[1] * jet.partial1(3)
        assert euler == pytest.approx(val, rel=1e-14)


class TestTranscendentals:
    def test_exp_log_roundtrip(self):
        xj, yj = coordinate_jets(P, 4)
        u = 1.5 + xj[0] * xj[0] + yj[1]
        back = exp(log(u))
        assert np.allclose(back.coeffs, u.coeffs, atol=1e-12)

    def test_sqrt_squares_back(self):
        xj, yj = coordinate_jets(P, 4)
        u = 2.0 + xj[1] + yj[0] * yj[0]
        s = sqrt(u)
        assert np.allclose((s * s).coeffs, u.coeffs, atol=1e-12)

    def test_pythagorean_identity(self):
        xj, yj = coordinate_jets(P, 4)
        u = xj[0] * yj[1] + 0.3
        one = sin(u) * sin(u) + cos(u) * cos(u)
        expect = Jet.constant(4, 4, 1.0)
        assert np.allclose(one.coeffs, expect.coeffs, atol=1e-12)

    def test_powr_matches_integer_power(self):
        xj, yj = coordinate_jets(P, 3)
        u = 1.2 + yj[0]
        assert np.allclose(powr(u, 3.0).coeffs, (u ** 3).coeffs, atol=1e-12)

    def test_powr_rejects_nonpositive_value(self):
        j = Jet.constant(4, 2, -1.0)
        with pytest.raises(NumericalError):
            powr(j, 0.5)

    def test_division_by_zero_value_jet(self):
        j = Jet.variable(4, 2, 0, 0.0)
        with pytest.raises(NumericalError):
            1.0 / j


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
        lhs = prod.partial_jet(1)
        rhs = a.partial_jet(1) * b.truncated(a.order - 1) + a.truncated(
            a.order - 1
        ) * b.partial_jet(1)
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
        assert row.value == 5.0 and row.partial1(0) == 6.0
        assert np.array_equal(stack.value, [0.0, 5.0])
        with pytest.raises(TypeError):
            row[0]

    def test_partial_jet_over_slots_stacks_the_partials(self):
        jet = jet_eval(lambda x, y: exp(x[0]) * y[1] ** 3, P, 3)
        stacked = jet.partial_jet(range(2, 4))
        for s, slot in enumerate(range(2, 4)):
            assert np.array_equal(stacked[s].coeffs, jet.partial_jet(slot).coeffs)


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


def _probe_polynomial(x, y):
    return 0.3 * x[0] + x[1] * y[0] - 0.7 * (y[1] * y[1]) * x[0] + 1.5


class TestStackedEvaluation:
    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    def test_probe_polynomial_stack_equals_each_point(self, order):
        pts = by_name("sphere2").sample(12, seed=4)
        stack = jet_eval(_probe_polynomial, pts, order)
        assert stack.order == order
        for i, p in enumerate(pts):
            assert jet_eval(_probe_polynomial, p, order).coeffs.tobytes() \
                == stack.coeffs[i].tobytes()

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["euclidean3", "minkowski_quartic3"])
    def test_lagrangian_stack_equals_each_point(self, name):
        s = by_name(name)
        pts = s.sample(12, seed=4)
        stack = jet_eval(s.L, pts, MAX_ORDER)
        for i, p in enumerate(pts):
            assert jet_eval(s.L, p, MAX_ORDER).coeffs.tobytes() == stack.coeffs[i].tobytes()

    def test_constant_field_is_a_stack_of_constants(self):
        pts = by_name("euclidean2").sample(3, seed=4)
        stack = jet_eval(lambda x, y: 2.5, pts, 2)
        for i in range(3):
            assert stack.coeffs[i].tobytes() == Jet.constant(4, 2, 2.5).coeffs.tobytes()

    def test_a_bad_point_raises_for_the_stack(self):
        pts = [ChartPoint((0.0, 0.0), (1.0, 0.5)), ChartPoint((0.0, 0.0), (0.5, 1.0))]
        with pytest.raises(NumericalError, match="got -0.75"):
            jet_eval(lambda x, y: sqrt(y[0] * y[0] - y[1] * y[1]), pts, 1)


class TestOrderSemantics:
    def test_product_truncates_to_min_order(self):
        a = Jet.constant(4, 3, 2.0)
        b = Jet.constant(4, 1, 5.0)
        assert (a * b).order == 1

    def test_partial_jet_drops_order(self):
        f = lambda x, y: x[0] ** 2 * y[0]
        jet = jet_eval(f, P, 3)
        d = jet.partial_jet(0)
        assert d.order == 2
        assert d.value == pytest.approx(2 * P.x[0] * P.y[0], rel=1e-14)

    def test_partial_beyond_order_raises(self):
        jet = jet_eval(lambda x, y: y[0] ** 4, P, 2)
        with pytest.raises(CapabilityError):
            jet.partial(multi(4, s2=3))

    def test_jet_eval_rejects_excessive_order(self):
        with pytest.raises(CapabilityError):
            jet_eval(lambda x, y: y[0], P, MAX_ORDER + 1)

    def test_truncation_is_prefix_slice(self):
        jet = jet_eval(lambda x, y: exp(x[0]) * y[1], P, 4)
        t = jet.truncated(2)
        assert np.array_equal(t.coeffs, jet.coeffs[: t.coeffs.size])

    def test_domain_predicate_enforced(self):
        inside = lambda x, y: x[0] > 10.0
        with pytest.raises(DomainError):
            jet_eval(lambda x, y: y[0], P, 1, domain=inside)


FD_CASES = [
    ("norm", lambda x, y: sqrt(y[0] ** 2 + 2.0 * y[1] ** 2 + x[0] ** 2 * y[0] ** 2)),
    ("wave", lambda x, y: sin(x[0] + y[1]) * exp(0.3 * x[1]) + y[0] * y[0] * x[1]),
    ("rational", lambda x, y: (y[0] ** 2 + y[1] ** 2) / (1.0 + x[1] ** 2)),
]


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("name,f", FD_CASES, ids=[c[0] for c in FD_CASES])
    def test_jet_matches_fd_to_degree_three(self, name, f):
        jet = jet_eval(f, P, 3)
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
