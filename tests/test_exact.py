"""Unit tests for rationals and t-polynomials."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tmzv.exact import (
    ONE_MINUS_2T,
    POLY_ONE,
    POLY_T,
    POLY_ZERO,
    PLUS,
    T2_MINUS_T,
    TIMES,
    TPoly,
    clear_memos,
    format_rational,
    parse_rational,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=100)
small_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=5
).map(TPoly)
# coefficients as callers pass them: ints, integral Fractions, proper Fractions
mixed_coeffs = st.lists(
    st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=4)),
    max_size=5,
)
int_coeffs = st.lists(st.integers(-9, 9), max_size=5)


class TestRationals:
    def test_normalization(self):
        q = Fraction(2, 4)
        assert (q.numerator, q.denominator) == (1, 2)
        assert format_rational(q) == "1/2"

    def test_format_always_carries_denominator(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-2, 5)) == "-2/5"

    def test_parse(self):
        assert parse_rational("5/6") == Fraction(5, 6)
        assert parse_rational("-7") == Fraction(-7)
        with pytest.raises(ValueError):
            parse_rational("1.5/2x")

    @given(rationals, rationals)
    def test_parse_format_roundtrip(self, a, b):
        assert parse_rational(format_rational(a)) == a

    @given(rationals, rationals, rationals)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestTPoly:
    def test_expansion(self):
        assert ONE_MINUS_2T * ONE_MINUS_2T == TPoly((1, -4, 4))

    def test_cancellation_gives_empty_storage(self):
        out = T2_MINUS_T + TPoly((0, 1, -1))
        assert out == POLY_ZERO
        assert out.coeffs == ()

    def test_trailing_zeros_stripped(self):
        assert TPoly((1, 0, 0)).coeffs == (Fraction(1),)
        assert TPoly((1, 2)).degree == 1
        assert POLY_ZERO.degree == -1

    def test_roots_and_eval(self):
        assert ONE_MINUS_2T.eval(Fraction(1, 2)) == 0
        assert ONE_MINUS_2T.eval(Fraction(0)) == 1
        assert ONE_MINUS_2T.eval(Fraction(1)) == -1
        assert T2_MINUS_T.eval(Fraction(1)) == 0

    def test_pow(self):
        assert ONE_MINUS_2T**0 == POLY_ONE
        assert ONE_MINUS_2T**2 == ONE_MINUS_2T * ONE_MINUS_2T

    def test_scalar_mul(self):
        assert POLY_T * 2 == TPoly((0, 2))
        assert POLY_T * Fraction(1, 2) == TPoly((0, Fraction(1, 2)))

    def test_mul_dispatch(self):
        assert POLY_T * Fraction(3, 2) == TPoly((0, Fraction(3, 2)))
        assert POLY_T * 3 == TPoly((0, 3))
        assert 3 * POLY_T == TPoly((0, 3))
        assert Fraction(1, 2) * POLY_T == TPoly((0, Fraction(1, 2)))
        assert POLY_T * POLY_T == TPoly((0, 0, 1))
        for bad in ("x", 1.5, None):
            with pytest.raises(TypeError):
                POLY_T * bad
            with pytest.raises(TypeError):
                bad * POLY_T

    def test_str(self):
        assert str(ONE_MINUS_2T) == "1 - 2t"
        assert str(T2_MINUS_T) == "-t + t^2"
        assert str(POLY_ZERO) == "0"
        assert str(TPoly((Fraction(1, 2),))) == "1/2"

    def test_json_roundtrip(self):
        p = TPoly((1, Fraction(-2, 3), 0, 5))
        assert TPoly.from_json(p.to_json()) == p
        assert p.to_json() == ["1/1", "-2/3", "0/1", "5/1"]

    @given(small_polys, small_polys)
    def test_degree_additive(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree

    @given(small_polys, small_polys, rationals)
    def test_eval_is_ring_homomorphism(self, p, q, t0):
        assert (p * q).eval(t0) == p.eval(t0) * q.eval(t0)
        assert (p + q).eval(t0) == p.eval(t0) + q.eval(t0)


def _normal(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _ref(coeffs):
    # Fraction-only reference: trailing zeros stripped, nothing normalized
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref([(a[d] if d < len(a) else 0) + (b[d] if d < len(b) else 0) for d in range(n)])


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref(out)


def _check(poly, ref):
    assert all(_normal(c) for c in poly.coeffs)
    assert list(poly.coeffs) == ref


class TestNormalForm:
    @given(mixed_coeffs, mixed_coeffs, rationals, st.integers(0, 3))
    def test_operations_keep_normal_form(self, ca, cb, q, n):
        a, b = TPoly(ca), TPoly(cb)
        ra, rb = _ref(ca), _ref(cb)
        _check(a, ra)
        _check(a + b, _ref_add(ra, rb))
        _check(a - b, _ref_add(ra, [-c for c in rb]))
        _check(-a, [-c for c in ra])
        _check(a * b, _ref_mul(ra, rb))
        _check(a * q, _ref([c * q for c in ra]))
        _check(q * a, _ref([c * q for c in ra]))
        _check(a * 3, _ref([c * 3 for c in ra]))
        _check(a * -4, _ref([c * -4 for c in ra]))
        want = [Fraction(1)]
        for _ in range(n):
            want = _ref_mul(want, ra)
        _check(a**n, want)
        _check(TPoly.from_json(a.to_json()), ra)

    @given(st.one_of(int_coeffs, mixed_coeffs), st.one_of(int_coeffs, mixed_coeffs), st.integers(0, 5))
    def test_add_equals_constructor_of_list_sum(self, ca, cb, keep):
        a = TPoly(ca)
        # besides b itself, a polynomial that is -a above degree keep, so that
        # the sum cancels to a degree below keep, and to zero at keep 0
        low = list(TPoly(cb).coeffs[:keep])
        cancelling = TPoly(low + [-c for c in a.coeffs[len(low) :]])
        assert (a + cancelling).degree < keep
        for b in (TPoly(cb), cancelling):
            n = max(len(a.coeffs), len(b.coeffs))
            pad_a, pad_b = (list(p.coeffs) + [0] * (n - len(p.coeffs)) for p in (a, b))
            got, want = a + b, TPoly([x + y for x, y in zip(pad_a, pad_b)])
            assert got.coeffs == want.coeffs
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]

    @given(mixed_coeffs, st.one_of(rationals, st.integers(-9, 9)))
    def test_eval_in_normal_form(self, cs, t0):
        value = TPoly(cs).eval(t0)
        ref = Fraction(0)
        for c in reversed(_ref(cs)):
            ref = ref * t0 + c
        assert _normal(value)
        assert value == ref

    def test_integral_fraction_is_stored_as_int(self):
        p = TPoly((Fraction(2), Fraction(-4, 2), Fraction(1, 3)))
        assert [type(c) for c in p.coeffs] == [int, int, Fraction]
        assert TPoly((Fraction(2),)) == TPoly((2,))
        assert hash(TPoly((Fraction(2),))) == hash(TPoly((2,)))
        assert type((TPoly((Fraction(1, 2),)) * 2).coeffs[0]) is int

    @given(mixed_coeffs)
    def test_json_is_format_rational_of_each_coefficient(self, cs):
        p = TPoly(cs)
        assert p.to_json() == [format_rational(Fraction(c)) for c in p.coeffs]

    def test_json_keeps_denominator(self):
        assert TPoly((Fraction(2), -3)).to_json() == ["2/1", "-3/1"]
        assert TPoly.from_json(["4/2", "1/2"]).coeffs == (2, Fraction(1, 2))

    @given(mixed_coeffs)
    def test_unit_multiply_returns_operand(self, cs):
        p = TPoly(cs)
        assume(p != POLY_ONE)  # one * one returns either operand
        assert POLY_ONE * p == p
        assert p * POLY_ONE == p
        assert p * 1 == p
        assert Fraction(1) * p == p


class TestTupleContract:
    """A ``TPoly`` is the tuple of its coefficients, but its operators are
    polynomial arithmetic, never tuple repetition or concatenation."""

    def test_operators_are_polynomial_arithmetic(self):
        p = TPoly((1, 2))
        for got, want in [
            (p * 3, (3, 6)),
            (3 * p, (3, 6)),
            (p * Fraction(1, 2), (Fraction(1, 2), 1)),
            (Fraction(1, 2) * p, (Fraction(1, 2), 1)),
            (p + p, (2, 4)),
            (p + TPoly((0, -2)), (1,)),
            (-p, (-1, -2)),
            (p - p, ()),
            (p**2, (1, 4, 4)),
            (p * p, (1, 4, 4)),
        ]:
            assert type(got) is TPoly
            assert got.coeffs == want
        with pytest.raises(TypeError):
            p + (1,)

    def test_inherits_tuple_length_truth_and_equality(self):
        p = TPoly((1, Fraction(1, 2), 0))
        assert len(p) == 2 and list(p) == [1, Fraction(1, 2)]
        assert p == (1, Fraction(1, 2)) and hash(p) == hash((1, Fraction(1, 2)))
        assert not POLY_ZERO and POLY_ONE
        assert type(p.coeffs) is tuple and p.coeffs == p
        assert (0,) + p == (0, 1, Fraction(1, 2))  # tuple + TPoly concatenates

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, protocol):
        p = TPoly((1, Fraction(-2, 3), 5))
        back = pickle.loads(pickle.dumps(p, protocol))
        assert type(back) is TPoly and back == p
        assert type(pickle.loads(pickle.dumps(POLY_ZERO, protocol))) is TPoly

    def test_copy_and_deepcopy(self):
        p = TPoly((1, Fraction(-2, 3), 5))
        for back in (copy.copy(p), copy.deepcopy(p)):
            assert type(back) is TPoly and back == p

    def test_polynomial_and_its_coeffs_share_a_table_entry(self):
        clear_memos()
        try:
            row = TIMES[ONE_MINUS_2T]
            assert TIMES[ONE_MINUS_2T.coeffs] is row
            assert row[T2_MINUS_T] is row[T2_MINUS_T.coeffs]
            assert len(row) == 1
            total = PLUS[POLY_T, T2_MINUS_T]
            assert PLUS[POLY_T.coeffs, T2_MINUS_T.coeffs] is total == TPoly((0, 0, 1))
            assert len(PLUS) == 1  # the plain-tuple twin is the same key
            assert PLUS[T2_MINUS_T.coeffs, POLY_T.coeffs] is PLUS[T2_MINUS_T, POLY_T] == total
            assert len(PLUS) == 2  # the other order is an entry of its own
        finally:
            clear_memos()

    def test_equal_products_compare_without_python_calls(self):
        from tmzv.products import stuffle_t
        from tmzv.words import Element, word_of_index

        a = Element.from_json_obj(stuffle_t(word_of_index((2, 1, 2, 1)), word_of_index((3, 1, 2))).to_json_obj())
        b = Element.from_json_obj(a.to_json_obj())
        terms_b = dict(b.items())
        assert len(a) > 100 and all(c is not terms_b[w] and c == terms_b[w] for w, c in a.items())
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code) if event == "call" else None)
        try:
            equal = a == b
        finally:
            sys.setprofile(None)
        assert equal
        assert [code.co_name for code in calls] == ["__eq__"]
        assert calls[0] is Element.__eq__.__code__
