"""Unit tests for words, indices, and Elements."""

import gc
import json
import platform
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmzv.errors import BadParamsError, NotInH1Error
from tmzv.exact import ONE_MINUS_2T, POLY_ONE, POLY_T, POLY_ZERO, T2_MINUS_T, TPoly
from tmzv.products import clear_caches, stuffle_o
from tmzv.words import (
    _WORDS,
    MAX_PART,
    WORD_LETTERS,
    Element,
    _check_index,
    _concat_into,
    display_word,
    index_of_word,
    is_admissible,
    weight,
    word_of_index,
    z_word,
)

h1_words = st.lists(st.integers(1, 5), max_size=4).map(word_of_index)
raw_words = st.text(alphabet="xy", max_size=6)
small_coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=4
).map(TPoly)
elements = st.lists(st.tuples(raw_words, small_coeffs), max_size=5).map(Element)
# coefficients that mix the unit, integer polynomials and rational ones, so
# both branches of the concatenation kernel run
mixed_coeffs = st.one_of(
    st.just(POLY_ONE),
    st.lists(st.integers(-9, 9), max_size=4).map(TPoly),
    small_coeffs,
)
mixed_elements = st.lists(st.tuples(raw_words, mixed_coeffs), max_size=6).map(Element)
# what Element.scale takes: a polynomial, an int or a Fraction
scalars = st.one_of(
    mixed_coeffs, st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
vanishing_coeffs = st.lists(
    st.tuples(raw_words, st.one_of(st.just(POLY_ZERO), mixed_coeffs)), max_size=3
)
# a few coefficient values and their negatives, each term holding its own
# TPoly object of one of them: the kernels memoize by value, so equal
# coefficients in distinct objects, different ones in turn, and sums that
# cancel must all come out as the plain per-term loops give them
coeff_pools = st.lists(mixed_coeffs.filter(bool), min_size=1, max_size=3).map(
    lambda values: values + [-c for c in values]
)


def pool_terms(pool):
    return st.lists(st.tuples(raw_words, st.sampled_from(pool)), max_size=6).map(
        lambda terms: [(w, TPoly(c.coeffs)) for w, c in terms]
    )


# p/q with p of either sign and q in 1..9, and the points 0 and 1
points = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from([Fraction(0), Fraction(1), 0, 1]),
)


class TestWords:
    def test_word_of_index(self):
        assert word_of_index((2,)) == "xy"
        assert word_of_index((2, 1)) == "xyy"
        assert word_of_index(()) == ""
        assert z_word(4) == "xxxy"

    def test_word_of_index_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            word_of_index((2, 0, 1))

    def test_a_part_past_max_part_is_refused_before_its_letter_is_built(self):
        assert len(z_word(MAX_PART)) == MAX_PART
        assert _check_index((2, MAX_PART)) == (2, MAX_PART)
        for part in (MAX_PART + 1, 10**12, 10**400):
            with pytest.raises(BadParamsError, match="MAX_PART = 1,000,000"):
                z_word(part)
            with pytest.raises(BadParamsError, match="MAX_PART = 1,000,000"):
                word_of_index((2, part))
            with pytest.raises(BadParamsError, match="MAX_PART = 1,000,000"):
                _check_index((part, 1))

    def test_index_of_word(self):
        assert index_of_word("xyy") == (2, 1)
        assert index_of_word("") == ()
        assert index_of_word("xxxy") == (4,)

    def test_index_of_word_rejects_trailing_x(self):
        with pytest.raises(NotInH1Error):
            index_of_word("xyx")

    def test_index_of_word_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            index_of_word("xay")

    def test_roundtrip_exhaustive(self):
        # every index with parts <= 6 and depth <= 6
        for depth in range(7):
            for idx in product(range(1, 7), repeat=depth):
                assert index_of_word(word_of_index(idx)) == idx

    def test_admissible_and_weight(self):
        assert is_admissible((2, 1))
        assert not is_admissible((1, 2))
        assert not is_admissible(())
        assert weight((2, 1, 3)) == 6

    def test_display(self):
        assert display_word("") == "1"
        assert display_word("xyy") == "z2 z1"
        assert display_word("xx") == "xx"


def _spelled(idx):
    return "".join("x" * (k - 1) + "y" for k in idx)


class TestWordTable:
    """``word_of_index`` spells each index once, into a table weighed in
    letters; a hit must give what a fresh spelling gives."""

    @pytest.mark.parametrize("form", [tuple, list, iter])
    def test_first_and_second_call_match_the_reference_join(self, form):
        clear_caches()
        indices = [idx for depth in range(5) for idx in product(range(1, 6), repeat=depth)]
        for call in ("miss", "hit"):
            for idx in indices:
                assert word_of_index(form(idx)) == _spelled(idx), (call, idx)
        assert len(_WORDS) == len(indices)

    def test_a_refused_index_raises_on_every_call_and_is_not_stored(self):
        clear_caches()
        word_of_index((2, 1))
        for idx in [(2, 0, 1), (1.5,), (MAX_PART + 1,)]:
            for _ in range(2):
                with pytest.raises(BadParamsError):
                    word_of_index(idx)
                assert idx not in _WORDS
        assert list(_WORDS) == [(2, 1)]

    def test_clear_caches_empties_the_table(self):
        word_of_index((3, 1))
        assert _WORDS
        clear_caches()
        assert not _WORDS and _WORDS.held == 0

    def test_the_table_holds_its_letter_budget_plus_one_word(self):
        clear_caches()
        for part in range(MAX_PART - 4, MAX_PART + 1):
            for idx in [(part,), (2, 1), (1, part - 1)]:
                assert word_of_index(idx) == _spelled(idx)
                held = sum(map(len, _WORDS.values()))
                assert held == _WORDS.held <= WORD_LETTERS + MAX_PART
        clear_caches()


class TestElement:
    def test_cancellation(self):
        z2 = Element.from_word("xy")
        assert (z2 + z2.scale(-1)).is_zero

    def test_scale(self):
        e = Element.from_word("xxxxy", ONE_MINUS_2T)
        assert dict(e.items()) == {"xxxxy": ONE_MINUS_2T}
        assert e.scale(POLY_ZERO).is_zero
        assert e.scale(0).is_zero

    def test_concat_absorbs_x_runs(self):
        assert Element.from_word("xxx") * Element.from_word("y") == Element.from_word("xxxy")

    def test_concat_identity(self):
        w = Element.from_word("xyy")
        assert Element.from_word("") * w == w
        assert w * Element.from_word("") == w

    def test_concat_coefficients_multiply(self):
        left = Element.from_word("xy", ONE_MINUS_2T)
        right = Element.from_word("xxy", T2_MINUS_T)
        out = left * right
        assert out == Element.from_word("xyxxy", ONE_MINUS_2T * T2_MINUS_T)

    @given(mixed_elements, mixed_elements)
    def test_concat_matches_naive_double_loop(self, a, b):
        naive = Element.zero()
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                naive = naive + Element.from_word(w1 + w2, c1 * c2)
        got = a * b
        assert got == naive
        assert json.dumps(got.to_json_obj()) == json.dumps(naive.to_json_obj())

    @given(st.data(), scalars)
    def test_add_and_scale_match_a_dict_reference(self, data, scalar):
        # the pool holds each coefficient and its negative, so sums may cancel
        pool = data.draw(coeff_pools)
        a, b = (Element(data.draw(pool_terms(pool))) for _ in range(2))
        want = dict(a.items())
        for word, coeff in b.items():
            want[word] = want.get(word, POLY_ZERO) + coeff
        assert dict((a + b).items()) == {w: c for w, c in want.items() if c}
        poly = scalar if isinstance(scalar, TPoly) else TPoly.const(scalar)
        scaled = {w: c * poly for w, c in a.items()}
        assert dict(a.scale(scalar).items()) == {w: c for w, c in scaled.items() if c}

    @given(elements, elements, elements)
    def test_concat_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(h1_words, h1_words)
    def test_weight_additive_on_h1(self, u, v):
        merged = index_of_word(u + v)
        assert weight(merged) == weight(index_of_word(u)) + weight(index_of_word(v))

    def test_eval_at(self):
        e = Element.from_word("xxxxy", ONE_MINUS_2T)
        assert e.eval_at(Fraction(1, 2)).is_zero
        assert Element.from_word("xxy", T2_MINUS_T).eval_at(Fraction(0)).is_zero
        assert e.eval_at(Fraction(0)) == Element.from_word("xxxxy")

    @given(mixed_elements, vanishing_coeffs, points)
    def test_eval_at_matches_fraction_horner(self, e, extra, t0):
        # extra terms mix zero polynomials (pruned on entry) with ones that
        # vanish at t0, which eval_at must prune
        e = e + Element([(w, c * TPoly((-t0.numerator, t0.denominator))) for w, c in extra])
        want = {}
        for word, coeff in e.items():
            value = Fraction(0)
            for c in reversed(coeff.coeffs):
                value = value * t0 + Fraction(c)
            if value:
                want[word] = value
        got = e.eval_at(t0)
        assert dict(got.items()) == {w: TPoly((v,)) for w, v in want.items()}
        for _, coeff in got.items():
            (value,) = coeff.coeffs
            assert type(value) is (int if value.denominator == 1 else Fraction)

    @given(st.data(), points)
    def test_eval_at_once_per_coefficient(self, data, t0):
        # the pool holds a coefficient that vanishes at t0 and one equal in
        # value to another at t0, so pruning and sharing both run
        pool = data.draw(coeff_pools)
        root = TPoly((-t0.numerator, t0.denominator))
        pool += [pool[0] * root, pool[0] + root]
        e = Element(data.draw(pool_terms(pool)))
        want = {w: c.eval(t0) for w, c in e.items()}
        got = e.eval_at(t0)
        assert dict(got.items()) == {w: TPoly((v,)) for w, v in want.items() if v}
        consts = [c for _, c in got.items()]
        assert len({id(c) for c in consts}) == len({c.coeffs for c in consts})

    @given(st.data())
    def test_json_once_per_coefficient(self, data):
        e = Element(data.draw(pool_terms(data.draw(coeff_pools))))
        got = e.to_json_obj()
        want = [{"word": w, "coeff": tuple(c.to_json())} for w, c in e.sorted_items()]
        assert got == {"terms": want}  # a tuple never equals a list
        # terms with equal coefficients share one array, and so does the next call
        shared = {}
        again = e.to_json_obj()["terms"]
        for (_, c), term, term2 in zip(e.sorted_items(), got["terms"], again):
            assert shared.setdefault(c, term["coeff"]) is term["coeff"] is term2["coeff"]
        # the arrays cannot be changed, and a change to the containers around
        # them does not reach the next call
        for term in got["terms"]:
            with pytest.raises(TypeError):
                term["coeff"][0] = "9/1"
            term["word"], term["coeff"] = "yy", ("9/1",)
        got["terms"].append({"word": "y", "coeff": ("9/1",)})
        assert e.to_json_obj() == {"terms": want}

    @pytest.mark.skipif(platform.python_implementation() != "CPython", reason="CPython's collector")
    def test_json_term_dicts_are_untracked(self):
        # a term dict holds a string and a shared tuple of strings: once a
        # collection has untracked the tuple, a dict that holds it is made
        # untracked, so the collector never walks a served product's terms
        e = stuffle_o(word_of_index((2, 1, 1)), word_of_index((3, 1)))
        first = e.to_json_obj()["terms"]
        gc.collect()
        assert len(first) > 1 and not any(gc.is_tracked(term) for term in first)
        assert not any(gc.is_tracked(term) for term in e.to_json_obj()["terms"])

    def test_canonical_order_is_length_lex(self):
        e = Element([("yy", TPoly((1,))), ("y", TPoly((1,))), ("xy", TPoly((1,)))])
        assert [w for w, _ in e.sorted_items()] == ["y", "xy", "yy"]

    @given(mixed_elements)
    def test_sorted_items_by_length_then_word(self, e):
        want = sorted(e.items(), key=lambda kv: (len(kv[0]), kv[0]))
        assert e.sorted_items() == want
        assert e.words() == [w for w, _ in want]

    @given(st.data())
    def test_concat_kernel_matches_naive_double_loop(self, data):
        pool = data.draw(coeff_pools)
        start, left, right = (data.draw(pool_terms(pool)) for _ in range(3))
        out = dict(Element(start).items())
        want = Element._unsafe(dict(out))
        for w1, c1 in left:
            for w2, c2 in right:
                want = want + Element.from_word(w1 + w2, c1 * c2)
        _concat_into(out, left, right)
        assert out == dict(want.items())
        assert all(out.values())

    def test_concat_kernel_deletes_a_cancelled_word(self):
        # the unit branch and the multiplying branch each cancel a word
        out = {"xy": TPoly((1,)), "xxy": TPoly((0, 2)), "y": TPoly((5,))}
        _concat_into(out, [("x", POLY_ONE)], [("y", TPoly((-1,)))])
        assert out == {"xxy": TPoly((0, 2)), "y": TPoly((5,))}
        _concat_into(out, [("xx", POLY_T)], [("y", TPoly((-2,)))])
        assert out == {"y": TPoly((5,))}

    def test_text_rendering(self):
        e = Element([("xyy", TPoly((1, -2))), ("xx", TPoly((0, -1, 1)))])
        assert e.to_text() == "(-t + t^2) xx + (1 - 2t) z2 z1"
        assert Element.zero().to_text() == "0"
        assert Element.from_word("").to_text() == "(1) 1"

    def test_json_shape(self):
        got = Element.from_word("xyy", TPoly((1, -2))).to_json_obj()
        assert got == {"terms": [{"word": "xyy", "coeff": ("1/1", "-2/1")}]}
        assert json.dumps(got) == '{"terms": [{"word": "xyy", "coeff": ["1/1", "-2/1"]}]}'

    @given(elements)
    def test_json_roundtrip(self, e):
        through = Element.from_json_obj(json.loads(json.dumps(e.to_json_obj())))
        assert through == e

    def test_accumulating_constructor(self):
        e = Element([("xy", TPoly((1,))), ("xy", TPoly((-1,)))])
        assert e.is_zero

    @given(st.data())
    def test_constructor_matches_a_plain_dict_accumulate(self, data):
        # short words repeat; the pool holds each value's negative and the
        # three spellings of zero, so terms vanish and sums cancel
        pool = data.draw(coeff_pools) + [0, Fraction(0), TPoly(), 1, Fraction(-1, 2)]
        term = st.tuples(st.text(alphabet="xy", max_size=2), st.sampled_from(pool))
        terms = data.draw(st.lists(term, max_size=8))

        def accumulate(pairs):
            out = {}
            for word, coeff in pairs:
                poly = coeff if isinstance(coeff, TPoly) else TPoly.const(coeff)
                new = out[word] + poly if word in out else poly
                if new:
                    out[word] = new
                else:
                    out.pop(word, None)
            return out

        assert dict(Element(terms).items()) == accumulate(terms)
        mapping = dict(terms)
        assert dict(Element(mapping).items()) == accumulate(mapping.items())
        # every word is checked, a vanishing term's too, and the first bad
        # word names the error
        other = st.tuples(st.text(alphabet="xyab", max_size=3), st.sampled_from(pool))
        mixed = data.draw(st.permutations(terms + data.draw(st.lists(other, max_size=4))))
        first = next((w for w, _ in mixed if set(w) - {"x", "y"}), None)
        if first is None:
            assert dict(Element(mixed).items()) == accumulate(mixed)
        else:
            with pytest.raises(BadParamsError, match=f"^letter '{first.lstrip('xy')[0]}' not in"):
                Element(mixed)


def _naive_concat(out, left, right):
    """``out + left · right`` as a dict of sums: every word's products are
    gathered in a list and summed by ``TPoly`` arithmetic, with no table and
    no kernel."""
    sums = {w: [c] for w, c in out.items()}
    for w1, c1 in left:
        for w2, c2 in right:
            sums.setdefault(w1 + w2, []).append(c1 * c2)
    totals = {w: sum(cs[1:], cs[0]) for w, cs in sums.items()}
    return {w: c for w, c in totals.items() if c}


class TestConcatKernel:
    """The kernel runs the shorter side outside; whichever side that is, it
    must add exactly the naive double loop's sums, every word left-first."""

    POOL = [
        POLY_ONE, -POLY_ONE, POLY_T, ONE_MINUS_2T, T2_MINUS_T, -T2_MINUS_T,
        TPoly((Fraction(1, 2), 3)), TPoly((0, Fraction(-2, 3))),
    ]

    def _terms(self, rng, count):
        return [
            ("".join(rng.choice("xy") for _ in range(rng.randrange(5))), rng.choice(self.POOL))
            for _ in range(count)
        ]

    @pytest.mark.parametrize("seed", range(20))
    def test_unequal_lengths_both_ways_round(self, seed):
        rng = random.Random(seed)
        short, long_ = rng.randrange(1, 4), rng.randrange(4, 12)
        left, right = self._terms(rng, short), self._terms(rng, long_)
        start = dict(Element(self._terms(rng, rng.randrange(4))).items())
        for a, b in ((left, right), (right, left)):
            out = dict(start)
            _concat_into(out, a, b)
            assert out == _naive_concat(start, a, b)
            assert all(out.values())

    @pytest.mark.parametrize("outer", [POLY_ONE, POLY_T, TPoly((Fraction(-1, 2),))])
    def test_unit_and_non_unit_outer_coefficient(self, outer):
        many = [("", POLY_ONE), ("x", POLY_T), ("xx", ONE_MINUS_2T), ("y", TPoly((Fraction(1, 3),)))]
        one = [("xy", outer)]
        for a, b in ((many, one), (one, many)):
            out = {"xy": POLY_T}  # one word the pairs hit, pre-filled
            _concat_into(out, a, b)
            assert out == _naive_concat({"xy": POLY_T}, a, b)
        out = {}
        _concat_into(out, many, one)
        assert set(out) == {w + "xy" for w, _ in many}  # the left word first

    def test_sums_cancel_to_zero_both_ways_round(self):
        left = [("x", POLY_T), ("", ONE_MINUS_2T), ("xx", POLY_ONE)]
        right = [("y", T2_MINUS_T)]
        for a, b in ((left, right), (right, left)):
            # pre-filled with the negated products, plus one word no pair hits
            start = {w: -c for w, c in _naive_concat({}, a, b).items()}
            out = {**start, "yy": POLY_ONE}
            _concat_into(out, a, b)
            assert out == {"yy": POLY_ONE}

    def test_a_word_cancelled_and_built_again(self):
        # one word cancels on the second pair and comes back on the third
        left = [("x", POLY_ONE), ("x", -POLY_ONE), ("x", POLY_T), ("", POLY_ONE)]
        right = [("y", POLY_ONE)]
        for a, b in ((left, right), (right, left)):
            out = {}
            _concat_into(out, a, b)
            assert out == _naive_concat({}, a, b)
