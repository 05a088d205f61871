"""Unit tests for the letter substitution maps."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmzv.exact import POLY_T, TPoly
from tmzv.interpolation import s_t, sigma_t
from tmzv.products import stuffle_classical, stuffle_t
from tmzv.words import Element, index_of_word, word_of_index


def all_words(max_len):
    yield ""
    for length in range(1, max_len + 1):
        for letters in product("xy", repeat=length):
            yield "".join(letters)


def per_path(word, c, fixed_last):
    """The substitution summed path by path, with c^k rebuilt for each path:
    every subset of the substituted y letters turns into x."""
    head, last = (word[:-1], word[-1]) if fixed_last and word else (word, "")
    ys = [i for i, ch in enumerate(head) if ch == "y"]
    terms = []
    for picks in product((False, True), repeat=len(ys)):
        letters = list(head)
        coeff = TPoly((1,))
        for i, pick in zip(ys, picks):
            if pick:
                letters[i] = "x"
                coeff = coeff * TPoly(c.coeffs)
        terms.append(("".join(letters) + last, coeff))
    return Element(terms)


@pytest.mark.parametrize("c", [POLY_T, TPoly.const(Fraction(-3, 2)), TPoly.const(0)])
def test_maps_match_per_path_reference(c):
    for word in all_words(8):
        assert sigma_t(word, c) == per_path(word, c, fixed_last=False), word
        assert s_t(word, c) == per_path(word, c, fixed_last=True), word


class TestSigma:
    def test_fixes_x(self):
        assert sigma_t("x") == Element.from_word("x")

    def test_expands_y(self):
        assert sigma_t("y") == Element([("x", POLY_T), ("y", TPoly((1,)))])

    def test_multiplicative(self):
        got = sigma_t("xy")
        want = Element([("xx", POLY_T), ("xy", TPoly((1,)))])
        assert got == want
        # sigma(w1 w2) = sigma(w1) sigma(w2)
        for w1, w2 in (("xy", "yy"), ("y", "xyx")):
            assert sigma_t(w1 + w2) == sigma_t(w1) * sigma_t(w2)

    def test_empty(self):
        assert sigma_t("") == Element.from_word("")


class TestLastLetterFixedMap:
    def test_single_letters_fixed(self):
        assert s_t("") == Element.from_word("")
        assert s_t("x") == Element.from_word("x")
        assert s_t("y") == Element.from_word("y")

    def test_prefix_without_y_is_fixed(self):
        assert s_t("xy") == Element.from_word("xy")
        assert s_t("xxxy") == Element.from_word("xxxy")

    def test_hand_expansion(self):
        # z2 z1 -> t z3 + z2 z1
        assert s_t("xyy") == Element([("xxy", POLY_T), ("xyy", TPoly((1,)))])

    def test_linear(self):
        e = Element([("xyy", TPoly((1,))), ("xy", TPoly((0, 2)))])
        assert s_t(e) == s_t("xyy") + s_t("xy").scale(TPoly((0, 2)))

    def test_preserves_length_and_last_letter(self):
        for word in all_words(6):
            for out in s_t(word).words():
                assert len(out) == len(word)
                if word:
                    assert out[-1] == word[-1]

    def test_admissible_words_stay_admissible(self):
        for word in all_words(6):
            if not (word.startswith("x") and word.endswith("y")):
                continue
            for out in s_t(word).words():
                assert out.startswith("x") and out.endswith("y")

    def test_identity_at_zero(self):
        zero = TPoly.const(0)
        for word in all_words(5):
            assert s_t(word, zero) == Element.from_word(word)

    def test_numeric_parameters_compose_additively(self):
        points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]
        for word in all_words(6):
            for s, u in product(points, repeat=2):
                twice = s_t(s_t(word, TPoly.const(u)), TPoly.const(s))
                assert twice == s_t(word, TPoly.const(s + u)), (word, s, u)


def classical_bilinear(a, b):
    """The classical stuffle extended Q[t]-bilinearly over term pairs."""
    out = Element.zero()
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out = out + stuffle_classical(index_of_word(w1), index_of_word(w2)).scale(c1 * c2)
    return out


_INDICES = st.lists(st.integers(1, 3), max_size=3).map(tuple)


class TestConjugationLaw:
    """a *_t b = s_{-t}(s_t(a) * s_t(b)) for y-ended words: the deformed
    product from the map and the classical stuffle alone, without the
    engine's combinatorics."""

    @settings(max_examples=80, deadline=None)
    @given(_INDICES, _INDICES)
    def test_deformed_product_is_the_conjugated_classical_stuffle(self, idx1, idx2):
        a, b = word_of_index(idx1), word_of_index(idx2)
        conjugated = s_t(classical_bilinear(s_t(a), s_t(b)), TPoly((0, -1)))
        assert stuffle_t(a, b) == conjugated, (idx1, idx2)
