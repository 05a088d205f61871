"""Each input is checked once, by the module that owns it.

``tmzv.words`` checks index parts and words, ``tmzv.interpolation`` the
number of letters y its maps expand, and ``tmzv.zeta`` the float range of
its interpolated values. Every public entry point that takes an index or a
word reaches those checks, so a bad input raises a ``ValueError`` subclass
from any of them, never a ``TypeError`` or an ``AttributeError``.
"""

import time
from itertools import product

import pytest

from tmzv import zeta
from tmzv.errors import BadParamsError, NotInH1Error
from tmzv.interpolation import s_t, sigma_t
from tmzv.products import stuffle_classical, stuffle_combinatorial, stuffle_o, stuffle_t
from tmzv.words import (
    MAX_BOXES_DEPTH,
    MAX_PART,
    Element,
    index_of_word,
    word_of_index,
    z_word,
)
from tmzv.zeta import EvalConfig, mzv, z_t_eval, zeta_t_boxes

CFG = EvalConfig(10, 0.5)

# the entry points that take an index, each fed one bad part
INDEX_TAKERS = {
    "z_word": z_word,
    "word_of_index": lambda part: word_of_index((2, part)),
    "stuffle_classical": lambda part: stuffle_classical((2, part), (1,)),
    "stuffle_combinatorial": lambda part: stuffle_combinatorial((1,), (2, part)),
    "mzv": lambda part: mzv((2, part), CFG),
    "zeta_t_boxes": lambda part: zeta_t_boxes((2, part), CFG),
}
# the entry points that take a word, each fed one bad word
WORD_TAKERS = {
    "index_of_word": index_of_word,
    "Element.from_word": Element.from_word,
    "stuffle_t": lambda word: stuffle_t("xy", word),
    "stuffle_o": lambda word: stuffle_o(word, "y"),
    "s_t": s_t,
    "sigma_t": sigma_t,
    "z_t_eval": lambda word: z_t_eval(word, CFG),
}
# the word takers that need a word without a final x
H1_TAKERS = ("index_of_word", "stuffle_t", "stuffle_o", "z_t_eval")

BAD_CALLS = [
    *[(name, part) for name in INDEX_TAKERS for part in (0, 2.5, MAX_PART + 1)],
    *[(name, "xzy") for name in WORD_TAKERS],
    *[(name, "xyx") for name in H1_TAKERS],
]


@pytest.mark.parametrize("name, bad", BAD_CALLS, ids=[f"{name}-{bad}" for name, bad in BAD_CALLS])
def test_a_bad_index_or_word_raises_a_value_error(name, bad):
    call = {**INDEX_TAKERS, **WORD_TAKERS}[name]
    with pytest.raises(ValueError):  # a TypeError or AttributeError fails the test
        call(bad)


def test_z_word_of_a_nonpositive_part_names_the_index_rule():
    with pytest.raises(BadParamsError, match="index parts must be positive integers"):
        z_word(0)


def count_word_checks(monkeypatch, call):
    """The number of ``words.validate_word`` calls that ``call()`` makes."""
    from tmzv import words

    seen = []
    check = words.validate_word
    monkeypatch.setattr(words, "validate_word", lambda word: seen.append(word) or check(word))
    call()
    monkeypatch.setattr(words, "validate_word", check)
    return len(seen)


@pytest.mark.parametrize("op", [stuffle_t, stuffle_o])
def test_a_product_checks_each_word_once(monkeypatch, op):
    zeta.clear_cache()
    assert count_word_checks(monkeypatch, lambda: op("xy", "xyy")) == 2
    # a memo key is a pair of words that passed the checks, so a hit makes none
    assert count_word_checks(monkeypatch, lambda: op("xyy", "xy")) == 0
    elem, two_terms = Element.from_word("xy"), Element.from_word("xy") + Element.from_word("y")
    assert count_word_checks(monkeypatch, lambda: op(elem, "xyy")) == 2
    assert count_word_checks(monkeypatch, lambda: op(two_terms, elem)) == 3


@pytest.mark.parametrize("op", [stuffle_t, stuffle_o])
def test_an_element_with_a_final_x_is_refused_with_its_word(op):
    elem = Element.from_word("xy") + Element.from_word("yxx")
    with pytest.raises(NotInH1Error, match="word 'yxx' ends in x, so it is no product of z letters"):
        op(elem, "y")
    with pytest.raises(NotInH1Error, match="word 'yxx' ends in x"):
        op("y", elem)


def runs_reference(word):
    """The index of a y-ended word by counting each run of x."""
    parts, run = [], 0
    for letter in word:
        if letter == "x":
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return tuple(parts)


def test_index_of_word_counts_runs_on_every_word_up_to_length_10():
    for length in range(11):
        for letters in product("xy", repeat=length):
            word = "".join(letters)
            if word.endswith("x"):
                with pytest.raises(NotInH1Error):
                    index_of_word(word)
            else:
                assert index_of_word(word) == runs_reference(word)


@pytest.mark.parametrize("method", ["boxes", "st"])
def test_both_zeta_t_methods_refuse_a_t0_past_the_float_range(method):
    cfg = EvalConfig(10, 1e300)
    with pytest.raises(BadParamsError, match="t value 1e\\+300 overflows the float range"):
        if method == "boxes":
            zeta_t_boxes((2, 1, 1), cfg)
        else:
            z_t_eval(word_of_index((2, 1, 1)), cfg)


class TestDepthLimit:
    def test_zeta_imports_the_limit_from_words(self):
        assert zeta.MAX_BOXES_DEPTH == MAX_BOXES_DEPTH == 16

    def test_the_maps_expand_words_of_the_limit(self):
        word = "xy" * MAX_BOXES_DEPTH
        assert len(sigma_t(word)) == 2**MAX_BOXES_DEPTH
        assert len(s_t(word)) == 2 ** (MAX_BOXES_DEPTH - 1)  # the last y is fixed

    @pytest.mark.parametrize("op", [s_t, sigma_t])
    def test_the_maps_refuse_one_letter_y_more_before_expanding(self, op):
        for word in ("xy" * (MAX_BOXES_DEPTH + 1), "xy" * 30):
            start = time.perf_counter()
            with pytest.raises(BadParamsError, match="MAX_BOXES_DEPTH = 16"):
                op(word)
            with pytest.raises(BadParamsError, match="MAX_BOXES_DEPTH = 16"):
                op(Element.from_word("y") + Element.from_word(word))
            assert time.perf_counter() - start < 1.0

    def test_both_zeta_t_methods_share_the_limit(self):
        deep = (2,) + (1,) * MAX_BOXES_DEPTH
        for evaluate in (zeta_t_boxes, lambda idx, cfg: z_t_eval(word_of_index(idx), cfg)):
            evaluate(deep[:-1], CFG)
            with pytest.raises(BadParamsError, match="MAX_BOXES_DEPTH = 16"):
                evaluate(deep, CFG)
