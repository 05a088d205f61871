"""Unit tests for the deformed, open, classical, and combinatorial products."""

import json
import math
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmzv import products, zeta
from tmzv.errors import BadParamsError, NotInH1Error
from tmzv.exact import (
    AT,
    CONST,
    FLOATS,
    JSON,
    MEMO_LIMIT,
    ONE_MINUS_2T,
    Memo,
    PLUS,
    POLY_ONE,
    POLY_T,
    POLY_ZERO,
    T2_MINUS_T,
    TIMES,
    TPoly,
    clear_memos,
)
from tmzv.identities import power_product_rhs
from tmzv.products import (
    _CACHE_O,
    _CACHE_T,
    PRODUCT_LETTERS,
    clear_caches,
    stuffle_classical,
    stuffle_combinatorial,
    stuffle_o,
    stuffle_t,
)
from tmzv.words import (
    MAX_PART,
    Element,
    _concat_into,
    index_of_word,
    is_admissible,
    weight,
    word_of_index,
)


def small_indices(max_depth=2, max_part=3, include_empty=True):
    if include_empty:
        yield ()
    for depth in range(1, max_depth + 1):
        yield from product(range(1, max_part + 1), repeat=depth)


class TestStuffleT:
    def test_unit(self):
        assert stuffle_t("", "xxy") == Element.from_word("xxy")
        assert stuffle_t("xxy", "") == Element.from_word("xxy")
        assert stuffle_t("", "") == Element.from_word("")

    def test_depth_one(self):
        got = stuffle_t("xy", "xxy")  # z2 * z3
        want = Element(
            [
                ("xyxxy", TPoly((1,))),
                ("xxyxy", TPoly((1,))),
                ("xxxxy", ONE_MINUS_2T),
            ]
        )
        assert got == want

    def test_hand_expansion(self):
        got = stuffle_t("yy", "y")  # z1 z1 * z1
        want = Element(
            [
                ("yyy", TPoly((3,))),
                ("yxy", ONE_MINUS_2T),
                ("xyy", ONE_MINUS_2T),
                ("xxy", T2_MINUS_T),
            ]
        )
        assert got == want

    def test_rejects_words_outside_h1(self):
        with pytest.raises(NotInH1Error):
            stuffle_t("yx", "y")

    def test_bilinear_extension(self):
        scaled = Element.from_word("xy", ONE_MINUS_2T)
        assert stuffle_t(scaled, "xxy") == stuffle_t("xy", "xxy").scale(ONE_MINUS_2T)
        two_terms = Element.from_word("xy") + Element.from_word("y")
        assert stuffle_t(two_terms, "y") == stuffle_t("xy", "y") + stuffle_t("y", "y")


UNIT_PATH_PAIRS = [((2,), (3,)), ((2, 1), (3, 1, 1)), ((1, 2), (2, 2)), ((), (2, 1))]
UNIT_PATH_SCALES = [ONE_MINUS_2T, TPoly((Fraction(1, 2), 0, 3)), TPoly((-1,))]


def _json_bytes(elem):
    return json.dumps(elem.to_json_obj(), sort_keys=True)


@pytest.mark.parametrize("op", [stuffle_t, stuffle_o])
class TestUnitScalePath:
    def test_words_match_unit_elements(self, op):
        for idx1, idx2 in UNIT_PATH_PAIRS:
            w1, w2 = word_of_index(idx1), word_of_index(idx2)
            plain = op(w1, w2)
            unit = op(Element.from_word(w1, Fraction(1)), Element.from_word(w2, Fraction(1)))
            assert plain == unit
            assert _json_bytes(plain) == _json_bytes(unit)

    def test_scaled_inputs_are_bilinear(self, op):
        for idx1, idx2 in UNIT_PATH_PAIRS:
            w1, w2 = word_of_index(idx1), word_of_index(idx2)
            for c1 in UNIT_PATH_SCALES:
                for c2 in (POLY_ONE, c1):
                    got = op(Element.from_word(w1, c1), Element.from_word(w2, c2))
                    want = op(w1, w2).scale(c1 * c2)
                    assert got == want
                    assert _json_bytes(got) == _json_bytes(want)

    def test_unit_and_scaled_terms_in_one_input(self, op):
        mixed = Element.from_word("xy") + Element.from_word("y", ONE_MINUS_2T)
        want = op("xy", "xxy") + op("y", "xxy").scale(ONE_MINUS_2T)
        assert op(mixed, "xxy") == want


@pytest.mark.parametrize("op", [stuffle_t, stuffle_o])
class TestWordPairPath:
    """A word pair returns the memo Element itself, so its input checks and
    its immutability must hold on that path."""

    @pytest.mark.parametrize("left, right", [("yx", "y"), ("y", "yx"), ("xyx", ""), ("", "x")])
    def test_x_ended_word_raises(self, op, left, right):
        with pytest.raises(NotInH1Error):
            op(left, right)

    @pytest.mark.parametrize("left, right", [("", "xzy"), ("xzy", ""), ("", "y y")])
    def test_bad_letter_beside_empty_word_raises(self, op, left, right):
        # an empty side skips the engine, not the checks of the other word
        with pytest.raises(ValueError, match="not in alphabet"):
            op(left, right)
        with pytest.raises(ValueError, match="not in alphabet"):
            op(Element.from_word(""), Element._unsafe({left or right: POLY_ONE}))

    @pytest.mark.parametrize(
        "left, right, error",
        [("xz", "xy", BadParamsError), ("xy", "xz", BadParamsError), ("yx", "xy", NotInH1Error), ("xy", "yx", NotInH1Error)],
    )
    def test_a_warm_memo_still_refuses_bad_words(self, op, left, right, error):
        # a memo hit skips the checks, so a bad word must never be a key
        clear_caches()
        op("xy", "xy")
        op("xy", "xxy")
        cache = _CACHE_O if op is stuffle_o else _CACHE_T
        for _ in range(3):
            with pytest.raises(error):
                op(left, right)
        assert cache and all(not w.strip("xy") and w.endswith("y") for key in cache for w in key)
        clear_caches()

    def test_a_hit_returns_the_memo_entry_unchecked(self, op, monkeypatch):
        clear_caches()
        got = op("xyy", "xxyy")
        cache = _CACHE_O if op is stuffle_o else _CACHE_T
        assert cache["xxyy", "xyy"] is got

        def refuse(word):
            raise AssertionError(f"{word!r} checked on a memo hit")

        monkeypatch.setattr(products, "_require_h1", refuse)
        assert op("xyy", "xxyy") is got
        assert op("xxyy", "xyy") is got
        monkeypatch.undo()
        clear_caches()

    def test_empty_side_returns_the_other_word(self, op):
        for word in ("", "y", "xy", "xxyxy"):
            assert op("", word) == Element.from_word(word)
            assert op(word, "") == Element.from_word(word)

    def test_use_leaves_memo_entry_intact(self, op):
        clear_caches()
        got = op("xyy", "xxyy")
        assert op("xxyy", "xyy") is got  # the shared memo entry, either order
        other = op("xy", "y")
        got + other
        got - got
        got.scale(ONE_MINUS_2T)
        got.scale(Fraction(1, 3))
        got * other
        other * got
        got.eval_at(Fraction(1, 2))
        clear_caches()
        fresh = op("xyy", "xxyy")
        assert fresh is not got
        assert fresh == got
        assert _json_bytes(fresh) == _json_bytes(got)


class TestStuffleOpen:
    def test_unit(self):
        assert stuffle_o("", "xyy") == Element.from_word("xyy")

    def test_x_run_survives(self):
        got = stuffle_o("y", "y")  # z1 o z1
        want = Element(
            [
                ("yy", TPoly((2,))),
                ("xy", ONE_MINUS_2T),
                ("xx", T2_MINUS_T),
            ]
        )
        assert got == want

    def test_depth_one(self):
        got = stuffle_o("xy", "xxy")
        want = stuffle_t("xy", "xxy") + Element.from_word("xxxxx", T2_MINUS_T)
        assert got == want

    def test_matches_uncached_recursion_in_both_orders(self):
        # the memo is keyed by the unordered pair, so the second order of a
        # pair is served from the entry the first order stored
        def reference(w1, w2):
            if not w1 or not w2:
                return Element.from_word(w1 + w2)
            k, l = w1.index("y") + 1, w2.index("y") + 1
            rest = reference(w1[k:], w2[l:])
            return (
                Element.from_word(w1[:k]) * reference(w1[k:], w2)
                + Element.from_word(w2[:l]) * reference(w1, w2[l:])
                + Element.from_word("x" * (k + l - 1) + "y", ONE_MINUS_2T) * rest
                + Element.from_word("x" * (k + l), T2_MINUS_T) * rest
            )

        clear_caches()
        words = [word_of_index(idx) for idx in small_indices(max_depth=2, max_part=3)]
        for w1 in words:
            for w2 in words:
                assert stuffle_o(w1, w2) == reference(w1, w2), (w1, w2)


_INDICES = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple)


class TestEngineTable:
    """The engine fills the table of suffix pairs; a memoized pair stands in
    for its whole sub-table."""

    @settings(max_examples=60, deadline=None)
    @given(_INDICES, _INDICES, st.data())
    def test_product_after_memoized_suffix_pairs_equals_cold(self, idx1, idx2, data):
        pairs = st.tuples(st.integers(0, len(idx1) - 1), st.integers(0, len(idx2) - 1), st.booleans())
        primed = data.draw(st.lists(pairs, max_size=6))
        w1, w2 = word_of_index(idx1), word_of_index(idx2)
        for op, cache in ((stuffle_t, _CACHE_T), (stuffle_o, _CACHE_O)):
            clear_caches()
            cold = op(w1, w2)
            cold_keys = set(cache)
            clear_caches()
            for i, j, swap in primed:
                u, v = word_of_index(idx1[i:]), word_of_index(idx2[j:])
                op(*((v, u) if swap else (u, v)))
            warm = op(w1, w2)
            assert warm == cold
            assert _json_bytes(warm) == _json_bytes(cold)
            assert set(cache) == cold_keys  # every primed pair is a suffix pair
            # what lets the engine add shared words without a zero check
            assert all(coeff.eval(-1) > 0 for _, coeff in cold.items())
            # under a budget of a few letters nearly every store empties the
            # memo, in the middle of a fill too
            clear_caches()
            cache.limit = 8
            try:
                for i, j, swap in primed:
                    u, v = word_of_index(idx1[i:]), word_of_index(idx2[j:])
                    op(*((v, u) if swap else (u, v)))
                tiny = op(w1, w2)
            finally:
                cache.limit = PRODUCT_LETTERS
            assert tiny == cold
            assert _json_bytes(tiny) == _json_bytes(cold)
        clear_caches()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_equal_letters_sum_their_shared_words(self, p):
        # with k = l the blocks z_k (w1 * z_l w2) and z_l (z_k w1 * w2) share
        # words, whose coefficients add
        for a in range(4):
            for b in range(4):
                got = stuffle_t(word_of_index((p,) * a), word_of_index((p,) * b))
                assert got == power_product_rhs(a, b, p), (a, b)
        z_p4 = dict(stuffle_t(word_of_index((p, p)), word_of_index((p, p))).items())
        assert z_p4[word_of_index((p,) * 4)] == TPoly((6,))


def _letters(cache) -> int:
    return sum(len(word) for elem in cache.values() for word, _ in elem.items())


class TestProductBudget:
    """The product memos hold at most ``PRODUCT_LETTERS`` letters, plus the
    state whose store emptied them."""

    def test_a_deep_product_keeps_its_memo_within_the_budget(self):
        clear_caches()
        u, v = word_of_index((2,) * 400), word_of_index((3,))
        elem = stuffle_t(u, v)
        assert len(elem) == 1200  # unbounded, the memo would hold 129 M letters
        assert 0 < _CACHE_T.held == _letters(_CACHE_T) <= PRODUCT_LETTERS + len(elem) * len(u + v)
        assert elem == stuffle_t(v, u)
        clear_caches()
        assert _CACHE_T.held == 0

    @pytest.mark.parametrize("op", [stuffle_t, stuffle_o])
    def test_a_product_survives_its_memo_emptied_after_each_store(self, op, monkeypatch):
        class Emptied(Memo):
            """As if another thread's store emptied the memo right after each
            store of this one."""

            def put(self, key, value, weight=1):
                super().put(key, value, weight)
                self.clear()
                return value

        w1, w2 = word_of_index((2, 1, 3)), word_of_index((1, 2))
        clear_caches()
        want = op(w1, w2)
        monkeypatch.setattr(products, "_CACHE_O" if op is stuffle_o else "_CACHE_T", Emptied())
        assert op(w1, w2) == want
        assert op(w2, w1) == want

    def test_threads_under_a_tiny_budget_get_equal_results(self):
        pairs = [
            (op, word_of_index(a), word_of_index(b))
            for op in (stuffle_t, stuffle_o)
            for a in small_indices(3, 2, False)
            for b in small_indices(2, 3, False)
        ]

        def serve():
            return [(elem, _json_bytes(elem)) for elem in (op(w1, w2) for op, w1, w2 in pairs)]

        clear_caches()
        want = serve()
        got, errors = [], []

        def run():
            try:
                for _ in range(3):
                    got.append(serve())
            except Exception as exc:  # a KeyError from a memo emptied by another thread, say
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        _CACHE_T.limit = _CACHE_O.limit = 32
        try:
            clear_caches()
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            _CACHE_T.limit = _CACHE_O.limit = PRODUCT_LETTERS
            sys.setswitchinterval(old)
            clear_caches()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert got == [want] * 12


class TestMemo:
    def test_put_holds_at_most_the_limit_plus_one_entry(self):
        memo = Memo(limit=10)
        weights = {}
        for key, weight in enumerate([3, 4, 2, 5, 1, 1, 12, 7, 3, 10, 1]):
            assert memo.put(key, -key, weight) == -key
            if len(memo) == 1:  # the store emptied the memo
                weights.clear()
            weights[key] = weight
            assert memo.held == sum(weights.values()) <= memo.limit + weight
            assert set(memo) == set(weights) and memo[key] == -key
        memo.clear()
        assert not memo and memo.held == 0
        memo.put("a", 1, 10)
        assert memo.held == 10 and memo == {"a": 1}

    def test_entries_weigh_one(self):
        made = []
        memo = Memo(lambda key: made.append(key) or key * key)
        for key in range(MEMO_LIMIT + 5):
            assert memo[key] == key * key
            assert memo.held == len(memo) <= MEMO_LIMIT
        assert memo[MEMO_LIMIT + 4] == (MEMO_LIMIT + 4) ** 2
        assert made == [*range(MEMO_LIMIT + 5)]  # a hit forms nothing
        assert len(memo) == 5  # emptied once, at MEMO_LIMIT entries
        memo.clear()
        assert not memo and memo.held == 0

    def test_a_failed_make_stores_nothing(self):
        memo = Memo(lambda key: 1 // key)
        with pytest.raises(ZeroDivisionError):
            memo[0]
        assert not memo and memo.held == 0


TABLES = {"TIMES": TIMES, "PLUS": PLUS, "AT": AT, "CONST": CONST, "JSON": JSON, "FLOATS": FLOATS}


class TestCoefficientTables:
    """The process-wide coefficient tables of ``tmzv.exact``: bounded, emptied
    with the caches, and equal in value to the operations they stand for."""

    def test_overfilled_tables_stay_bounded_and_correct(self):
        clear_memos()
        keys = [(k, 1) for k in range(MEMO_LIMIT + 5)]  # the polynomials k + t
        row = TIMES[POLY_T.coeffs]  # kept past the moment TIMES empties itself
        for k, key in enumerate(keys):
            TIMES[key][(2,)]
            row[key]
            PLUS[key, (1,)]
            AT[Fraction(k, 3)][key]  # a row per point, a CONST entry per value
            AT[2][key]
            JSON[key]
            FLOATS[key]
        rows = [row, *TIMES.values(), *AT.values()]
        assert all(0 < len(table) <= MEMO_LIMIT for table in [*TABLES.values(), *rows])
        for k, key in [*enumerate(keys)][:: MEMO_LIMIT // 4]:
            poly = TPoly(key)
            assert row[key] == TIMES[key][POLY_T.coeffs] == POLY_T * poly
            assert PLUS[key, (1,)] == poly + POLY_ONE
            assert AT[2][key] == TPoly.const(k + 2)
            assert AT[Fraction(1, 2)][key] is CONST[Fraction(2 * k + 1, 2)]
            assert JSON[key] == (f"{k}/1", "1/1")
            assert FLOATS[key] == (1.0, float(k))
        clear_memos()

    def test_plus_forms_each_order_once_and_both_agree(self, monkeypatch):
        clear_memos()
        formed = []
        add = TPoly.__add__
        monkeypatch.setattr(TPoly, "__add__", lambda x, y: formed.append((x, y)) or add(x, y))
        total = PLUS[ONE_MINUS_2T, T2_MINUS_T]
        assert PLUS[ONE_MINUS_2T, T2_MINUS_T] is total == TPoly((1, -3, 1))
        assert len(formed) == 1 and PLUS.held == len(PLUS) == 1
        other = PLUS[T2_MINUS_T, ONE_MINUS_2T]  # the other order, formed once on its own
        assert PLUS[T2_MINUS_T, ONE_MINUS_2T] is other == total
        assert len(formed) == 2 and PLUS.held == len(PLUS) == 2
        assert PLUS[POLY_T, POLY_T] == TPoly((0, 2))  # one order, one entry
        assert len(formed) == 3 and PLUS.held == len(PLUS) == 3
        for a, b in [(ONE_MINUS_2T, T2_MINUS_T), (T2_MINUS_T, ONE_MINUS_2T), (POLY_T, POLY_T)]:
            PLUS[a, b]
        assert len(formed) == 3  # every later read is a hit
        clear_memos()

    def test_concat_sums_equal_plain_arithmetic_through_a_tiny_plus(self):
        # the kernel forms 7 sums here and PLUS holds 2, so it empties itself
        # at every other store; the sums must still be those of plain TPoly
        # arithmetic, and the cancelled word "xy" goes
        start = {"y": TPoly((1, 1)), "xy": TPoly((0, 3, 2)), "xxy": TPoly((3,))}
        left = [("xx", POLY_T), ("", TPoly((Fraction(1, 2), 1))), ("", POLY_ONE)]
        right = [("y", TPoly((Fraction(-1, 3),))), ("xy", TPoly((0, -2))), ("xxy", TPoly((1, 4)))]
        want = dict(start)
        for w1, c1 in left:
            for w2, c2 in right:
                want[w1 + w2] = want.get(w1 + w2, POLY_ZERO) + c1 * c2
        want = {w: c for w, c in want.items() if c}
        clear_memos()
        _concat_into(dict(start), left, right)
        assert len(PLUS) == 7
        limit = PLUS.limit
        PLUS.limit = 2
        try:
            clear_memos()
            out = dict(start)
            _concat_into(out, left, right)
            assert out == want and "xy" not in out
            assert 0 < len(PLUS) <= 2
        finally:
            PLUS.limit = limit
            clear_memos()

    @pytest.mark.parametrize("clear", [clear_caches, zeta.clear_cache])
    def test_every_table_empties_with_the_caches(self, clear):
        clear_caches()
        zeta.clear_cache()
        elem = stuffle_t("xyy", "xyy")
        _json_bytes(elem.eval_at(Fraction(1, 2)))
        zeta.z_t_eval("xxy", zeta.EvalConfig(10, 0.5))
        assert all(TABLES.values())
        clear()
        assert not any(TABLES.values())

    @pytest.mark.parametrize("name", ["clear_cache", "clear_caches"])
    def test_each_package_clear_empties_every_table(self, name):
        import tmzv

        names = ("_CACHE_T", "_CACHE_O", "_STATES_K", "_STATES_C", "_RUNS", "_WORDS")
        plans = (zeta._compiled_word, zeta._word_plans, zeta._boxes_plans, zeta._MERGES)
        tables = [*TABLES.values(), *(getattr(products, n) for n in names), *plans]
        clear_caches()
        zeta.clear_cache()
        ones = word_of_index((1,) * 8)
        _json_bytes(stuffle_t(ones, ones).eval_at(Fraction(1, 2)))
        stuffle_o(ones, ones)
        stuffle_combinatorial((1, 2, 1), (2, 1))
        stuffle_classical((1, 2, 1), (2, 1))
        zeta.z_t_eval("xxy", zeta.EvalConfig(10, 0.5))
        zeta.zeta_t_boxes((2, 1), zeta.EvalConfig(10, 0.5))
        assert all(tables) and zeta._truncated.cache_info().currsize and zeta._work is not None
        getattr(tmzv, name)()
        assert not any(tables) and not zeta._truncated.cache_info().currsize and zeta._work is None

    def test_threads_sharing_the_tables_get_equal_results(self):
        pairs = [(a, b) for a in small_indices(2, 3, False) for b in small_indices(2, 2, False)]

        def serve():
            out = []
            for idx1, idx2 in pairs:
                elem = stuffle_combinatorial(idx1, idx2)
                out.append((elem, _json_bytes(elem.eval_at(Fraction(-1, 2)))))
            return out

        clear_caches()
        want = serve()
        got, stop = [], threading.Event()

        def clearing():
            while not stop.is_set():
                clear_memos()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: got.append(serve())) for _ in range(4)]
            threads.append(threading.Thread(target=clearing))
            for thread in threads:
                thread.start()
            for thread in threads[:-1]:
                thread.join(timeout=60)
        finally:
            stop.set()
            threads[-1].join(timeout=60)
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [want] * 4

    @pytest.mark.parametrize("op", [stuffle_t, stuffle_o])
    @pytest.mark.parametrize("t0", [Fraction(0), Fraction(-3, 4), Fraction(2)])
    def test_product_eval_and_json_equal_cold_and_warm(self, op, t0):
        pairs = [((2, 1), (3,)), ((1, 2, 2), (2, 3)), ((2, 2), (2, 2))]
        runs = []

        def cold_products():
            _CACHE_T.clear()
            _CACHE_O.clear()

        for clear in (clear_caches, cold_products, lambda: None):
            clear()  # all cold; then warm tables under cold products; then all warm
            for idx1, idx2 in pairs:
                elem = op(word_of_index(idx1), word_of_index(idx2))
                at = elem.eval_at(t0)
                runs.append((elem, at, _json_bytes(elem), _json_bytes(at)))
        n = len(pairs)
        for i, run in enumerate(runs):
            assert run == runs[i % n]
        for (idx1, idx2), (elem, at, _, _) in zip(pairs, runs):
            if op is stuffle_t:
                assert elem == stuffle_combinatorial(idx1, idx2)
            assert at == Element({w: c.eval(t0) for w, c in elem.items()})
        clear_caches()


class TestClassical:
    def test_depth_one(self):
        got = stuffle_classical((2,), (3,))
        want = Element([("xyxxy", 1), ("xxyxy", 1), ("xxxxy", 1)])
        assert got == want

    def test_unit(self):
        assert stuffle_classical((), (2,)) == Element.from_word("xy")

    def test_matches_t0_specialization(self):
        got = stuffle_classical((1, 1), (1,))
        want = stuffle_t("yy", "y").eval_at(Fraction(0))
        assert got == want
        assert got == Element([("yyy", 3), ("yxy", 1), ("xyy", 1)])

    def test_a_merged_letter_may_pass_max_part(self):
        # z_MAX_PART merged with z_1 is z_(MAX_PART + 1), built as the engine builds it
        w1, w2 = word_of_index((MAX_PART,)), word_of_index((1,))
        want = stuffle_t(w1, w2)
        assert stuffle_classical((MAX_PART,), (1,)) == want.eval_at(Fraction(0))
        assert stuffle_combinatorial((MAX_PART,), (1,)) == want
        clear_caches()

    def test_merged_letters_are_pairwise_sums(self):
        # independent enumeration allowing only singletons and pair merges
        def enumerate_pairs_only(idx1, idx2):
            out: dict[str, int] = {}

            def rec(i, j, acc):
                if i == len(idx1) and j == len(idx2):
                    out[acc] = out.get(acc, 0) + 1
                    return
                if i < len(idx1):
                    rec(i + 1, j, acc + word_of_index((idx1[i],)))
                if j < len(idx2):
                    rec(i, j + 1, acc + word_of_index((idx2[j],)))
                if i < len(idx1) and j < len(idx2):
                    rec(i + 1, j + 1, acc + word_of_index((idx1[i] + idx2[j],)))

            rec(0, 0, "")
            return Element([(w, TPoly((c,))) for w, c in out.items()])

        for idx1 in small_indices(max_depth=3):
            for idx2 in small_indices(max_depth=3):
                assert stuffle_classical(idx1, idx2) == enumerate_pairs_only(idx1, idx2)


class TestCombinatorial:
    def test_examples(self):
        assert stuffle_combinatorial((1, 1), (1,)) == stuffle_t("yy", "y")
        assert stuffle_combinatorial((2,), (3,)) == stuffle_t("xy", "xxy")
        assert stuffle_combinatorial((4,), ()) == Element.from_word("xxxy")

    def test_oracle_equivalence(self):
        for idx1 in small_indices():
            for idx2 in small_indices():
                got = stuffle_combinatorial(idx1, idx2)
                want = stuffle_t(word_of_index(idx1), word_of_index(idx2))
                assert got == want, (idx1, idx2)


def _x_run_power(k):
    """(t^2 - t)^k = t^k (t - 1)^k by the binomial theorem, as coefficients."""
    return [0] * k + [math.comb(k, i) * (-1) ** (k - i) for i in range(k + 1)]


class TestRunCoefficients:
    """``products._RUNS`` keeps each merge-run coefficient of the combinatorial
    oracle, built once from its closed form."""

    def test_closed_form_up_to_six(self):
        clear_caches()
        for a in range(1, 7):
            for b in range(1, 7):
                power = _x_run_power(min(a, b) - (a == b))
                want = TPoly(power) * ONE_MINUS_2T if a == b else TPoly(power)
                assert products._RUNS[a, b] == want, (a, b)
        assert products._RUNS[3, 3] == TPoly((0, 0, 1, -4, 5, -2))  # (1 - 2t)(t^2 - t)^2

    def test_oracle_reads_the_table_and_clear_caches_empties_it(self):
        clear_caches()
        assert not products._RUNS
        stuffle_combinatorial((1, 2, 1), (2, 2))
        # a run of a parts with b, 1 <= a <= 3, 1 <= b <= 2, |a - b| <= 1
        assert set(products._RUNS) == {(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)}
        before = dict(products._RUNS)
        stuffle_combinatorial((2, 1, 1), (1, 3))
        assert all(products._RUNS[key] is value for key, value in before.items())  # not rebuilt
        clear_caches()
        assert not products._RUNS

    def test_stuffle_classical_leaves_the_table_alone(self):
        clear_caches()
        stuffle_classical((2, 1, 3), (1, 1))
        assert not products._RUNS


def _state_letters(memo):
    """The letters of each state a state memo holds: each word of state
    (u, v) spells the parts of u and v."""
    return {key: len(terms) * (sum(key[0]) + sum(key[1])) for key, terms in memo.items()}


@pytest.mark.parametrize("oracle, table", [(stuffle_classical, "_STATES_K"), (stuffle_combinatorial, "_STATES_C")])
class TestOracleStates:
    """Each oracle reads its sub-states from its own bounded memo, keyed by the
    ordered pair of suffixes."""

    def test_cold_warm_and_one_letter_budget_agree(self, oracle, table, monkeypatch):
        memo = getattr(products, table)
        pairs = [(a, b) for a in small_indices(max_depth=3) for b in small_indices(max_depth=3)]
        cold = {}
        for a, b in pairs:
            memo.clear()
            cold[a, b] = oracle(a, b)
            want = stuffle_t(word_of_index(a), word_of_index(b))
            assert cold[a, b] == (want if oracle is stuffle_combinatorial else want.eval_at(Fraction(0)))
        clear_caches()
        for a, b in pairs:  # each call may read what the calls before it stored
            assert oracle(a, b) == cold[a, b], (a, b)
        monkeypatch.setattr(memo, "limit", 1)
        memo.clear()
        for a, b in pairs:  # a store empties the memo unless the state weighs nothing
            assert oracle(a, b) == cold[a, b], (a, b)
            assert memo.held <= 1 or len(memo) == 1
        clear_caches()

    def test_keys_are_the_proper_sub_states_in_side_order(self, oracle, table):
        memo = getattr(products, table)
        a, b = (2, 1, 3), (1, 2)
        clear_caches()
        oracle(a, b)
        states = {(a[i:], b[j:]) for i in range(len(a) + 1) for j in range(len(b) + 1)}
        assert set(memo) == states - {(a, b)}  # the product itself is not stored
        oracle(b, a)
        assert set(memo) == (states | {(v, u) for u, v in states}) - {(a, b), (b, a)}
        clear_caches()
        assert not memo and memo.held == 0

    def test_the_memo_is_read_and_clear_caches_empties_it(self, oracle, table):
        memo = getattr(products, table)
        a, b = (2, 1), (3,)
        clear_caches()
        right = oracle(a, b)
        assert ((1,), (3,)) in memo
        memo.put(((1,), (3,)), {"xxxxxy": POLY_ONE}, 6)  # a wrong state for z_1 * z_3
        wrong = oracle(a, b)
        assert wrong != right and "xyxxxxxy" in wrong.words()
        clear_caches()
        assert oracle(a, b) == right

    def test_held_letters_stay_within_the_budget_plus_one_state(self, oracle, table, monkeypatch):
        memo = getattr(products, table)
        clear_caches()
        monkeypatch.setattr(memo, "limit", 100)
        for a in small_indices(max_depth=3):
            for b in small_indices(max_depth=3):
                oracle(a, b)
                letters = _state_letters(memo)
                assert memo.held == sum(letters.values()) <= memo.limit + max(letters.values(), default=0)
        clear_caches()


@contextmanager
def _stack_headroom(frames):
    """Set the recursion limit to the current stack depth plus ``frames``."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _nest(n):
    return n if n == 0 else _nest(n - 1)


class TestOracleInputs:
    DEPTH = 1200

    def test_deep_index_needs_no_recursion(self):
        assert self.DEPTH > sys.getrecursionlimit()
        n = self.DEPTH
        # z_3 stands alone at any of n + 1 places or merges with any z_2
        want = Element(
            [("xy" * k + "xxy" + "xy" * (n - k), 1) for k in range(n + 1)]
            + [("xy" * k + "xxxxy" + "xy" * (n - 1 - k), 1) for k in range(n)]
        )
        got = stuffle_classical((2,) * n, (3,))
        assert len(got) == 2401
        assert got == want

    def test_deep_index_in_combinatorial_oracle(self):
        n = self.DEPTH
        # z_2 stands alone, merges with one z_1, or with two (a 2-1 run)
        want = Element(
            [("y" * k + "xy" + "y" * (n - k), 1) for k in range(n + 1)]
            + [("y" * k + "xxy" + "y" * (n - 1 - k), ONE_MINUS_2T) for k in range(n)]
            + [("y" * k + "xxxy" + "y" * (n - 2 - k), T2_MINUS_T) for k in range(n - 1)]
        )
        got = stuffle_combinatorial((1,) * n, (2,))
        assert len(got) == 3600
        assert got == want

    def test_deep_cases_fit_in_512_mib(self):
        # the fill keeps only the rows its longest run still reaches; one that
        # kept every row would need gigabytes for the first of these
        script = (
            "import resource\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, hard))\n"
            "from tmzv.products import stuffle_classical, stuffle_combinatorial\n"
            f"assert len(stuffle_classical((2,) * {self.DEPTH}, (3,))) == 2401\n"
            f"assert len(stuffle_combinatorial((1,) * {self.DEPTH}, (2,))) == 3600\n"
        )
        src = str(Path(products.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_deep_word_needs_no_recursion_in_engine(self):
        # the memo keeps every suffix-pair state, about 2 n^3 letters for this
        # pair (over 3 GB at n = 1200), so the engine is run at a smaller n
        # under a recursion limit that n nested calls would exceed
        n = 300
        w1, w2 = word_of_index((2,) * n), word_of_index((3,))
        clear_caches()
        with _stack_headroom(n // 2):
            with pytest.raises(RecursionError):
                _nest(n)
            got_t = stuffle_t(w1, w2)
            got_o = stuffle_o(w1, w2)
        clear_caches()
        assert len(got_t) == 3 * n
        assert got_t == stuffle_combinatorial((2,) * n, (3,))
        assert Element((w, c) for w, c in got_o.items() if not w.endswith("x")) == got_t

    @pytest.mark.parametrize("oracle", [stuffle_classical, stuffle_combinatorial])
    @pytest.mark.parametrize("left", [(2.5,), (2, Fraction(3, 2)), (0,), (2, -1)])
    def test_bad_parts_raise(self, oracle, left):
        with pytest.raises(BadParamsError):
            oracle(left, (1,))
        with pytest.raises(BadParamsError):
            oracle((1,), left)


class TestProductInvariants:
    def test_commutativity(self):
        # the memo serves both orders of a word pair from one entry, so the
        # two recursions are checked against each other instead: the deformed
        # product is the part of the open one whose words do not end in x
        # (exhaustive over depth <= 3, parts <= 3)
        for idx1 in small_indices(max_depth=3):
            for idx2 in small_indices(max_depth=3):
                w1, w2 = word_of_index(idx1), word_of_index(idx2)
                opened = stuffle_o(w1, w2)
                y_ended = Element((w, c) for w, c in opened.items() if not w.endswith("x"))
                assert stuffle_t(w1, w2) == y_ended, (idx1, idx2)

    def test_commutativity_of_enumerator(self):
        for idx1 in small_indices():
            for idx2 in small_indices():
                assert stuffle_combinatorial(idx1, idx2) == stuffle_combinatorial(idx2, idx1)

    def test_t0_reduction(self):
        for idx1 in small_indices(max_depth=3):
            for idx2 in small_indices(max_depth=3):
                lhs = stuffle_t(word_of_index(idx1), word_of_index(idx2)).eval_at(Fraction(0))
                assert lhs == stuffle_classical(idx1, idx2), (idx1, idx2)

    def test_admissibility_preserved(self):
        admissible = [
            idx for idx in small_indices(max_depth=3, include_empty=False) if is_admissible(idx)
        ]
        for idx1 in admissible:
            for idx2 in admissible:
                out = stuffle_t(word_of_index(idx1), word_of_index(idx2))
                for word in out.words():
                    assert word.endswith("y")
                    assert is_admissible(index_of_word(word))

    def test_weight_homogeneity(self):
        for idx1 in small_indices(max_depth=3):
            for idx2 in small_indices(max_depth=3):
                target = weight(idx1) + weight(idx2)
                out = stuffle_t(word_of_index(idx1), word_of_index(idx2))
                for word in out.words():
                    assert weight(index_of_word(word)) == target

    def test_associativity_empirically(self):
        # not asserted as a structural law anywhere; spot-checked on small triples
        triples = [((1,), (2,), (1,)), ((2,), (1, 1), (3,)), ((1, 2), (2,), (1,))]
        for a, b, c in triples:
            wa, wb, wc = map(word_of_index, (a, b, c))
            left = stuffle_t(stuffle_t(wa, wb), wc)
            right = stuffle_t(wa, stuffle_t(wb, wc))
            assert left == right
