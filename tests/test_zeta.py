"""Unit tests for the truncated numerical evaluators."""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tmzv import zeta
from tmzv.errors import BadParamsError, DivergentError, NotInH0Error
from tmzv.exact import MEMO_LIMIT, Memo
from tmzv.interpolation import s_t
from tmzv.products import stuffle_t
from tmzv.words import Element, index_of_word, word_of_index
from tmzv.zeta import EvalConfig, clear_cache, mzv, mzv_star, z_t_eval, zeta_t_boxes


def admissible_indices(max_weight, max_depth):
    def extend(prefix, remaining):
        if prefix:
            yield prefix
        if len(prefix) == max_depth:
            return
        lo = 2 if not prefix else 1
        for part in range(lo, remaining + 1):
            yield from extend(prefix + (part,), remaining - part)

    yield from extend((), max_weight)


class TestConfig:
    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            EvalConfig(0)

    @pytest.mark.parametrize("cutoff", [10.5, 10.0, Fraction(21, 2), "10"])
    def test_rejects_a_cutoff_that_is_not_an_integer(self, cutoff):
        with pytest.raises(BadParamsError, match="cutoff must be an integer"):
            EvalConfig(cutoff)

    def test_rejects_cutoff_above_the_limit(self):
        assert EvalConfig(zeta.MAX_CUTOFF).cutoff == zeta.MAX_CUTOFF
        with pytest.raises(BadParamsError, match="MAX_CUTOFF"):
            EvalConfig(zeta.MAX_CUTOFF + 1)


class TestMzv:
    def test_zeta2_family(self):
        cfg = EvalConfig(100_000)
        for k in (1, 2, 3):
            expected = math.pi ** (2 * k) / math.factorial(2 * k + 1)
            assert abs(mzv((2,) * k, cfg) - expected) <= 1e-4

    def test_zeta4_family(self):
        cfg = EvalConfig(10_000)
        for k in (1, 2):
            expected = 2 ** (2 * k + 1) * math.pi ** (4 * k) / math.factorial(4 * k + 2)
            assert abs(mzv((4,) * k, cfg) - expected) <= 1e-8

    def test_rejects_divergent(self):
        cfg = EvalConfig(100)
        with pytest.raises(DivergentError):
            mzv((1, 2), cfg)
        with pytest.raises(DivergentError):
            mzv((), cfg)
        with pytest.raises(DivergentError):
            mzv_star((1,), cfg)
        for index in [(2, 0), (2, -1)]:  # integral parts below 1 stay divergent
            with pytest.raises(DivergentError):
                mzv(index, cfg)

    @pytest.mark.parametrize("index", [(2.5,), (Fraction(5, 2), 1), (3, 1.5)])
    def test_rejects_non_integral_parts(self, index):
        # no part is truncated to an int: (2.5,) is not read as (2,)
        cfg = EvalConfig(1000)
        for evaluate in (mzv, mzv_star, zeta_t_boxes):
            with pytest.raises(BadParamsError, match="integers"):
                evaluate(index, cfg)


class TestStar:
    def test_depth_one_equals_plain(self):
        cfg = EvalConfig(50_000)
        assert mzv_star((2,), cfg) == mzv((2,), cfg)

    def test_star_is_sum_over_contractions(self):
        cfg = EvalConfig(10_000)
        assert abs(mzv_star((2, 1), cfg) - (mzv((2, 1), cfg) + mzv((3,), cfg))) <= 1e-12
        assert abs(mzv_star((2, 2), cfg) - (mzv((2, 2), cfg) + mzv((4,), cfg))) <= 1e-12


class TestBoxes:
    def test_two_contractions_at_depth_two(self):
        cfg = EvalConfig(5_000, 0.7)
        want = mzv((2, 1), cfg) + 0.7 * mzv((3,), cfg)
        assert abs(zeta_t_boxes((2, 1), cfg) - want) <= 1e-14

    def test_t0_zero_is_plain(self):
        cfg = EvalConfig(5_000, 0.0)
        for idx in ((2,), (2, 1), (3, 1, 2)):
            assert zeta_t_boxes(idx, cfg) == mzv(idx, cfg)

    def test_rejects_indices_deeper_than_the_limit(self):
        cfg = EvalConfig(10, 0.5)
        zeta_t_boxes((2,) + (1,) * (zeta.MAX_BOXES_DEPTH - 1), cfg)
        with pytest.raises(BadParamsError, match="MAX_BOXES_DEPTH"):
            zeta_t_boxes((2,) + (1,) * zeta.MAX_BOXES_DEPTH, cfg)

    def test_t0_one_is_star(self):
        for idx in ((2, 2), (2, 1), (3, 1, 2)):
            cfg = EvalConfig(5_000, 1.0)
            assert abs(zeta_t_boxes(idx, cfg) - mzv_star(idx, cfg)) <= 1e-12


class TestMappedEvaluation:
    def test_matches_boxes(self):
        cfg = EvalConfig(5_000, 0.5)
        want = zeta_t_boxes((2, 1), cfg)
        assert abs(z_t_eval(word_of_index((2, 1)), cfg) - want) <= 1e-10

    def test_empty_word_contributes_coefficient(self):
        cfg = EvalConfig(100, 0.3)
        assert z_t_eval(Element.from_word(""), cfg) == 1.0

    def test_prefix_without_y_untouched(self):
        for t0 in (0.0, 0.5, -1.0):
            cfg = EvalConfig(2_000, t0)
            assert z_t_eval("xxy", cfg) == mzv((3,), cfg)

    def test_rejects_inadmissible_words(self):
        cfg = EvalConfig(100)
        with pytest.raises(NotInH0Error):
            z_t_eval("yy", cfg)

    def test_box_map_agreement_sample(self):
        for idx in admissible_indices(6, 3):
            for t0 in (0.0, 0.5, 1.0, -1.0):
                cfg = EvalConfig(2_000, t0)
                diff = abs(zeta_t_boxes(idx, cfg) - z_t_eval(word_of_index(idx), cfg))
                assert diff <= 1e-10, (idx, t0)

    def test_product_homomorphism_numerically(self):
        indices = list(admissible_indices(6, 2))
        cfg0 = EvalConfig(100_000, 0.0)
        cfg_half = EvalConfig(100_000, 0.5)
        for a in range(len(indices)):
            for b in range(a, len(indices)):
                w1 = word_of_index(indices[a])
                w2 = word_of_index(indices[b])
                prod = stuffle_t(w1, w2)
                for cfg in (cfg0, cfg_half):
                    lhs = z_t_eval(prod, cfg)
                    rhs = z_t_eval(w1, cfg) * z_t_eval(w2, cfg)
                    assert abs(lhs - rhs) <= 1e-3, (indices[a], indices[b], cfg.t0)


def mapped_reference(a, cfg):
    """z_t_eval as it was before the compiled memo: map, sort, and evaluate
    each coefficient and word afresh."""
    total = 0.0
    for word, coeff in s_t(a).sorted_items():
        value = 0.0
        for c in reversed(coeff.coeffs):
            value = value * cfg.t0 + float(c)
        if word == "":
            total += value
            continue
        if not word.startswith("x") or not word.endswith("y"):
            raise NotInH0Error(f"word {word!r} is not admissible")
        total += value * mzv(index_of_word(word), cfg)
    return total


def boxes_reference(idx, cfg):
    """zeta_t_boxes as it was before the plans: every contraction rebuilt
    and its sum read through mzv on each call."""
    parts = tuple(idx)
    n = len(parts)
    total = 0.0
    for mask in range(1 << (n - 1)):
        contracted = [parts[0]]
        merges = 0
        for gap in range(n - 1):
            if mask >> gap & 1:
                contracted[-1] += parts[gap + 1]
                merges += 1
            else:
                contracted.append(parts[gap + 1])
        total += cfg.t0 ** merges * mzv(contracted, cfg)
    return total


class TestPlans:
    """A repeat is served from the plan of its (input, cutoff): bit for bit
    the value of evaluating afresh, with no truncated-sum lookup and no
    check, while every refusal is raised on every call."""

    T0S = (0.0, 1.0, 0.5, -1.0, 0.37)
    INDICES = list(admissible_indices(10, 5))  # numeric-eval's indices

    def test_numeric_eval_indices_equal_the_references_cold_and_warm(self):
        assert len(self.INDICES) == 381
        for t0 in self.T0S:
            cfg = EvalConfig(10_000, t0)
            want = {idx: (boxes_reference(idx, cfg), mapped_reference(word_of_index(idx), cfg)) for idx in self.INDICES}
            clear_cache()  # every plan cold at each t0, and built again after the clear
            for _ in range(2):  # cold, then warm
                for idx in self.INDICES:
                    assert zeta_t_boxes(idx, cfg) == want[idx][0], (idx, t0)
                    assert z_t_eval(word_of_index(idx), cfg) == want[idx][1], (idx, t0)
        clear_cache()

    def test_a_plan_built_at_one_t0_serves_the_others(self):
        clear_cache()
        for t0 in self.T0S:
            cfg = EvalConfig(10_000, t0)
            for idx in self.INDICES[::7]:
                assert zeta_t_boxes(idx, cfg) == boxes_reference(idx, cfg), (idx, t0)
                assert z_t_eval(word_of_index(idx), cfg) == mapped_reference(word_of_index(idx), cfg), (idx, t0)
        assert len(zeta._boxes_plans) == len(zeta._word_plans) == len(self.INDICES[::7])
        clear_cache()

    def test_plans_are_kept_per_cutoff(self):
        clear_cache()
        for cutoff in (100, 1_000, 100):
            cfg = EvalConfig(cutoff, 0.5)
            assert zeta_t_boxes((3, 1, 2), cfg) == boxes_reference((3, 1, 2), cfg)
            assert z_t_eval("xxyyxy", cfg) == mapped_reference("xxyyxy", cfg)
        assert sorted(zeta._boxes_plans) == [((3, 1, 2), 100), ((3, 1, 2), 1_000)]
        assert sorted(zeta._word_plans) == [("xxyyxy", 100), ("xxyyxy", 1_000)]
        clear_cache()

    def test_a_plan_holds_the_memo_floats_in_order(self):
        clear_cache()
        zeta_t_boxes((2, 1, 3), EvalConfig(100, 0.5))
        z_t_eval("", EvalConfig(100, 0.5))
        z_t_eval("xyxy", EvalConfig(100, 0.5))
        contractions = [(2, 1, 3), (3, 3), (2, 4), (6,)]  # mask order
        plan = zeta._boxes_plans[(2, 1, 3), 100]
        assert all(v is zeta._truncated(c, 100, True) for v, c in zip(plan, contractions, strict=True))
        assert zeta._MERGES[3] == (0, 1, 1, 2)
        assert zeta._word_plans["", 100] == (1.0,)
        terms = zeta._compiled_word["xyxy"]
        plan = zeta._word_plans["xyxy", 100]
        assert all(v is zeta._truncated(p, 100, True) for v, (_, p) in zip(plan, terms, strict=True))
        clear_cache()

    def test_a_warm_hit_reads_no_sum_and_runs_no_check(self, monkeypatch):
        clear_cache()
        cfg = EvalConfig(1_000, 0.5)
        for idx in self.INDICES[:40]:
            zeta_t_boxes(idx, cfg)
            z_t_eval(word_of_index(idx), cfg)

        def refuse(*args):
            raise AssertionError(f"called with {args} on a plan hit")

        # looked up by module name at call time, so a stand-in sees each call
        monkeypatch.setattr(zeta, "_truncated", refuse)
        monkeypatch.setattr(zeta, "_require_admissible", refuse)
        got = {}
        for t0 in (0.37, -1.0):
            for idx in self.INDICES[:40]:
                got[idx, t0] = zeta_t_boxes(idx, EvalConfig(1_000, t0)), z_t_eval(word_of_index(idx), EvalConfig(1_000, t0))
        monkeypatch.undo()
        for (idx, t0), (boxes, mapped) in got.items():
            cfg = EvalConfig(1_000, t0)
            assert boxes == boxes_reference(idx, cfg) and mapped == mapped_reference(word_of_index(idx), cfg)
        clear_cache()

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda cfg: zeta_t_boxes((1, 2), cfg), DivergentError, "not admissible"),
            (lambda cfg: zeta_t_boxes((2,) + (1,) * 16, cfg), BadParamsError, "MAX_BOXES_DEPTH"),
            (lambda cfg: zeta_t_boxes((2.5, 1), cfg), BadParamsError, "integers"),
            (lambda cfg: zeta_t_boxes((2, 1, 1), EvalConfig(cfg.cutoff, 1e300)), BadParamsError, "overflows"),
            (lambda cfg: z_t_eval("xyyy", EvalConfig(cfg.cutoff, 1e300)), BadParamsError, "overflows"),
            (lambda cfg: z_t_eval("yy", cfg), NotInH0Error, "'yy'"),
        ],
    )
    def test_refusals_are_raised_on_every_call(self, call, error, match):
        cfg = EvalConfig(100, 0.5)
        clear_cache()
        for _ in range(3):  # cold, then with every plan below warm
            with pytest.raises(error, match=match):
                call(cfg)
            for idx in ((2, 1), (2, 1, 1), (2, 1, 1, 1, 1)):
                assert zeta_t_boxes(idx, cfg) == boxes_reference(idx, cfg)
            assert z_t_eval("xyyy", cfg) == mapped_reference("xyyy", cfg)
        assert ((2, 1, 1), 100) in zeta._boxes_plans and ("xyyy", 100) in zeta._word_plans
        for t0 in (0.37, -1.0):  # a later finite t0 gets the reference value
            cfg = EvalConfig(100, t0)
            assert zeta_t_boxes((2, 1, 1), cfg) == boxes_reference((2, 1, 1), cfg)
            assert z_t_eval("xyyy", cfg) == mapped_reference("xyyy", cfg)
        clear_cache()


class TestCompiledMemo:
    """A word's image under s_t is compiled once and evaluated at each t0;
    the values stay bit for bit those of mapping on every call."""

    T0S = (0.0, 0.5, 1.0, -1.0, 0.37)
    WORDS = [word_of_index(idx) for idx in admissible_indices(8, 8)]

    def test_cold_and_warm_equal_the_reference(self):
        for t0 in self.T0S:
            cfg = EvalConfig(1_000, t0)
            for word in self.WORDS:
                want = mapped_reference(word, cfg)
                clear_cache()
                assert z_t_eval(word, cfg) == want, (word, t0)  # cold
                assert z_t_eval(word, cfg) == want, (word, t0)  # warm

    def test_a_word_compiled_at_one_t0_serves_the_others(self):
        clear_cache()
        for t0 in self.T0S:
            cfg = EvalConfig(1_000, t0)
            for word in self.WORDS:
                assert z_t_eval(word, cfg) == mapped_reference(word, cfg), (word, t0)

    def test_word_and_element_agree(self):
        for t0 in self.T0S:
            cfg = EvalConfig(1_000, t0)
            for word in self.WORDS:
                assert z_t_eval(word, cfg) == z_t_eval(Element.from_word(word), cfg)
        elem = stuffle_t("xxyy", "xy").scale(3) + Element.from_word("")
        for t0 in self.T0S:
            cfg = EvalConfig(1_000, t0)
            assert z_t_eval(elem, cfg) == mapped_reference(elem, cfg)

    def test_rejection_is_not_memoized(self):
        cfg = EvalConfig(100)
        for _ in range(3):
            with pytest.raises(NotInH0Error, match="'yy'"):
                z_t_eval("yy", cfg)
            with pytest.raises(NotInH0Error, match="'yy'"):
                z_t_eval(Element.from_word("yy"), cfg)

    def test_clear_cache_empties_the_bounded_memo(self):
        memo = zeta._compiled_word
        assert isinstance(memo, Memo) and memo.limit == MEMO_LIMIT > 381
        clear_cache()
        z_t_eval("xxyy", EvalConfig(100))
        assert list(memo) == ["xxyy"] and memo.held == 1
        clear_cache()
        assert not memo and memo.held == 0

    def test_s_t_runs_once_per_word_between_clears(self, monkeypatch):
        # looked up by module name at call time, so a wrapper sees each call
        calls = []
        monkeypatch.setattr(zeta, "s_t", lambda a: calls.append(a) or s_t(a))
        clear_cache()
        for t0 in self.T0S:
            z_t_eval("xyxy", EvalConfig(100, t0))
        assert calls == ["xyxy"]
        elem = Element.from_word("xyxy")
        z_t_eval(elem, EvalConfig(100))
        z_t_eval(elem, EvalConfig(100))
        assert calls == ["xyxy", elem, elem]
        clear_cache()

    def test_equal_coefficients_share_one_float_tuple(self):
        compiled = zeta._compile(s_t("xyyyy"))
        assert len(compiled) == 8
        by_value = {}
        for floats, _ in compiled:
            assert by_value.setdefault(floats, floats) is floats


def truncated_reference(parts, cutoff, strict):
    """_truncated as it was before the work set: fresh arrays on every call."""
    vals = np.arange(1, cutoff + 1, dtype=np.float64)
    cur = None
    for k in reversed(parts):
        powers = vals ** float(-k)
        if cur is None:
            cur = powers
        else:
            prefix = np.cumsum(cur)
            if strict:
                prefix = np.concatenate(([0.0], prefix[:-1]))
            cur = powers * prefix
    return float(cur.sum())


def work_arrays(work):
    sums = () if work.sums is None else (work.sums,)
    return (work.base, *work.kept.values(), *sums, work.prefix, work.buf)


class TestKeptPowers:
    """A miss works in one work set, kept for the last cutoff up to
    ``_POWER_KEPT_CUTOFF`` with m^-1, m^-2, m^-3 and the running sums of m^-1
    read-only, or built for its call above that; the values stay bit for bit
    those of fresh arrays."""

    # repeated parts >= 3 are computed into the buffer the previous part used
    INDICES = sorted(set(admissible_indices(9, 4)) | {(3, 3, 3), (4, 3, 3, 1), (10,)})

    @pytest.mark.parametrize(
        "cutoff", [1, 2, 17, 10_000, zeta._POWER_KEPT_CUTOFF, zeta._POWER_KEPT_CUTOFF + 1, 200_001]
    )
    def test_cold_warm_and_evicted_equal_the_reference(self, cutoff):
        # "evicted": the kept set was rebuilt for another cutoff and back
        # (1e5 -> 1e4 -> 1e5 at numeric-eval's cutoff)
        other = 10_000 if cutoff != 10_000 else zeta._POWER_KEPT_CUTOFF
        for parts in self.INDICES:
            for strict in (True, False):
                want = truncated_reference(parts, cutoff, strict)
                clear_cache()
                assert zeta._truncated(parts, cutoff, strict) == want, (parts, strict)  # cold
                if cutoff > zeta._POWER_KEPT_CUTOFF:
                    assert zeta._work is None  # a larger set lives for its call only
                    mzv((2,), EvalConfig(other))
                    zeta._truncated.cache_clear()
                    assert zeta._truncated(parts, cutoff, strict) == want, (parts, strict)
                    assert zeta._work.cutoff == other  # the kept set stays
                    continue
                zeta._truncated.cache_clear()
                assert zeta._truncated(parts, cutoff, strict) == want, (parts, strict)  # warm
                zeta._truncated.cache_clear()
                mzv((2,), EvalConfig(other))
                assert zeta._truncated(parts, cutoff, strict) == want, (parts, strict)  # switched
                assert zeta._work.cutoff == cutoff
        clear_cache()

    def test_numeric_eval_indices_equal_the_reference_bit_for_bit(self):
        indices = list(admissible_indices(10, 5))
        assert len(indices) == 381
        clear_cache()
        for parts in indices:
            for strict in (True, False):
                want = truncated_reference(parts, 10_000, strict)
                assert zeta._truncated(parts, 10_000, strict) == want, (parts, strict)
        clear_cache()

    def test_kept_arrays_replace_powers_and_running_sums(self, monkeypatch):
        n = zeta._POWER_KEPT_CUTOFF
        clear_cache()
        mzv((2,), EvalConfig(n))  # builds the set
        calls = {"power": 0, "cumsum": 0}

        def counted(name, func):
            def call(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return call

        monkeypatch.setattr(np, "power", counted("power", np.power))
        monkeypatch.setattr(np, "cumsum", counted("cumsum", np.cumsum))
        got = zeta._truncated.__wrapped__((3, 2, 1), n, True)
        monkeypatch.undo()
        # the part 1 takes the kept sums, parts 2 and 3 the kept powers
        assert calls == {"power": 0, "cumsum": 1}
        assert got == truncated_reference((3, 2, 1), n, True)
        clear_cache()

    def test_kept_floats_stay_within_the_budget(self):
        assert 7 * zeta._POWER_KEPT_CUTOFF == 700_000
        assert zeta._KEPT_EXPONENTS == (1, 2, 3)
        clear_cache()
        for cutoff in (17, 100_000, 10_000, 60_000, 100_000, 1):
            zeta._truncated.cache_clear()
            for parts in ((2,), (3, 1), (2, 2, 4)):
                mzv(parts, EvalConfig(cutoff))
                work = zeta._work
                assert work.cutoff == cutoff and sorted(work.kept) == [1, 2, 3]
                assert sum(a.size for a in work_arrays(work)) == 7 * cutoff
                assert all(work.powers(k) is work.kept[k] for k in (1, 2, 3))
        kept = zeta._work
        mzv((2, 1), EvalConfig(zeta._POWER_KEPT_CUTOFF + 1))
        assert zeta._work is kept  # computed for its call only
        clear_cache()

    def test_kept_arrays_reject_writes(self):
        clear_cache()
        mzv((2, 1), EvalConfig(100))
        work = zeta._work
        for array in (work.base, *work.kept.values(), work.sums):
            with pytest.raises(ValueError):
                array[0] = 1.0
        mzv_star((3, 1, 2), EvalConfig(100))
        assert zeta._work is work  # the same cutoff keeps the same set
        clear_cache()

    def test_clear_cache_empties_the_kept_powers(self):
        mzv_star((3, 1, 2), EvalConfig(1_000))
        z_t_eval("xyy", EvalConfig(100))
        assert zeta._truncated.cache_info().currsize and zeta._compiled_word
        assert zeta._work is not None
        clear_cache()
        assert zeta._truncated.cache_info().currsize == 0 and not zeta._compiled_word
        assert zeta._work is None

    def test_threads_keep_the_budget(self):
        clear_cache()
        cutoffs = (1, 17, 5_000, 60_000, zeta._POWER_KEPT_CUTOFF + 1)
        indices = ((2,), (3, 1), (2, 3, 3), (4, 1, 2), (3, 3, 3))
        want = {
            (parts, cutoff, strict): truncated_reference(parts, cutoff, strict)
            for parts in indices
            for cutoff in cutoffs
            for strict in (True, False)
        }
        miss = zeta._truncated.__wrapped__  # the sum without the memo, so every call misses
        errors = []

        def hammer(offset):
            try:
                for i in range(40):
                    key = (indices[(i + offset) % 5], cutoffs[(i * 3 + offset) % 5], bool(i % 2))
                    assert miss(*key) == want[key], key
            except Exception as exc:  # re-raised by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert zeta._work.cutoff in cutoffs
        assert sum(a.size for a in work_arrays(zeta._work)) == 7 * zeta._work.cutoff
        clear_cache()


def traced_peak(call):
    """The most bytes ``tracemalloc`` saw held at once during ``call()``,
    numpy's data buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkSetAllocations:
    INDICES = ((2,), (10,), (2, 1), (3, 3, 3), (4, 3, 3, 1), (2, 1, 2, 1))

    def test_a_miss_at_the_kept_cutoff_allocates_no_array(self):
        n = zeta._POWER_KEPT_CUTOFF
        clear_cache()
        mzv((2,), EvalConfig(n))  # builds the set
        for parts in self.INDICES:
            for strict in (True, False):
                peak = traced_peak(lambda: zeta._truncated.__wrapped__(parts, n, strict))
                assert peak < 8 * n, (parts, strict, peak)
        clear_cache()

    def test_a_miss_above_the_kept_cutoff_holds_three_arrays(self):
        n = zeta._POWER_KEPT_CUTOFF + 1
        clear_cache()
        for parts in self.INDICES:
            for strict in (True, False):
                peak = traced_peak(lambda: zeta._truncated.__wrapped__(parts, n, strict))
                assert peak < 3 * 8 * n + 8 * 1024, (parts, strict, peak)
        assert zeta._work is None
        clear_cache()


class TestBoundedMemos:
    PLANS = (zeta._boxes_plans, zeta._word_plans)

    def test_every_memo_has_a_finite_bound(self):
        assert zeta._truncated.cache_info().maxsize == zeta._TRUNCATED_MAX
        assert isinstance(zeta._compiled_word, Memo) and zeta._compiled_word.limit == MEMO_LIMIT
        assert isinstance(zeta._MERGES, Memo) and zeta._MERGES.limit == MEMO_LIMIT > zeta.MAX_BOXES_DEPTH
        for plans in self.PLANS:
            # the largest plan, of MAX_BOXES_DEPTH parts, fits twice
            assert isinstance(plans, Memo) and plans.limit == zeta.PLAN_FLOATS == 2 << (zeta.MAX_BOXES_DEPTH - 1)

    def test_plans_weigh_their_floats_and_clear_cache_empties_them(self):
        clear_cache()
        for parts in admissible_indices(6, 4):
            zeta_t_boxes(parts, EvalConfig(100, 0.5))
            z_t_eval(word_of_index(parts), EvalConfig(100, 0.5))
        for plans in self.PLANS:
            assert plans and plans.held == sum(map(len, plans.values()))
        clear_cache()
        for plans in self.PLANS:
            assert not plans and plans.held == 0
        assert not zeta._MERGES

    def test_overfilled_plan_tables_stay_bounded_and_correct(self, monkeypatch):
        clear_cache()
        for plans in self.PLANS:
            monkeypatch.setattr(plans, "limit", 8)
        for t0 in (0.5, -1.0):
            cfg = EvalConfig(100, t0)
            for parts in admissible_indices(8, 4):  # plans of 1 to 8 floats
                for _ in range(2):
                    assert zeta_t_boxes(parts, cfg) == boxes_reference(parts, cfg), parts
                    assert z_t_eval(word_of_index(parts), cfg) == mapped_reference(word_of_index(parts), cfg), parts
                    for plans in self.PLANS:
                        assert plans.held == sum(map(len, plans.values())) <= 8
        clear_cache()

    def test_truncated_is_the_one_lru_cache(self):
        cached = [
            f"{name}.{attr}"
            for name, module in sorted(sys.modules.items())
            if name == "tmzv" or name.startswith("tmzv.")
            for attr, value in vars(module).items()
            if hasattr(value, "cache_info")
        ]
        assert cached == ["tmzv.zeta._truncated"]

    def test_an_overfilled_word_memo_stays_bounded_and_correct(self, monkeypatch):
        clear_cache()
        monkeypatch.setattr(zeta._compiled_word, "limit", 8)
        cfg = EvalConfig(100, 0.5)
        for word in map(word_of_index, admissible_indices(6, 3)):  # 25 words
            for _ in range(2):
                assert z_t_eval(word, cfg) == z_t_eval(Element.from_word(word), cfg), word
                assert zeta._compiled_word.held == len(zeta._compiled_word) <= 8
        clear_cache()

    def test_an_admissible_sweep_never_evicts(self):
        clear_cache()
        cfg = EvalConfig(100, 0.5)
        for _ in range(2):
            for parts in admissible_indices(10, 4):
                mzv(parts, cfg)
                mzv_star(parts, cfg)
                zeta_t_boxes(parts, cfg)
                z_t_eval(word_of_index(parts), cfg)
        info = zeta._truncated.cache_info()
        assert 0 < info.currsize == info.misses < zeta._TRUNCATED_MAX
        clear_cache()
