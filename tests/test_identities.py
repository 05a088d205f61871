"""Unit tests for the identity builders and their checkers."""

import math
from fractions import Fraction

import pytest

from tmzv import identities
from tmzv.errors import BadParamsError
from tmzv.exact import ONE_MINUS_2T, T2_MINUS_T, TPoly
from tmzv.identities import (
    VerifyReport,
    alternating_numeric_check,
    alternating_sum_lhs,
    alternating_sum_rhs,
    alternating_t_special_check,
    closed_form_rhs,
    decomposition_numeric_check,
    element_comparison,
    factorial_identity_check,
    gaussian_identity_check,
    head_tail_rhs,
    pivot_rhs,
    power_product_rhs,
    recursive_rhs,
)
from tmzv.products import stuffle_o, stuffle_t
from tmzv.sweeps import STATEMENTS, SweepArgs
from tmzv.words import Element, word_of_index


class TestReport:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            VerifyReport("x", {}, False, None)

    def test_comparison_attaches_witness_on_failure(self):
        lhs = Element.from_word("xy")
        rhs = Element.from_word("y")
        report = element_comparison("x", {"a": 1}, lhs, rhs)
        assert not report.passed
        assert report.witness == {"lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}

    def test_json_shape(self):
        report = element_comparison("x", {"a": 1}, Element.from_word(""), Element.from_word(""))
        assert report.to_json_obj() == {
            "statement": "x",
            "params": {"a": 1},
            "passed": True,
            "witness": None,
        }


def per_cell_power_product(m, n, p):
    """power_product_rhs built cell by cell: each (k, i) cell enumerates the
    compositions of its length and keeps those with j = k - i even parts."""

    def compositions(total, length):
        if length == 0:
            if total == 0:
                yield ()
            return
        for first in range(1, total - length + 2):
            for rest in compositions(total - first, length - 1):
                yield (first, *rest)

    out = {}
    for k in range(min(m, n) + 1):
        cb = math.comb(m + n - 2 * k, m - k)
        for i in range(k + 1):
            j = k - i
            for comp in compositions(m + n, m + n - i - k):
                if sum(r % 2 == 0 for r in comp) == j:
                    out[word_of_index(r * p for r in comp)] = T2_MINUS_T**i * ONE_MINUS_2T**j * cb
    return Element(out)


class TestPowerProduct:
    def test_matches_the_per_cell_enumeration(self):
        for total in range(13):
            for m in range(total + 1):
                for p in (1, 2):
                    assert power_product_rhs(m, total - m, p) == per_cell_power_product(m, total - m, p), (
                        m, total - m, p,
                    )

    def test_depth_one(self):
        want = Element([("yy", TPoly((2,))), ("xy", ONE_MINUS_2T)])
        assert power_product_rhs(1, 1, 1) == want

    def test_matches_hand_expansion(self):
        assert power_product_rhs(2, 1, 1) == stuffle_t("yy", "y")

    def test_one_sided(self):
        for n, p in ((0, 1), (3, 2), (2, 3)):
            assert power_product_rhs(0, n, p) == Element.from_word(word_of_index((p,) * n))

    def test_check(self):
        assert STATEMENTS["power-product"].check(m=3, n=2, p=2).passed

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            power_product_rhs(-1, 0, 1)
        with pytest.raises(BadParamsError):
            power_product_rhs(1, 1, 0)


class TestClosedForm:
    def test_degenerate_tails(self):
        want = Element([("xyxy", TPoly((2,))), ("xxxy", ONE_MINUS_2T)])
        assert closed_form_rhs(2, 2, 1, 0, 0) == want

    def test_oracle_examples(self):
        assert STATEMENTS["closed-form"].check(m=2, u=2, p=1, n=1, v=0).passed
        assert STATEMENTS["closed-form"].check(m=3, u=2, p=2, n=1, v=1).passed
        assert STATEMENTS["closed-form"].check(m=2, u=2, p=1, n=2, v=1).passed

    def test_words_stay_y_ended(self):
        for params in ((2, 2, 1, 1, 1), (3, 2, 1, 2, 0), (2, 3, 2, 0, 2)):
            for word in closed_form_rhs(*params).words():
                assert word.endswith("y")

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            closed_form_rhs(1, 2, 1, 0, 0)

    def test_never_calls_the_product_engine(self, monkeypatch):
        import tmzv.identities as identities

        def engine(*args):
            raise AssertionError("the product engine was called")

        monkeypatch.setattr(identities, "stuffle_t", engine)
        monkeypatch.setattr(identities, "stuffle_o", engine)
        for params in STATEMENTS["closed-form"].grid(SweepArgs(max_size=3)):
            closed_form_rhs(**params)
        # the same head split with engine tails does reach the patched engine
        with pytest.raises(AssertionError):
            recursive_rhs(2, 2, 1, 1, 0)


class TestRecursive:
    def test_degenerate_tails(self):
        want = Element([("yy", TPoly((2,))), ("xy", ONE_MINUS_2T)])
        assert recursive_rhs(1, 1, 1, 0, 0) == want

    def test_oracle_examples(self):
        assert STATEMENTS["recursive"].check(m=2, u=2, p=1, n=1, v=0).passed
        assert STATEMENTS["recursive"].check(m=1, u=1, p=1, n=1, v=1).passed

    def test_words_stay_y_ended(self):
        for params in ((1, 1, 1, 2, 1), (2, 1, 1, 1, 1), (1, 2, 2, 0, 3)):
            for word in recursive_rhs(*params).words():
                assert word.endswith("y")

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            recursive_rhs(0, 1, 1, 0, 0)


class TestHeadTail:
    def test_trivial_product(self):
        assert head_tail_rhs(2, 1, 0, 0) == Element.from_word("xy")

    def test_oracle_examples(self):
        assert STATEMENTS["head-tail"].check(head=2, p=1, k=0, m=1).passed
        assert STATEMENTS["head-tail"].check(head=2, p=1, k=1, m=1).passed
        assert STATEMENTS["head-tail"].check(head=3, p=2, k=2, m=3).passed

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            head_tail_rhs(1, 1, 0, 0)


class TestPivot:
    def test_depth_one(self):
        want = stuffle_t("xy", "xxy")
        assert pivot_rhs((2,), (3,), 1) == want

    def test_oracle_examples(self):
        assert STATEMENTS["pivot"].check(left=(2, 1), right=(2,), j=2).passed
        assert STATEMENTS["pivot"].check(left=(1, 1), right=(1, 1), j=1).passed
        assert STATEMENTS["pivot"].check(left=(2, 1), right=(3,), j=1).passed

    def test_every_split_position(self):
        for j in (1, 2, 3):
            assert STATEMENTS["pivot"].check(left=(2, 1, 2), right=(1, 3), j=j).passed

    @pytest.mark.parametrize(
        "left, right", [((12, 1, 7), (1000000, 3)), ((12, 1, 7), ()), ((4, 9), (1, 6, 2))]
    )
    def test_multi_letter_parts_are_cut_at_their_letters(self, left, right):
        # parts above 1 put a letter's symbols at offsets other than its
        # position, so a cut at the position instead of the offset shows here
        want = stuffle_t(word_of_index(left), word_of_index(right))
        for j in range(1, len(left) + 1):
            assert pivot_rhs(left, right, j) == want

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            pivot_rhs((), (2,), 1)
        with pytest.raises(BadParamsError):
            pivot_rhs((2, 1), (2,), 3)

    @pytest.mark.parametrize("left, right", [((2.5,), (1,)), ((2, 1), (1.5,)), ((2,), (0,))])
    def test_non_integral_or_nonpositive_parts_raise(self, left, right):
        with pytest.raises(BadParamsError):
            pivot_rhs(left, right, 1)


class TestAlternating:
    def test_odd_collapses(self):
        assert alternating_sum_lhs(1, 3).is_zero
        assert STATEMENTS["alternating"].check(p=1, k=3).passed

    def test_even_k2(self):
        assert alternating_sum_lhs(1, 2) == Element.from_word("xy", -ONE_MINUS_2T)
        assert alternating_sum_rhs(1, 2) == Element.from_word("xy", -ONE_MINUS_2T)
        assert STATEMENTS["alternating"].check(p=1, k=2).passed

    def test_even_k4(self):
        assert STATEMENTS["alternating"].check(p=2, k=4).passed

    def test_endpoint_specializations(self):
        for p, k in ((1, 2), (1, 4), (2, 4), (2, 6)):
            assert alternating_t_special_check(p, k).passed

    def test_numeric_form(self):
        for k in (2, 4):
            report = alternating_numeric_check(2, k, 10_000)
            assert report.passed
        with pytest.raises(BadParamsError):
            alternating_numeric_check(1, 2, 100)


class TestExactScalarIdentities:
    def test_factorial_k2_by_hand(self):
        report = factorial_identity_check(2)
        assert report.passed
        assert report.witness == {"lhs": "-1/90", "rhs": "-1/90"}

    @pytest.mark.parametrize("k", [4, 12])
    def test_factorial_large(self, k):
        assert factorial_identity_check(k).passed

    def test_factorial_rejects_odd(self):
        with pytest.raises(BadParamsError):
            factorial_identity_check(3)

    @pytest.mark.parametrize("l", [1, 2])
    def test_gaussian(self, l):
        report = gaussian_identity_check(l)
        assert report.passed
        assert report.witness["lhs_im"] == "0"

    def test_gaussian_witness_strings(self):
        witness = gaussian_identity_check(1).witness
        assert witness == {"lhs_re": "-1/9450", "lhs_im": "0", "rhs": "-1/9450"}


class TestNumericDecomposition:
    def test_classical_instance(self):
        report = decomposition_numeric_check(2, 2, 1, 0, 0, 0.0, 100_000)
        assert report.passed
        assert report.witness["max_diff"] <= 1e-6

    def test_interpolated_instances(self):
        assert decomposition_numeric_check(2, 2, 1, 1, 0, 0.5, 100_000).passed
        assert decomposition_numeric_check(3, 2, 2, 1, 1, 1.0, 10_000).passed

    def test_rejects_inadmissible_heads(self):
        with pytest.raises(BadParamsError):
            decomposition_numeric_check(1, 2, 1, 0, 0, 0.0, 100)

    @pytest.mark.parametrize("params, t0", [((2, 2, 1, 1, 1), 1e20), ((2, 3, 1, 2, 1), -1e20)])
    def test_tolerance_is_relative_to_the_values(self, params, t0):
        # at t = 1e20 the values are near 1.4e40 and float rounding leaves a
        # max_diff near 2.4e24, far above 1e-3 but far below 1e-3 of them;
        # at t = -1e20 the second instance is near -1.2e60
        report = decomposition_numeric_check(*params, t0, 100)
        assert report.passed
        assert report.witness["max_diff"] > 1e-3
        assert report.witness["tolerance"] == 1e-3

    @pytest.mark.parametrize("t0", [0.5, 1e20])
    def test_perturbed_explicit_side_still_fails(self, monkeypatch, t0):
        exact = identities.closed_form_rhs
        monkeypatch.setattr(
            identities, "closed_form_rhs", lambda *args: exact(*args).scale(Fraction(101, 100))
        )
        assert not decomposition_numeric_check(2, 2, 1, 1, 1, t0, 100).passed

    @pytest.mark.parametrize("side", ["engine", "explicit"])
    def test_an_inadmissible_word_fails_the_report_naming_its_side(self, monkeypatch, side):
        # the open product is what the engine computes when its x-run guard is
        # always true; an x-ended word has no truncated value
        if side == "engine":
            monkeypatch.setattr(identities, "stuffle_t", stuffle_o)
        else:
            exact = identities.closed_form_rhs
            monkeypatch.setattr(
                identities, "closed_form_rhs", lambda *args: exact(*args) + Element.from_word("xx")
            )
        report = decomposition_numeric_check(2, 2, 1, 0, 0, 0.5, 100)
        assert not report.passed
        assert report.params == {"m": 2, "u": 2, "p": 1, "n": 0, "v": 0, "t0": 0.5, "cutoff": 100}
        assert report.witness["side"] == side
        assert report.witness["error"].endswith("is not admissible")
        with pytest.raises(BadParamsError):  # a bad parameter still raises
            decomposition_numeric_check(1, 2, 1, 0, 0, 0.5, 100)


class TestStructuralCheckers:
    def test_combinatorial(self):
        assert STATEMENTS["combinatorial"].check(left=(2, 1), right=(3,)).passed
        assert STATEMENTS["combinatorial"].check(left=(), right=(2,)).passed

    def test_t0_reduction(self):
        assert STATEMENTS["t0-reduction"].check(left=(1, 1), right=(1,)).passed
        assert STATEMENTS["t0-reduction"].check(left=(2, 3), right=(1, 2)).passed
