"""Builders and checkers for the product identities the package verifies.

Each ``*_rhs`` function constructs, term by term, the right-hand side of one
stated identity for the deformed stuffle product; the statement registry in
:mod:`tmzv.sweeps` compares it against the product engine with
:func:`element_comparison`. The builders share their brackets: the closed
form of z_m z_p^n * z_u z_p^v is one head split with its tail products
z_p^a * z_p^b given by :func:`power_product_rhs`, so it never calls the
engine, and the recursive form is the same split with engine tails. The
scalar and numeric ``*_check`` functions build their :class:`VerifyReport`
here. Exact checks compare Elements; numeric checks route both sides
through the truncated evaluator at the same cutoff.

Compositions appearing in the closed forms are ordered sequences of positive
multiples of p with prescribed total weight; in the power-product form the
number of entries that are even multiples of p names a word's cell. Empty
composition sets silently contribute nothing, which removes the degenerate
summation cells without special-casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Callable, Iterable, Iterator, Mapping

from .errors import BadParamsError, NotInH0Error
from .exact import ONE_MINUS_2T, POLY_ONE, T2_MINUS_T, TPoly
from .products import stuffle_o, stuffle_t
from .words import Element, _check_index, _concat_into, word_of_index, z_word
from .zeta import EvalConfig, mzv, z_t_eval


@dataclass
class VerifyReport:
    """Outcome of one identity check; failing reports always carry a witness."""

    statement: str
    params: dict
    passed: bool
    witness: dict | None = None

    def __post_init__(self) -> None:
        if not self.passed and self.witness is None:
            raise ValueError("failing report requires a witness")

    def to_json_obj(self) -> dict:
        return {
            "statement": self.statement,
            "params": self.params,
            "passed": self.passed,
            "witness": self.witness,
        }


def element_comparison(statement: str, params: Mapping, lhs: Element, rhs: Element) -> VerifyReport:
    ok = lhs == rhs
    witness = None if ok else {"lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}
    return VerifyReport(statement, dict(params), ok, witness)


def numeric_comparison(
    statement: str, params: Mapping, values: Mapping[str, float], tol: float, relative: bool = False
) -> VerifyReport:
    """Pass when the values agree within ``tol``; a ``relative`` tolerance is
    scaled by the largest magnitude among them, when that is above 1."""
    vals = list(values.values())
    diff = max((abs(a - b) for a, b in combinations(vals, 2)), default=0.0)
    bound = tol * max([1.0, *map(abs, vals)]) if relative else tol
    witness = {**values, "max_diff": diff, "tolerance": tol}
    return VerifyReport(statement, dict(params), diff <= bound, witness)


def _compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into ``length`` positive integers, in
    lexicographic order. Each is read off its ``length - 1`` cut points in
    1..total-1, taken in lexicographic order, which is the order of the
    compositions they cut; nothing recurses."""
    if length == 0:
        if total == 0:
            yield ()
        return
    if total < length:
        return
    for cuts in combinations(range(1, total), length - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


Bracket = list[tuple[str, TPoly]]


def _merged(prefix: str, k: int, last: bool) -> Bracket:
    """The merged letter behind ``prefix``: (1-2t) z_k, which may run past
    ``MAX_PART``, plus (t^2-t) x^k unless nothing follows it (``last``)."""
    merged: Bracket = [(prefix + "x" * (k - 1) + "y", ONE_MINUS_2T)]
    return merged if last else merged + [(prefix + "x" * k, T2_MINUS_T)]


def _passed(head: str, p: int, l: int, other: int, last: bool) -> Bracket:
    """l >= 1 letters z_p passed behind ``head`` before z_other: the word
    head z_p^l z_other, plus z_other merged with the l-th z_p."""
    merged = _merged(head + word_of_index((p,) * (l - 1)), other + p, last)
    return [(head + word_of_index((p,) * l + (other,)), POLY_ONE), *merged]


def _heads_rhs(
    m: int, u: int, p: int, n: int, v: int, tails: Callable[[int, int], Element]
) -> Element:
    """The head split of z_m z_p^n * z_u z_p^v: two mirror families pass
    l >= 1 tail letters of one head before the other head, and the third
    joins the two heads; ``tails(a, b)`` expands z_p^a * z_p^b."""
    out: dict[str, TPoly] = {}
    for head, other, count, other_count in ((m, u, n, v), (u, m, v, n)):
        for l in range(1, count + 1):
            bracket = _passed(z_word(head), p, l, other, other_count == 0 and count == l)
            _concat_into(out, bracket, tails(other_count, count - l).items())
    heads = [(word_of_index((m, u)), POLY_ONE), (word_of_index((u, m)), POLY_ONE)]
    _concat_into(out, heads + _merged("", m + u, n == 0 and v == 0), tails(n, v).items())
    return Element._unsafe(out)


def _power_product(m: int, n: int, p: int) -> Element:
    """z_p^m * z_p^n from the product engine, the one spelling of that pair."""
    return stuffle_t(word_of_index((p,) * m), word_of_index((p,) * n))


def power_product_rhs(m: int, n: int, p: int) -> Element:
    """Closed form of z_p^m * z_p^n.

    Sums over 0 <= k <= min(m, n) and splits i + j = k; the cell carries
    binom(m+n-2k, m-k) (t^2-t)^i (1-2t)^j and all words z_{a_1}...z_{a_L}
    with L = m+n-i-k, every a a positive multiple of p totalling (m+n)p, and
    exactly j entries an even multiple of p.
    """
    if m < 0 or n < 0 or p < 1:
        raise BadParamsError(f"need m, n >= 0 and p >= 1, got {(m, n, p)}")
    low = min(m, n)
    out: dict[str, TPoly] = {}
    for s in range(2 * low + 1):  # s = i + k: the words of length m + n - s
        # j = k - i has the parity of s, and i >= 0, k <= low bound it
        scales = {}
        for j in range(s % 2, min(s, 2 * low - s) + 1, 2):
            k = (s + j) // 2
            scales[j] = T2_MINUS_T ** (s - k) * ONE_MINUS_2T**j * math.comb(m + n - 2 * k, m - k)
        # a_w = r_w * p over the compositions r of m + n, each built once and
        # sent to the cell its even count names
        for comp in _compositions(m + n, m + n - s):
            scale = scales.get(len(comp) - sum(r & 1 for r in comp))
            if scale is not None:
                out[word_of_index(r * p for r in comp)] = scale
    return Element._unsafe(out)


def closed_form_rhs(m: int, u: int, p: int, n: int, v: int) -> Element:
    """Fully explicit expansion of z_m z_p^n * z_u z_p^v: the head split of
    :func:`_heads_rhs` with each tail product z_p^a * z_p^b given by
    :func:`power_product_rhs`, so the product engine is never called."""
    if m < 2 or u < 2 or p < 1 or n < 0 or v < 0:
        raise BadParamsError(f"need m, u >= 2, p >= 1, n, v >= 0, got {(m, u, p, n, v)}")
    return _heads_rhs(m, u, p, n, v, lambda a, b: power_product_rhs(a, b, p))


def recursive_rhs(m: int, u: int, p: int, n: int, v: int) -> Element:
    """Recursive form of z_m z_p^n * z_u z_p^v: the head split of
    :func:`_heads_rhs` with the tail products z_p^a * z_p^b left to the
    product engine."""
    if m < 1 or u < 1 or p < 1 or n < 0 or v < 0:
        raise BadParamsError(f"need m, u, p >= 1 and n, v >= 0, got {(m, u, p, n, v)}")
    return _heads_rhs(m, u, p, n, v, lambda a, b: _power_product(a, b, p))


def head_tail_rhs(head: int, p: int, k: int, m: int) -> Element:
    """Expansion of z_head z_p^k * z_p^m as sum over how many of the m tail
    letters pass the head (the l = 0 bracket keeps only its leading term,
    reading z_p^(-1) as 0)."""
    if head < 2 or p < 1 or k < 0 or m < 0:
        raise BadParamsError(f"need head >= 2, p >= 1, k, m >= 0, got {(head, p, k, m)}")
    out: dict[str, TPoly] = {}
    for l in range(m + 1):
        bracket = _passed("", p, l, head, k == 0 and m == l) if l else [(z_word(head), POLY_ONE)]
        inner = _power_product(k, m - l, p)
        _concat_into(out, bracket, inner.items())
    return Element._unsafe(out)


def pivot_rhs(idx1: Iterable[int], idx2: Iterable[int], j: int) -> Element:
    """Recursion that splits the left word at its j-th letter.

    For each cut position i of the right word, the part of the left word
    before letter j is combined with the right prefix by the open product
    (whose x-ended words are completed by what follows), letter j either
    stands alone or merges with the i-th right letter, and the suffixes are
    combined by the deformed product. Empty prefixes count as the unit; the
    merge term is dropped at i = 0. Each word is built once from its index
    and cut at the letter offsets, the running sums of its parts, since z_k
    has k symbols.
    """
    i1, i2 = _check_index(idx1), _check_index(idx2)
    if not i1:
        raise BadParamsError(f"indices must be nonempty over positive parts, got {(i1, i2)}")
    m, n = len(i1), len(i2)
    if not 1 <= j <= m:
        raise BadParamsError(f"need 1 <= j <= {m}, got {j}")
    w1, w2 = word_of_index(i1), word_of_index(i2)
    start, kj = sum(i1[: j - 1]), i1[j - 1]  # letter j of w1 is w1[start : start + kj]
    prefix1, zk, suffix1 = w1[:start], w1[start : start + kj], w1[start + kj :]
    out: dict[str, TPoly] = {}
    previous = None  # the open product of cut i - 1
    for i, cut in enumerate(accumulate(i2, initial=0)):  # cut i splits w2 before its letter i
        # the left side of cut i: plain·z_k, plus merged·bracket for i >= 1
        opened = stuffle_o(prefix1, w2[:cut])
        left = {ow + zk: oc for ow, oc in opened.items()}
        if i >= 1:
            bracket = _merged("", kj + i2[i - 1], i == n and j == m)
            _concat_into(left, previous.items(), bracket)
        _concat_into(out, left.items(), stuffle_t(suffix1, w2[cut:]).items())
        previous = opened
    return Element._unsafe(out)


def alternating_sum_lhs(p: int, k: int) -> Element:
    if p < 1 or k < 1:
        raise BadParamsError(f"need p, k >= 1, got {(p, k)}")
    total: dict[str, TPoly] = {}
    for a in range(k + 1):
        prod = _power_product(a, k - a, p)
        _concat_into(total, [("", TPoly.const((-1) ** a))], prod.items())
    return Element._unsafe(total)


def alternating_sum_rhs(p: int, k: int) -> Element:
    """Zero for odd k; for even k the signed double sum over (t^2-t)^{l1}
    (1-2t)^{l2} of all words of length l2 whose entries are even multiples of
    p totalling kp."""
    if p < 1 or k < 1:
        raise BadParamsError(f"need p, k >= 1, got {(p, k)}")
    if k % 2:
        return Element.zero()
    half = k // 2
    sign = (-1) ** half
    out: dict[str, TPoly] = {}
    for l2 in range(half + 1):  # a word's length l2 fixes its cell
        scale = T2_MINUS_T ** (half - l2) * ONE_MINUS_2T**l2 * sign
        for comp in _compositions(half, l2):
            out[word_of_index(2 * s * p for s in comp)] = scale
    return Element._unsafe(out)


def alternating_t_special_check(p: int, k: int) -> VerifyReport:
    """At t = 0 the alternating sum collapses to (-1)^(k/2) z_{2p}^{k/2} and at
    t = 1 to +z_{2p}^{k/2} (even k)."""
    if p < 1 or k < 2 or k % 2:
        raise BadParamsError(f"need p >= 1 and even k >= 2, got {(p, k)}")
    half = k // 2
    lhs = alternating_sum_lhs(p, k)
    word = word_of_index((2 * p,) * half)
    want0 = Element.from_word(word, (-1) ** half)
    want1 = Element.from_word(word)
    got0 = lhs.eval_at(Fraction(0))
    got1 = lhs.eval_at(Fraction(1))
    ok = got0 == want0 and got1 == want1
    witness = None
    if not ok:
        witness = {
            "at0": got0.to_json_obj(),
            "want0": want0.to_json_obj(),
            "at1": got1.to_json_obj(),
            "want1": want1.to_json_obj(),
        }
    return VerifyReport("alternating-t-special", {"p": p, "k": k}, ok, witness)


def alternating_numeric_check(p: int, k: int, cutoff: int) -> VerifyReport:
    """Truncated-sum version: sum of (-1)^a zeta({p}^a) zeta({p}^{k-a}) against
    (-1)^(k/2) zeta({2p}^{k/2}); needs p >= 2 for convergence."""
    if p < 2 or k < 2 or k % 2:
        raise BadParamsError(f"need p >= 2 and even k >= 2, got {(p, k)}")
    cfg = EvalConfig(cutoff)

    def power_val(count: int) -> float:
        return 1.0 if count == 0 else mzv((p,) * count, cfg)

    lhs = sum((-1) ** a * power_val(a) * power_val(k - a) for a in range(k + 1))
    rhs = (-1) ** (k // 2) * mzv((2 * p,) * (k // 2), cfg)
    return numeric_comparison(
        "alternating-numeric", {"p": p, "k": k, "cutoff": cutoff}, {"lhs": lhs, "rhs": rhs}, 1e-4
    )


def factorial_identity_check(k: int) -> VerifyReport:
    """Exact check of sum_{a+b=k} (-1)^a / ((2a+1)!(2b+1)!) ==
    (-1)^(k/2) 2^(k+1) / (2k+2)! for even k."""
    if k < 2 or k % 2:
        raise BadParamsError(f"need even k >= 2, got {k}")
    lhs = sum(
        Fraction((-1) ** a, math.factorial(2 * a + 1) * math.factorial(2 * (k - a) + 1))
        for a in range(k + 1)
    )
    rhs = Fraction((-1) ** (k // 2) * 2 ** (k + 1), math.factorial(2 * k + 2))
    ok = lhs == rhs
    witness = {"lhs": str(lhs), "rhs": str(rhs)}
    return VerifyReport("factorial", {"k": k}, ok, witness)


def gaussian_identity_check(l: int) -> VerifyReport:
    """Exact Gaussian-rational identity: the fourfold factorial sum with
    powers of sqrt(-1) equals the real alternating sum, with imaginary part
    exactly zero. The terms are summed by their power of i mod 4, so the
    real part is s0 - s2 and the imaginary part s1 - s3."""
    if l < 1:
        raise BadParamsError(f"need l >= 1, got {l}")
    sums = [Fraction(0)] * 4
    target = 4 * l
    for n0 in range(target + 1):
        for n1 in range(target - n0 + 1):
            for n2 in range(target - n0 - n1 + 1):
                n3 = target - n0 - n1 - n2
                denom = (
                    math.factorial(2 * n0 + 1)
                    * math.factorial(2 * n1 + 1)
                    * math.factorial(2 * n2 + 1)
                    * math.factorial(2 * n3 + 1)
                )
                sums[(n1 + 2 * n2 + 3 * n3) % 4] += Fraction(1, denom)
    re, im = sums[0] - sums[2], sums[1] - sums[3]
    rhs = sum(
        Fraction(
            (-1) ** a * 2 ** (4 * l + 2),
            math.factorial(4 * a + 2) * math.factorial(8 * l - 4 * a + 2),
        )
        for a in range(2 * l + 1)
    )
    ok = im == 0 and re == rhs
    witness = {"lhs_re": str(re), "lhs_im": str(im), "rhs": str(rhs)}
    return VerifyReport("gaussian", {"l": l}, ok, witness)


def decomposition_numeric_check(
    m: int, u: int, p: int, n: int, v: int, t0: float, cutoff: int
) -> VerifyReport:
    """Numeric form of the decomposition: the product of the two interpolated
    values against the evaluated product Element and the evaluated explicit
    expansion, all at the same cutoff. The tolerance 1e-3 is relative: the
    values may differ by 1e-3 times the largest of 1 and their magnitudes, so
    float rounding at a large t does not read as a failure. An inadmissible
    word from the engine or the explicit expansion fails the report, with a
    witness naming that side and the error, in place of raising."""
    explicit = closed_form_rhs(m, u, p, n, v)  # its guard refuses the params out of range
    w1 = word_of_index((m,) + (p,) * n)
    w2 = word_of_index((u,) + (p,) * v)
    cfg = EvalConfig(cutoff, t0)
    params = {"m": m, "u": u, "p": p, "n": n, "v": v, "t0": t0, "cutoff": cutoff}
    values = {"product": z_t_eval(w1, cfg) * z_t_eval(w2, cfg)}
    for side, element in (("engine", stuffle_t(w1, w2)), ("explicit", explicit)):
        try:
            values[side] = z_t_eval(element, cfg)
        except NotInH0Error as exc:  # a defect in the engine or the builder, not a bad parameter
            return VerifyReport("decomposition", params, False, {"side": side, "error": str(exc)})
    if not all(map(math.isfinite, values.values())):
        raise BadParamsError(f"decomposition at t0={t0!r} overflows the float range")
    return numeric_comparison("decomposition", params, values, 1e-3, relative=True)
