"""The deformed stuffle products on the word algebra.

The t-stuffle product is Q[t]-bilinear on y-ended words, with the empty word
as unit and the recursion

    z_k w1 * z_l w2 = z_k (w1 * z_l w2) + z_l (z_k w1 * w2)
                      + (1 - 2t) z_{k+l} (w1 * w2)
                      + [w1, w2 not both empty] (t^2 - t) x^{k+l} (w1 * w2).

The guard on the x-run term prevents a dangling run at the end of a word;
the open variant keeps that term unconditionally, so its results may end in
x. Both products are commutative. At t = 0 the product reduces to the
classical quasi-shuffle (stuffle) of multiple zeta values.
``stuffle_combinatorial`` builds the same product as a sum over merge
patterns, and ``stuffle_classical`` is that sum restricted to single-part
merges with coefficient 1. These two oracles are independent of the
recursion: each fills its own table of suffix pairs, and reads each state
first from its own :class:`~tmzv.exact.Memo`, keyed by the ordered pair of
suffixes and weighed in letters under ``ORACLE_LETTERS`` (2^16). A call
stores every state it builds but the product itself: in ``verify all``
those products hold most of the letters, and almost none is read again.
``_RUNS`` holds each run coefficient, built once from its closed form;
``clear_caches`` empties these tables with the product memos and the word
table of :func:`~tmzv.words.word_of_index`.

The engine, ``_stuffle_t_words``, runs the recursion without recursing.
Its states are the pairs (suffix of w1 from letter i, suffix of w2 from
letter j), so it fills that (n+1) x (m+1) table from the ends, one row at a
time, keeping only the row below. Each state is built from four blocks,

    z_k A,  z_l B,  (1 - 2t) z_{k+l} C,  (t^2 - t) x^{k+l} C,

with A, B and C the states (i+1, j), (i, j+1) and (i+1, j+1). Their words
start with x-runs of length k - 1, l - 1, k + l - 1 and at least k + l, so
only the first two blocks can share a word, and only when k = l: every other
block goes into the state as it is, with no lookup and no addition. No sum
of shared words cancels: every coefficient is a sum of products of 1,
(1 - 2t) and (t^2 - t), so it is positive at t = -1. The scalings by
(1 - 2t) and (t^2 - t), and the sums of shared words, are read from the
coefficient tables of :mod:`tmzv.exact`.

Every state is memoized, one :class:`~tmzv.exact.Memo` per product, keyed
by the unordered pair of suffixes and weighed in letters: each word of state
(u, v) has len(u) + len(v) letters, as z_k has k. A memoized state was built
with its whole sub-table, so the table fill reads a state from the memo
where it can and stores each one it builds: the memo ends up holding the
same states the recursion would, until ``PRODUCT_LETTERS`` (2^24) empty it.
``verify all --max 3`` fills 1.39 M letters and a product-stream round at
most 4.59 M, but z_2^400 * z_3 alone would fill 129 M. A fill reads states
from its own rows, so it is safe to empty the memo in its middle. A product
of two words returns its memo Element itself, not a copy: Elements are
immutable, so no caller can change a shared entry.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable

from .exact import ONE_MINUS_2T, PLUS, POLY_ONE, T2_MINUS_T, TIMES, Memo, TPoly, clear_memos
from .words import _WORDS, Element, _check_index, _concat_into, _require_h1

PRODUCT_LETTERS = 1 << 24  # letters one product memo holds before it empties itself
_CACHE_T = Memo(limit=PRODUCT_LETTERS)
_CACHE_O = Memo(limit=PRODUCT_LETTERS)
ORACLE_LETTERS = 1 << 16  # letters one oracle's state memo holds before it empties itself
_STATES_K = Memo(limit=ORACLE_LETTERS)  # stuffle_classical's states
_STATES_C = Memo(limit=ORACLE_LETTERS)  # stuffle_combinatorial's states
# _RUNS[a, b] is the coefficient of a run of a parts merged with b parts, built
# on first use from the closed form in the docstring of stuffle_combinatorial
_RUNS = Memo(
    lambda ab: ONE_MINUS_2T * T2_MINUS_T ** (ab[0] - 1) if ab[0] == ab[1] else T2_MINUS_T ** min(ab)
)


def clear_caches() -> None:
    for table in (_CACHE_T, _CACHE_O, _STATES_K, _STATES_C, _RUNS, _WORDS):
        table.clear()
    clear_memos()


def _stuffle_t_words(w1: str, w2: str, open_: bool = False, check: bool = False) -> Element:
    """The product of two y-ended words by the table fill of the module
    docstring; each state it builds goes into the memo. Every memo key is a
    pair of words that passed :func:`~tmzv.words._require_h1`, so ``check``
    runs it on a miss only. The words are checked by then, so an empty side
    returns the other word as it is."""
    cache = _CACHE_O if open_ else _CACHE_T
    key = (w1, w2) if w1 <= w2 else (w2, w1)  # both products are symmetric
    hit = cache.get(key)
    if hit is not None:
        return hit
    if check:
        _require_h1(w1)
        _require_h1(w2)
    if not w1:
        return Element._unsafe({w2: POLY_ONE})
    if not w2:
        return Element._unsafe({w1: POLY_ONE})
    # the z-letters of each word, and its suffixes from each letter on, the
    # last one empty
    z1 = [run + "y" for run in w1.split("y")[:-1]]
    z2 = [run + "y" for run in w2.split("y")[:-1]]
    s1 = [w1[p:] for p in accumulate(map(len, z1), initial=0)]
    s2 = [w2[p:] for p in accumulate(map(len, z2), initial=0)]
    n, m = len(z1), len(z2)
    merged, x_run = TIMES[ONE_MINUS_2T], TIMES[T2_MINUS_T]
    below = [{v: POLY_ONE} for v in s2]  # row n: the state (n, j) is the word s2[j]
    for i in range(n - 1, -1, -1):
        zk, u = z1[i], s1[i]
        row: list = [None] * m + [{u: POLY_ONE}]  # the state (i, m) is the word u
        for j in range(m - 1, -1, -1):
            v = s2[j]
            state = (u, v) if u <= v else (v, u)
            hit = cache.get(state)
            if hit is not None:
                row[j] = hit._terms
                continue
            zl = z2[j]
            a, b, c = below[j], row[j + 1], below[j + 1]
            if zk != zl:
                terms = {zk + w: coeff for w, coeff in a.items()}
                terms.update({zl + w: coeff for w, coeff in b.items()})
            else:  # the one case where two blocks share words
                ab = a | b
                ab.update({w: PLUS[a[w], b[w]] for w in a.keys() & b.keys()})
                terms = {zk + w: coeff for w, coeff in ab.items()}
            xs = "x" * (len(zk) + len(zl))
            zkl = xs[1:] + "y"
            terms.update({zkl + w: merged[coeff] for w, coeff in c.items()})
            if open_ or i + 1 < n or j + 1 < m:
                terms.update({xs + w: x_run[coeff] for w, coeff in c.items()})
            row[j] = terms
            hit = cache.put(state, Element._unsafe(terms), len(terms) * (len(u) + len(v)))  # its letters
        below = row
    return hit  # the state (0, 0), never re-read: a store may have emptied the memo since


def _bilinear(a: str | Element, b: str | Element, open_: bool = False) -> Element:
    if isinstance(a, str) and isinstance(b, str):
        # a word pair returns the shared memo Element itself, with no copy
        return _stuffle_t_words(a, b, open_, check=True)
    # the terms of each side, each word checked once
    ta, tb = ([(x, POLY_ONE)] if isinstance(x, str) else list(x.items()) for x in (a, b))
    for word, _ in ta + tb:
        _require_h1(word)
    out: dict[str, TPoly] = {}
    for w1, c1 in ta:
        for w2, c2 in tb:
            # the memo entry scaled by c1 c2; the kernel skips a unit scale
            _concat_into(out, [("", c1 * c2)], _stuffle_t_words(w1, w2, open_).items())
    return Element._unsafe(out)


def stuffle_t(a: str | Element, b: str | Element) -> Element:
    """t-stuffle product of two y-ended words, extended bilinearly to Elements."""
    return _bilinear(a, b)


def stuffle_o(a: str | Element, b: str | Element) -> Element:
    """Open variant: the x-run merge term is never suppressed, so output words
    may end in x."""
    return _bilinear(a, b, open_=True)


def _merge_patterns(
    p1: tuple[int, ...], p2: tuple[int, ...], runs: dict[tuple[int, int], TPoly], memo: Memo
) -> Element:
    """Sum over the merge patterns of two part sequences: each letter is z of
    one part (coefficient 1) or z of the summed weight of a run of a parts of
    ``p1`` merged with b of ``p2`` (coefficient ``runs[a, b]``). State (i, j)
    holds the patterns of the suffixes from parts i and j. It is read from
    ``memo`` or else pulled from the states its steps reach, one kernel call a
    step, with the letter in front so the kernel skips the unit
    multiplications. Rows fill from the ends, and only the rows the longest
    run still reaches are kept, so nothing recurses."""
    n, m = len(p1), len(p2)
    # prefix sums: the parts i..i+a-1 of p1 total s1[i + a] - s1[i]
    s1, s2 = list(accumulate(p1, initial=0)), list(accumulate(p2, initial=0))
    steps = {(1, 0): POLY_ONE, (0, 1): POLY_ONE, **runs}
    reach = max(a for a, _ in steps)
    v2 = [p2[j:] for j in range(m + 1)]
    rows: dict[int, list] = {}
    for i in range(n, -1, -1):
        rows.pop(i + reach + 1, None)  # no step reaches that row any more
        rows[i] = row = [None] * (m + 1)
        u = p1[i:]
        for j in range(m, -1, -1):
            terms = memo.get((u, v2[j]))
            if terms is None:
                terms = {} if i < n or j < m else {"": POLY_ONE}
                for (a, b), coeff in steps.items():
                    if i + a <= n and j + b <= m:
                        letter = "x" * (s1[i + a] - s1[i] + s2[j + b] - s2[j] - 1) + "y"  # may pass MAX_PART
                        _concat_into(terms, [(letter, coeff)], rows[i + a][j + b].items())
                if i or j:  # every state but the product itself; each word has this many letters
                    memo.put((u, v2[j]), terms, len(terms) * (s1[n] - s1[i] + s2[m] - s2[j]))
            row[j] = terms
    return Element._unsafe(terms)


def stuffle_classical(idx1: Iterable[int], idx2: Iterable[int]) -> Element:
    """Classical quasi-shuffle z_a u * z_b v = z_a(u * z_b v) + z_b(z_a u * v)
    + z_{a+b}(u * v) on index tuples; coefficients are constants.

    It is the merge-pattern sum whose only runs merge one part with one,
    with coefficient 1: independent of the deformed recursion, it is the
    oracle for the t = 0 specialization.
    """
    return _merge_patterns(_check_index(idx1), _check_index(idx2), {(1, 1): POLY_ONE}, _STATES_K)


def stuffle_combinatorial(idx1: Iterable[int], idx2: Iterable[int]) -> Element:
    """Merge-pattern enumeration of the t-stuffle product.

    Sums all interleavings of the two part sequences in which each letter
    consumes either a single part (plain z), or a consecutive run of a >= 1
    parts from one sequence and b >= 1 from the other with |a - b| <= 1,
    giving z of the summed weight. A balanced run (a == b) carries
    (1 - 2t) (t^2 - t)^(a-1); an unbalanced one carries (t^2 - t)^min(a,b).
    Must agree with :func:`stuffle_t` on the same inputs.
    """
    p1, p2 = _check_index(idx1), _check_index(idx2)
    n, m = len(p1), len(p2)
    runs = {
        (a, b): _RUNS[a, b]
        for a in range(1, n + 1)
        for b in (a - 1, a, a + 1)
        if 1 <= b <= m
    }
    return _merge_patterns(p1, p2, runs, _STATES_C)
