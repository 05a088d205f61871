"""The deformed stuffle products on the word algebra.

The t-stuffle product is Q[t]-bilinear on y-ended words, with the empty word
as unit and the recursion

    z_k w1 * z_l w2 = z_k (w1 * z_l w2) + z_l (z_k w1 * w2)
                      + (1 - 2t) z_{k+l} (w1 * w2)
                      + [w1, w2 not both empty] (t^2 - t) x^{k+l} (w1 * w2).

The guard on the x-run term prevents a dangling run at the end of a word;
the open variant keeps that term unconditionally, so its results may end in
x. Both products are commutative. At t = 0 the product reduces to the
classical quasi-shuffle (stuffle) of multiple zeta values, implemented here
independently on index tuples so it can serve as an oracle.
``stuffle_combinatorial`` builds the same product by direct enumeration of
merge patterns, without recursion.

Word-pair results are memoized, one table per product, each keyed by the
unordered pair. A product of two words returns its memo Element itself, not
a copy: Elements are immutable, so no caller can change a shared entry.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable

from .errors import NotInH1Error
from .exact import ONE_MINUS_2T, POLY_ONE, T2_MINUS_T, TPoly
from .words import Element, _concat_into, _iadd, validate_word, word_of_index, z_word

_CACHE_T: dict[tuple[str, str], Element] = {}
_CACHE_O: dict[tuple[str, str], Element] = {}


def clear_caches() -> None:
    _CACHE_T.clear()
    _CACHE_O.clear()
    _classical_cached.cache_clear()


def _require_h1(word: str) -> str:
    validate_word(word)
    if word and not word.endswith("y"):
        raise NotInH1Error(f"word {word!r} ends in x; products need z-decomposable input")
    return word


def _head_tail(word: str) -> tuple[int, str]:
    # word nonempty and y-ended: peel the leading z_k
    pos = word.index("y")
    return pos + 1, word[pos + 1 :]


def _stuffle_t_words(w1: str, w2: str, open_: bool = False) -> Element:
    if not w1:
        return Element.from_word(w2)
    if not w2:
        return Element.from_word(w1)
    cache = _CACHE_O if open_ else _CACHE_T
    key = (w1, w2) if w1 <= w2 else (w2, w1)  # both products are symmetric
    hit = cache.get(key)
    if hit is not None:
        return hit
    k, t1 = _head_tail(w1)
    l, t2 = _head_tail(w2)
    out: dict[str, TPoly] = {}
    _concat_into(out, [(z_word(k), POLY_ONE)], _stuffle_t_words(t1, w2, open_).items())
    _concat_into(out, [(z_word(l), POLY_ONE)], _stuffle_t_words(w1, t2, open_).items())
    merges = [(z_word(k + l), ONE_MINUS_2T)]
    if open_ or t1 or t2:
        merges.append(("x" * (k + l), T2_MINUS_T))
    _concat_into(out, merges, _stuffle_t_words(t1, t2, open_).items())
    result = Element._unsafe(out)
    cache[key] = result
    return result


def _bilinear(a: str | Element, b: str | Element, open_: bool = False) -> Element:
    if isinstance(a, str) and isinstance(b, str):
        # a word pair returns the shared memo Element itself, with no copy
        return _stuffle_t_words(_require_h1(a), _require_h1(b), open_)
    ea = Element.from_word(a) if isinstance(a, str) else a
    eb = Element.from_word(b) if isinstance(b, str) else b
    for word, _ in [*ea.items(), *eb.items()]:
        _require_h1(word)
    out: dict[str, TPoly] = {}
    for w1, c1 in ea.items():
        for w2, c2 in eb.items():
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


def _check_index(parts: Iterable[int]) -> tuple[int, ...]:
    idx = tuple(int(k) for k in parts)
    for k in idx:
        if k < 1:
            raise ValueError(f"index parts must be positive, got {idx}")
    return idx


@lru_cache(maxsize=None)
def _classical_cached(idx1: tuple[int, ...], idx2: tuple[int, ...]) -> Element:
    if not idx1:
        return Element.from_word(word_of_index(idx2))
    if not idx2:
        return Element.from_word(word_of_index(idx1))
    a, u = idx1[0], idx1[1:]
    b, v = idx2[0], idx2[1:]
    out: dict[str, TPoly] = {}
    _concat_into(out, [(z_word(a), POLY_ONE)], _classical_cached(u, idx2).items())
    _concat_into(out, [(z_word(b), POLY_ONE)], _classical_cached(idx1, v).items())
    _concat_into(out, [(z_word(a + b), POLY_ONE)], _classical_cached(u, v).items())
    return Element._unsafe(out)


def stuffle_classical(idx1: Iterable[int], idx2: Iterable[int]) -> Element:
    """Classical quasi-shuffle z_a u * z_b v = z_a(u * z_b v) + z_b(z_a u * v)
    + z_{a+b}(u * v) on index tuples; coefficients are constants.

    Coded independently of the deformed recursion: it is the oracle for the
    t = 0 specialization.
    """
    return _classical_cached(_check_index(idx1), _check_index(idx2))


def stuffle_combinatorial(idx1: Iterable[int], idx2: Iterable[int]) -> Element:
    """Merge-pattern enumeration of the t-stuffle product.

    Walks all interleavings of the two part sequences in which each emitted
    letter consumes either a single part (plain z), or a consecutive run of
    a >= 1 parts from one sequence and b >= 1 from the other with
    |a - b| <= 1, emitting z of the summed weight. A balanced run (a == b)
    carries (1 - 2t) (t^2 - t)^(a-1); an unbalanced one carries
    (t^2 - t)^min(a,b). Must agree with :func:`stuffle_t` on the same inputs.
    """
    p1 = _check_index(idx1)
    p2 = _check_index(idx2)
    n, m = len(p1), len(p2)
    # prefix sums: the parts i..i+a-1 of p1 total s1[i + a] - s1[i]
    s1, s2 = list(accumulate(p1, initial=0)), list(accumulate(p2, initial=0))
    # the coefficient of a run of a parts merged with b parts, built once
    factors = {
        (a, b): ONE_MINUS_2T * T2_MINUS_T ** (a - 1) if a == b else T2_MINUS_T ** min(a, b)
        for a in range(1, n + 1)
        for b in (a - 1, a, a + 1)
        if 1 <= b <= m
    }
    out: dict[str, TPoly] = {}

    def emit(i: int, j: int, prefix: str, coeff: TPoly) -> None:
        if i == n and j == m:
            _iadd(out, prefix, coeff)
            return
        if i < n:
            emit(i + 1, j, prefix + z_word(p1[i]), coeff)
        if j < m:
            emit(i, j + 1, prefix + z_word(p2[j]), coeff)
        for a in range(1, n - i + 1):
            for b in (a - 1, a, a + 1):
                if b < 1 or b > m - j:
                    continue
                total = s1[i + a] - s1[i] + s2[j + b] - s2[j]
                emit(i + a, j + b, prefix + z_word(total), coeff * factors[a, b])

    emit(0, 0, "", POLY_ONE)
    return Element._unsafe(out)
