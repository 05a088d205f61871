"""Truncated numerical evaluation of (interpolated) multiple zeta values.

``mzv`` computes the nested sum of prod m_i^(-k_i) over
cutoff >= m_1 > ... > m_n >= 1 by inner-to-outer prefix sums — O(depth *
cutoff) time instead of the naive O(cutoff^depth) nested loops. ``mzv_star``
uses weak inequalities. ``zeta_t_boxes`` sums all 2^(n-1) comma/plus
contractions of the index, weighting a contraction that merges down to depth
d by t0^(n-d). ``z_t_eval`` instead routes an algebra element through the
last-letter-fixed substitution map and evaluates each resulting word; the two
must agree at equal cutoff.

Identities are always compared with both sides truncated at the same
cutoff, so the slowly decaying truncation error largely cancels.

Truncated sums are cached per (index, cutoff), at most ``_TRUNCATED_MAX``
of them, in the package's one ``functools.lru_cache``, as the benchmark's
tracer (``perfbench/tracing.py``) reads its ``cache_info()`` until counters
in the package replace that probe. The image of a word under the map does
not depend on t0 or the cutoff, so ``z_t_eval`` compiles it once into float
coefficients (read from the ``FLOATS`` table of :mod:`tmzv.exact`) and
indices, kept per word in the ``Memo`` ``_compiled_word`` (``MEMO_LIMIT``
words; numeric-eval asks for 381), and a call at a new t0 only runs a
Horner loop per term.

A repeat is served from an evaluation plan, kept per (input, cutoff): the
truncated sums a call needs at any t0. ``zeta_t_boxes`` keeps the sum of each
contraction, in mask order, in ``_boxes_plans``, and reads the merge counts,
shared per depth, from ``_MERGES``; ``z_t_eval`` on a word keeps the sum of
each term of its compiled image, 1.0 for the empty word, in ``_word_plans``.
A plan hit is one float loop with no ``_truncated`` lookup. It runs the float
operations of a miss in the same order, and x * 1.0 is x, so every value is
bit-identical. The boxes checks run on a plan miss only: a key in the table
has passed them, as in ``words.word_of_index``. Each plan table is a ``Memo``
weighed in floats under ``PLAN_FLOATS`` (2^16), and holds the lru's own float
objects. An Element passed to ``z_t_eval`` is compiled, and its sums read, on
every call.

A miss of the truncated-sum memo allocates no array. It works in one work set
kept for the last cutoff up to ``_POWER_KEPT_CUTOFF``: the base m = 1..cutoff,
the read-only m^-1, m^-2 and m^-3 (the exponents in ``_KEPT_EXPONENTS``) and
running sums of m^-1, and the writable buffers ``prefix`` and ``buf``, into
which any other m^-k and running sum is computed; so at most 7 x 100,000
floats (5.6 MB) are kept. Without m^-3 and the sums, the 762 misses of a
seed-1 numeric-eval round would redo 510 powers and 324 running sums (a last
part 1), at about 0.4 ms each at cutoff 100,000. Every kept array is made by
the numpy call it replaces, on the same input, so the values are
bit-identical. A cutoff above that builds a set of three arrays (base,
``prefix``, ``buf``) for its call only. Each miss holds the module lock
``_work_lock`` throughout, since it writes the buffers. The set is a
workspace, not a third memo idiom: it holds no result keyed by arguments, its
buffers are overwritten by every miss, and it is bounded by holding one
cutoff rather than by evicting. An ``lru_cache`` would hand the same writable
buffers to concurrent callers.
``clear_cache`` empties every memo of the module, drops the work set and calls
``products.clear_caches`` for every other table; every evaluator is pure.

A cutoff that is not an integer or is above ``MAX_CUTOFF``, a boxes index of
more than ``MAX_BOXES_DEPTH`` parts and a t0 at which ``zeta_t_boxes`` or
``z_t_eval`` leaves the float range are refused with :class:`BadParamsError`;
index parts and words are checked by :mod:`tmzv.words`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

from .errors import BadParamsError, DivergentError, NotInH0Error
from .exact import FLOATS, Memo
from .interpolation import s_t
from .products import clear_caches
from .words import MAX_BOXES_DEPTH, Element, _check_index, index_of_word, is_admissible

if TYPE_CHECKING:
    import numpy as np


MAX_CUTOFF = 10**7  # a cutoff costs O(cutoff) floats per pass


@dataclass(frozen=True)
class EvalConfig:
    """Truncation cutoff for the outermost summation variable, plus the value
    of the interpolation parameter. A cutoff that is not an integer in
    1..``MAX_CUTOFF`` raises :class:`BadParamsError`."""

    cutoff: int
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.cutoff, int):
            raise BadParamsError(f"cutoff must be an integer, got {self.cutoff!r}")
        if self.cutoff < 1:
            raise BadParamsError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.cutoff > MAX_CUTOFF:
            raise BadParamsError(f"cutoff must be <= MAX_CUTOFF = {MAX_CUTOFF:,}, got {self.cutoff}")


def _require_admissible(idx: Iterable[int]) -> tuple[int, ...]:
    """The index as ints: :class:`DivergentError` unless it is admissible,
    then :class:`BadParamsError` unless its parts are integers."""
    parts = tuple(idx)
    if not is_admissible(parts):
        raise DivergentError(f"index {parts} is not admissible (needs k_1 >= 2, all parts >= 1)")
    return _check_index(parts)


def _in_range(total: float, t0: float) -> float:
    if not math.isfinite(total):
        raise BadParamsError(f"t value {t0!r} overflows the float range")
    return total


# The exponents whose m^-k arrays the work set keeps: 2,448 of the 2,934 parts
# summed by the misses of a seed-1 numeric-eval round (510 of them 3). Every
# other part is computed into ``buf`` on its miss. The set also keeps the
# running sums of m^-1, which 324 of that round's 2,172 running sums are; with
# the base and the two buffers, 7 x cutoff floats. Keeping m^-4 and the sums of
# m^-2 too was faster still, but raised numeric-eval's peak RSS by 12%.
_KEPT_EXPONENTS = (1, 2, 3)
_POWER_KEPT_CUTOFF = 100_000


class _WorkSet:
    """The arrays a miss at one cutoff works in: the read-only base
    m = 1..cutoff and, when ``keep``, m^-k for k in ``_KEPT_EXPONENTS`` and
    the running sums of m^-1, and the two writable buffers ``prefix`` and
    ``buf``."""

    __slots__ = ("cutoff", "base", "kept", "sums", "prefix", "buf")

    def __init__(self, cutoff: int, keep: bool) -> None:
        import numpy as np  # loaded on first evaluation, so the exact paths start without it

        self.cutoff = cutoff
        self.base = np.arange(1, cutoff + 1, dtype=np.float64)
        self.base.flags.writeable = False
        self.kept, self.sums = {}, None
        if keep:
            for k in _KEPT_EXPONENTS:
                self.kept[k] = powers = np.power(self.base, float(-k))
                powers.flags.writeable = False
            self.sums = np.cumsum(self.kept[1])
            self.sums.flags.writeable = False
        self.prefix, self.buf = np.empty(cutoff), np.empty(cutoff)

    def powers(self, k: int) -> np.ndarray:
        """m^-k: a kept array, or else computed into ``buf``."""
        import numpy as np

        kept = self.kept.get(k)
        return kept if kept is not None else np.power(self.base, float(-k), out=self.buf)


# The work set of the last cutoff up to ``_POWER_KEPT_CUTOFF``, held under
# ``_work_lock`` by each miss, since its buffers are written on every miss.
_work: _WorkSet | None = None
_work_lock = threading.Lock()


def _work_set(cutoff: int) -> _WorkSet:
    global _work
    if cutoff > _POWER_KEPT_CUTOFF:
        return _WorkSet(cutoff, keep=False)
    if _work is None or _work.cutoff != cutoff:
        _work = None  # the old set goes before the new one is built
        _work = _WorkSet(cutoff, keep=True)
    return _work


# Truncated sums kept; one seed-1 numeric-eval round asks for 762 and
# ``verify all --max 3`` for 287, so neither evicts.
_TRUNCATED_MAX = 4096


@lru_cache(maxsize=_TRUNCATED_MAX)
def _truncated(parts: tuple[int, ...], cutoff: int, strict: bool) -> float:
    import numpy as np

    with _work_lock:
        work = _work_set(cutoff)
        buf = work.buf
        cur = work.powers(parts[-1])
        for k in reversed(parts[:-1]):
            # the kept sums for a last part 1, else computed before the next
            # power overwrites buf
            prefix = work.sums if cur is work.kept.get(1) else np.cumsum(cur, out=work.prefix)
            powers = work.powers(k)
            if strict:
                np.multiply(powers[1:], prefix[:-1], out=buf[1:])
                # after the multiply, since the power wrote buf[0]; the
                # leading zero keeps the summed length, and so numpy's
                # pairwise-sum blocks and every bit of the result
                buf[0] = 0.0
            else:
                np.multiply(powers, prefix, out=buf)
            cur = buf
        return float(cur.sum())


# Evaluation plans, one per (input, cutoff): the truncated sums a call at any
# t0 needs, as the lru's own float objects, weighed in floats. A seed-1
# numeric-eval round fills 3,441 in each table; the largest plan, of an index
# or word of MAX_BOXES_DEPTH parts, holds 2^15.
PLAN_FLOATS = 1 << 16  # floats one plan table holds before it empties itself
_boxes_plans = Memo(limit=PLAN_FLOATS)  # (parts, cutoff) -> _boxes_plan(parts, cutoff)
_word_plans = Memo(limit=PLAN_FLOATS)  # (word, cutoff) -> _word_plan(_compiled_word[word], cutoff)
# _MERGES[n][mask] is the number of commas the mask merges at depth n
_MERGES = Memo(lambda n: tuple(mask.bit_count() for mask in range(1 << (n - 1))))


def clear_cache() -> None:
    global _work
    _truncated.cache_clear()
    for table in (_compiled_word, _boxes_plans, _word_plans, _MERGES):
        table.clear()
    _work = None
    clear_caches()


def mzv(idx: Iterable[int], cfg: EvalConfig) -> float:
    """Truncated multiple zeta value of an admissible index."""
    return _truncated(_require_admissible(idx), cfg.cutoff, True)


def mzv_star(idx: Iterable[int], cfg: EvalConfig) -> float:
    """Truncated zeta-star value (weak inequalities between the summation
    variables)."""
    return _truncated(_require_admissible(idx), cfg.cutoff, False)


def _boxes_plan(parts: tuple[int, ...], cutoff: int) -> tuple[float, ...]:
    """The truncated sum of each contraction of ``parts``, in mask order: bit
    g of the mask replaces the comma after part g by a plus sign."""
    values = []
    for mask in range(1 << (len(parts) - 1)):
        contracted = [parts[0]]
        for gap, part in enumerate(parts[1:]):
            if mask >> gap & 1:
                contracted[-1] += part
            else:
                contracted.append(part)
        values.append(_truncated(tuple(contracted), cutoff, True))
    return tuple(values)


def zeta_t_boxes(idx: Iterable[int], cfg: EvalConfig) -> float:
    """Interpolated value by direct contraction enumeration.

    Every way of replacing commas of (k_1, ..., k_n) by plus signs yields a
    contracted index p evaluated as a plain truncated sum, weighted by
    t0^(n - dep(p)). An index of more than ``MAX_BOXES_DEPTH`` parts, and a
    t0 at which the sum leaves the float range, raise :class:`BadParamsError`.
    """
    key = tuple(idx)
    plan = _boxes_plans.get((key, cfg.cutoff))
    if plan is None:  # a key in the table has passed these checks
        parts = _require_admissible(key)
        n = len(parts)
        if n > MAX_BOXES_DEPTH:
            raise BadParamsError(f"boxes take at most MAX_BOXES_DEPTH = {MAX_BOXES_DEPTH} parts, got {n}")
        plan = _boxes_plan(parts, cfg.cutoff)
        _boxes_plans.put((parts, cfg.cutoff), plan, len(plan))
    t0 = cfg.t0
    total = 0.0
    try:
        for merges, value in zip(_MERGES[len(key)], plan):
            total += t0 ** merges * value
    except OverflowError:  # a power of t0 past the float range
        total = math.inf
    return _in_range(total, t0)


# A compiled image: one term per word in ``sorted_items`` order, holding its
# coefficient as floats, highest power of t first, and its index (None for
# the empty word).
_Compiled = tuple[tuple[tuple[float, ...], tuple[int, ...] | None], ...]


def _compile(mapped: Element) -> _Compiled:
    terms = []
    for word, coeff in mapped.sorted_items():
        fs = FLOATS[coeff]
        if word and (not word.startswith("x") or not word.endswith("y")):
            raise NotInH0Error(f"word {word!r} is not admissible")
        terms.append((fs, index_of_word(word) if word else None))
    return tuple(terms)


_compiled_word = Memo(lambda word: _compile(s_t(word)))  # _compiled_word[word] is its image


def _word_plan(compiled: _Compiled, cutoff: int) -> tuple[float, ...]:
    """The truncated sum of each term of a compiled image, in order; 1.0 for
    the empty word."""
    return tuple([1.0 if parts is None else _truncated(parts, cutoff, True) for _, parts in compiled])


def z_t_eval(a: str | Element, cfg: EvalConfig) -> float:
    """Interpolated evaluation through the last-letter-fixed map.

    Every word of the mapped element must be empty or admissible (start x,
    end y); otherwise :class:`NotInH0Error` is raised. A t0 at which the sum
    leaves the float range raises :class:`BadParamsError`. A word's compiled
    image and its plan at each cutoff are memoized; an Element is compiled
    and its sums read on each call.
    """
    if isinstance(a, str):
        compiled = _compiled_word[a]
        plan = _word_plans.get((a, cfg.cutoff))
        if plan is None:
            plan = _word_plans.put((a, cfg.cutoff), _word_plan(compiled, cfg.cutoff), len(compiled))
    else:
        compiled = _compile(s_t(a))
        plan = _word_plan(compiled, cfg.cutoff)
    t0 = cfg.t0
    total = 0.0
    for (fs, _), truncated in zip(compiled, plan):
        value = 0.0
        for f in fs:
            value = value * t0 + f
        total += value * truncated  # value * 1.0 is value, bit for bit
    return _in_range(total, t0)
