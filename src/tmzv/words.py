"""Words over the two-letter alphabet {x, y} and their Q[t]-linear combinations.

A word is a plain string over ``"x"``/``"y"``; the empty string is the unit.
The encoding z_k = x^(k-1) y identifies an index (k_1, ..., k_n) of positive
integers with the word z_{k_1} ... z_{k_n}; the words that decompose this way
are exactly the ones ending in y (plus the empty word).

:class:`Element` is a finite linear combination of words with :class:`TPoly`
coefficients. Terms are keyed by the raw letter string, not by the index:
merge terms of the deformed products produce bare x-runs that only become
part of a z letter after further concatenation, and raw keys make that
absorption automatic.

Elements are treated as immutable; every operation builds a new value, and
outside this module only the product engine touches their terms, to read
them. That is what lets the products return their memoized Elements shared
instead of copied.

The per-term loops read each coefficient's products, sums, constants at a
point and JSON strings from the coefficient tables of :mod:`tmzv.exact`;
``TPoly`` arithmetic is the plain reference, run only when a table misses.
Terms are added in one place, the constructor's included: the concatenation
kernel ``_concat_into``, whose per-term row lookup falls on its shorter side.

This module is the one owner of the index and word checks: ``_check_index``
(positive integer parts of at most ``MAX_PART``), ``validate_word`` (letters
x and y) and ``_require_h1`` (no final x). Every entry point that takes an
index or a word reaches one of them; its callers do not check it first.
``word_of_index`` spells each index once: its words live in ``_WORDS``, a
:class:`~tmzv.exact.Memo` weighed in letters under ``WORD_LETTERS``, and
``_check_index`` runs on a table miss, before anything is stored, so a hit
is an index that passed it. ``products.clear_caches`` empties the table, and
so does ``zeta.clear_cache``, which calls it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Iterable, ItemsView, Mapping

from .errors import BadParamsError, NotInH1Error
from .exact import AT, JSON, PLUS, POLY_ONE, TIMES, Memo, TPoly

# The largest index part, and so the most symbols one letter z_k may have.
MAX_PART = 10**6
# The most letters y of a word the interpolation maps expand (into up to 2^d
# words), and the most parts of an index the boxes enumerate (2^(d-1) ways).
MAX_BOXES_DEPTH = 16
WORD_LETTERS = 1 << 20  # letters the word table holds before it empties itself
_WORDS = Memo(limit=WORD_LETTERS)  # tuple(parts) -> word, filled by word_of_index


def _check_index(parts: Iterable[int]) -> tuple[int, ...]:
    """The index as a tuple of ints; :class:`BadParamsError` unless every
    part is a positive integer of at most ``MAX_PART``."""
    given = tuple(parts)
    idx = tuple(map(int, given))
    if idx != given or (idx and min(idx) < 1):
        raise BadParamsError(f"index parts must be positive integers, got {given}")
    if idx and max(idx) > MAX_PART:
        raise BadParamsError(f"index parts must be at most MAX_PART = {MAX_PART:,}")
    return idx


def word_of_index(parts: Iterable[int]) -> str:
    """Concatenation z_{k_1} ... z_{k_n}; the empty index gives the empty word."""
    key = tuple(parts)
    word = _WORDS.get(key)
    if word is None:
        word = "".join(["x" * (k - 1) + "y" for k in _check_index(key)])
        _WORDS.put(key, word, len(word))
    return word


def z_word(k: int) -> str:
    """The word z_k = x^(k-1) y."""
    return word_of_index((k,))


def validate_word(word: str) -> str:
    """The word; :class:`BadParamsError` naming its first letter outside {x, y}."""
    rest = word.lstrip("xy")
    if rest:
        raise BadParamsError(f"letter {rest[0]!r} not in alphabet {{x, y}}")
    return word


def _require_h1(word: str) -> str:
    """The word, checked by :func:`validate_word`; :class:`NotInH1Error` if it ends in x."""
    validate_word(word)
    if word[-1:] == "x":
        raise NotInH1Error(f"word {word!r} ends in x, so it is no product of z letters")
    return word


def index_of_word(word: str) -> tuple[int, ...]:
    """Split a y-ended (or empty) word back into its index, checked by :func:`_require_h1`."""
    return tuple([len(run) + 1 for run in _require_h1(word).split("y")[:-1]])


def weight(parts: Iterable[int]) -> int:
    return sum(parts)


def is_admissible(parts: tuple[int, ...]) -> bool:
    return len(parts) > 0 and parts[0] >= 2 and min(parts) >= 1


def _sorted_words(words: Iterable[str]) -> list[str]:
    """Length-lexicographic order, the deterministic display and serialization
    order: a lexicographic sort, then a stable one by length."""
    out = sorted(words)
    out.sort(key=len)
    return out


Term = tuple[str, TPoly]


def _concat_into(out: dict[str, TPoly], left: Collection[Term], right: Collection[Term]) -> None:
    """The concatenation kernel: ``out += left · right``, adding ``c1 * c2``
    under ``w1 + w2`` for every pair of terms. The shorter side runs outside,
    chosen once per call from the two lengths, so the ``TIMES`` row lookup
    and the unit test run once per term of that side, and a unit outer
    coefficient skips the multiplication. Each product and sum is read from
    ``TIMES`` and ``PLUS``, keyed by the coefficients themselves; the product
    is commutative, so either side's row serves. It is the one accumulate
    path for nonzero terms: it serves the constructor, sums and scalings of
    :class:`Element`, the builders, the oracles, the interpolation maps and
    the bilinear extension (the product engine builds its states from
    disjoint blocks instead). Both sides hold nonzero coefficients, so only
    an add can cancel a word."""
    get = out.get
    flip = len(left) > len(right)  # then right runs outside, and its word stays second
    outer, inner = (right, left) if flip else (left, right)
    for wo, co in outer:
        unit = co == (1,)
        row = TIMES[co]
        for wi, ci in inner:
            word = wi + wo if flip else wo + wi
            coeff = ci if unit else row[ci]
            cur = get(word)
            if cur is None:
                out[word] = coeff
            else:
                coeff = PLUS[cur, coeff]
                if coeff:
                    out[word] = coeff
                else:
                    del out[word]


CoeffLike = TPoly | Fraction | int


def _as_poly(c: CoeffLike) -> TPoly:
    return c if isinstance(c, TPoly) else TPoly.const(c)


class Element:
    """Finite Q[t]-linear combination of words; zero coefficients are pruned
    eagerly so that equality is structural."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[str, CoeffLike] | Iterable[tuple[str, CoeffLike]] = ()) -> None:
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        checked = [(validate_word(word), _as_poly(coeff)) for word, coeff in pairs]
        self._terms: dict[str, TPoly] = {}
        _concat_into(self._terms, [("", POLY_ONE)], [term for term in checked if term[1]])

    @classmethod
    def _unsafe(cls, terms: dict[str, TPoly]) -> "Element":
        # fast path for internal callers that already pruned zeros
        elem = cls.__new__(cls)
        elem._terms = terms
        return elem

    @classmethod
    def zero(cls) -> "Element":
        return cls._unsafe({})

    @classmethod
    def from_word(cls, word: str, coeff: CoeffLike = POLY_ONE) -> "Element":
        validate_word(word)
        poly = _as_poly(coeff)
        return cls._unsafe({word: poly} if poly else {})

    def items(self) -> ItemsView[str, TPoly]:
        return self._terms.items()

    def sorted_items(self) -> list[tuple[str, TPoly]]:
        terms = self._terms
        return [(word, terms[word]) for word in _sorted_words(terms)]

    def words(self) -> list[str]:
        return _sorted_words(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self._terms)
        _concat_into(out, [("", POLY_ONE)], other._terms.items())
        return Element._unsafe(out)

    def __neg__(self) -> "Element":
        return Element._unsafe({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff: CoeffLike) -> "Element":
        out: dict[str, TPoly] = {}
        poly = _as_poly(coeff)
        if poly:
            _concat_into(out, [("", poly)], self._terms.items())
        return Element._unsafe(out)

    def __mul__(self, other: "Element") -> "Element":
        """Concatenation product, extended bilinearly."""
        if not isinstance(other, Element):
            return NotImplemented
        out: dict[str, TPoly] = {}
        _concat_into(out, self._terms.items(), other._terms.items())
        return Element._unsafe(out)

    def eval_at(self, t0: Fraction) -> "Element":
        """Specialize every coefficient at a rational point t0 (constants remain
        as degree-0 polynomials; vanishing terms are pruned)."""
        out: dict[str, TPoly] = {}
        consts = AT[t0]
        for word, coeff in self._terms.items():
            const = consts[coeff]
            if const:
                out[word] = const
        return Element._unsafe(out)

    def to_text(self) -> str:
        """Human-readable form: terms joined by " + ", each "(poly) word" with
        y-ended words rendered in z-notation."""
        if not self:
            return "0"
        return " + ".join(f"({coeff}) {display_word(word)}" for word, coeff in self.sorted_items())

    def to_json_obj(self) -> dict:
        terms = self._terms
        # terms with equal coefficients share one tuple of strings; once the
        # collector has untracked it, a term dict is created untracked too
        return {"terms": [{"word": word, "coeff": JSON[terms[word]]} for word in _sorted_words(terms)]}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Element":
        terms = obj["terms"]
        return cls((item["word"], TPoly.from_json(item["coeff"])) for item in terms)

    def __repr__(self) -> str:
        return f"Element<{self.to_text()}>"


def display_word(word: str) -> str:
    if word == "":
        return "1"
    if word.endswith("y"):
        return " ".join(f"z{k}" for k in index_of_word(word))
    return word
