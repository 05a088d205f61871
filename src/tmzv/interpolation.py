"""Letter substitution x -> x, y -> c*x + y, and its last-letter-fixed variant.

``sigma_t`` applies the substitution to every letter of a word and extends
multiplicatively (an algebra automorphism for any coefficient c); ``s_t``
keeps the final letter of each word fixed and substitutes only in the
prefix, with the empty word mapped to itself. The default coefficient is
the polynomial t; passing a constant gives the numeric-parameter
specialization, under which applying the map at s and then at u equals
applying it at s + u. Both add each word's expansion, scaled by the word's
coefficient, through the concatenation kernel of :mod:`tmzv.words`.

Composed with a truncated evaluator, ``s_t`` turns algebra elements into
interpolated multiple zeta values (see :mod:`tmzv.zeta`).

Both maps refuse a word of more than ``MAX_BOXES_DEPTH`` letters y, whose
image would hold up to 2^d words, with :class:`BadParamsError` before
expanding anything; :mod:`tmzv.words` checks the letters.
"""

from __future__ import annotations

from .errors import BadParamsError
from .exact import POLY_ONE, POLY_T, TIMES, TPoly
from .words import MAX_BOXES_DEPTH, Element, _concat_into


def _sigma_word(word: str, c: TPoly) -> dict[str, TPoly]:
    # Each y independently stays y or becomes x with factor c, so every
    # expanded word is reached along exactly one path: no accumulation needed.
    pairs: dict[str, TPoly] = {"": POLY_ONE}
    times_c = TIMES[c]  # q -> c * q
    for ch in word:
        nxt: dict[str, TPoly] = {}
        if ch == "x":
            for w, q in pairs.items():
                nxt[w + "x"] = q
        else:
            for w, q in pairs.items():
                nxt[w + "y"] = q
                scaled = times_c[q]
                if scaled:
                    nxt[w + "x"] = scaled
        pairs = nxt
    return pairs


def _element(a: str | Element) -> Element:
    """The input as an Element, refused if a word has too many letters y."""
    elem = Element.from_word(a) if isinstance(a, str) else a
    depth = max([word.count("y") for word, _ in elem.items()], default=0)
    if depth > MAX_BOXES_DEPTH:
        raise BadParamsError(f"the maps take at most MAX_BOXES_DEPTH = {MAX_BOXES_DEPTH} letters y, got {depth}")
    return elem


def sigma_t(a: str | Element, y_coeff: TPoly | None = None) -> Element:
    """Apply the substitution to every letter; linear on Elements.

    ``y_coeff`` is the coefficient of x in the image of y (default: the
    polynomial t).
    """
    c = POLY_T if y_coeff is None else y_coeff
    out: dict[str, TPoly] = {}
    for word, coeff in _element(a).items():
        _concat_into(out, [("", coeff)], _sigma_word(word, c).items())
    return Element._unsafe(out)


def s_t(a: str | Element, y_coeff: TPoly | None = None) -> Element:
    """Substitute in all letters except the last of each word; the empty word
    and single letters are fixed."""
    c = POLY_T if y_coeff is None else y_coeff
    out: dict[str, TPoly] = {}
    for word, coeff in _element(a).items():  # the empty prefix maps to the unit
        _concat_into(out, _sigma_word(word[:-1], c).items(), [(word[-1:], coeff)])
    return Element._unsafe(out)
