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
"""

from __future__ import annotations

from .exact import POLY_ONE, POLY_T, TIMES, TPoly
from .words import Element, _concat_into, validate_word


def _sigma_word(word: str, c: TPoly) -> dict[str, TPoly]:
    # Each y independently stays y or becomes x with factor c, so every
    # expanded word is reached along exactly one path: no accumulation needed.
    pairs: dict[str, TPoly] = {"": POLY_ONE}
    times_c = TIMES[c.coeffs]  # q.coeffs -> c * q
    for ch in word:
        nxt: dict[str, TPoly] = {}
        if ch == "x":
            for w, q in pairs.items():
                nxt[w + "x"] = q
        else:
            for w, q in pairs.items():
                nxt[w + "y"] = q
                scaled = times_c[q.coeffs]
                if not scaled.is_zero:
                    nxt[w + "x"] = scaled
        pairs = nxt
    return pairs


def sigma_t(a: str | Element, y_coeff: TPoly | None = None) -> Element:
    """Apply the substitution to every letter; linear on Elements.

    ``y_coeff`` is the coefficient of x in the image of y (default: the
    polynomial t).
    """
    c = POLY_T if y_coeff is None else y_coeff
    elem = Element.from_word(validate_word(a)) if isinstance(a, str) else a
    out: dict[str, TPoly] = {}
    for word, coeff in elem.items():
        _concat_into(out, [("", coeff)], _sigma_word(word, c).items())
    return Element._unsafe(out)


def s_t(a: str | Element, y_coeff: TPoly | None = None) -> Element:
    """Substitute in all letters except the last of each word; the empty word
    and single letters are fixed."""
    c = POLY_T if y_coeff is None else y_coeff
    elem = Element.from_word(validate_word(a)) if isinstance(a, str) else a
    out: dict[str, TPoly] = {}
    for word, coeff in elem.items():  # the empty prefix maps to the unit
        _concat_into(out, _sigma_word(word[:-1], c).items(), [(word[-1:], coeff)])
    return Element._unsafe(out)
