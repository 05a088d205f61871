"""Letter substitution x -> x, y -> c*x + y, and its last-letter-fixed variant.

``sigma_t`` applies the substitution to every letter of a word and extends
multiplicatively (an algebra automorphism for any coefficient c); ``s_t``
keeps the final letter of each word fixed and substitutes only in the
prefix, with the empty word mapped to itself. The default coefficient is
the polynomial t; passing a constant gives the numeric-parameter
specialization, under which applying the map at s and then at u equals
applying it at s + u.

Composed with a truncated evaluator, ``s_t`` turns algebra elements into
interpolated multiple zeta values (see :mod:`tmzv.zeta`).
"""

from __future__ import annotations

from .exact import POLY_ONE, POLY_T, TPoly
from .words import Element, _iadd, validate_word


def _sigma_word(word: str, c: TPoly) -> dict[str, TPoly]:
    # Each y independently stays y or becomes x with factor c, so every
    # expanded word is reached along exactly one path: no accumulation needed.
    # The paths carry the few powers of c, so each q * c is formed once.
    pairs: dict[str, TPoly] = {"": POLY_ONE}
    times_c: dict[tuple, TPoly] = {}  # q.coeffs -> q * c
    for ch in word:
        nxt: dict[str, TPoly] = {}
        if ch == "x":
            for w, q in pairs.items():
                nxt[w + "x"] = q
        else:
            for w, q in pairs.items():
                nxt[w + "y"] = q
                scaled = times_c.get(q.coeffs)
                if scaled is None:
                    scaled = times_c[q.coeffs] = q * c
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
        for w, q in _sigma_word(word, c).items():
            _iadd(out, w, coeff * q)
    return Element._unsafe(out)


def s_t(a: str | Element, y_coeff: TPoly | None = None) -> Element:
    """Substitute in all letters except the last of each word; the empty word
    and single letters are fixed."""
    c = POLY_T if y_coeff is None else y_coeff
    elem = Element.from_word(validate_word(a)) if isinstance(a, str) else a
    out: dict[str, TPoly] = {}
    for word, coeff in elem.items():
        if len(word) <= 1:
            _iadd(out, word, coeff)
            continue
        last = word[-1]
        for w, q in _sigma_word(word[:-1], c).items():
            _iadd(out, w + last, coeff * q)
    return Element._unsafe(out)
