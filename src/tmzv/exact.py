"""Exact scalar arithmetic: rationals and dense polynomials in t.

Rationals are plain :class:`fractions.Fraction` values (arbitrary precision,
stored normalized with positive denominator). ``TPoly`` is a dense polynomial
in the interpolation variable t with rational coefficients, the coefficient
ring for everything the word algebra does.
Its coefficients have one normal form: an integral value is a plain ``int``
and only a value with denominator above 1 is a ``Fraction``. Every product
and right-hand side the word algebra builds lies in Z[t], so the kernel runs
on ``int`` arithmetic; a ``Fraction`` appears only where a rational point or
a rational constant brings in a denominator. Both types have
``numerator``/``denominator`` and compare and hash alike across the two
forms (``2 == Fraction(2)``), so serialization and equality do not depend on
the form a caller passed in.

All values are immutable, so they can be shared freely between threads.
:class:`Memo` is the package's one memo type: an entry weighs 1 unless
stored with ``put``, and a store that would take the weight a table holds
past its ``limit`` first empties the table. Every coefficient the t-stuffle
product builds is a sum of products of (1 - 2t) and (t^2 - t), so the
kernel meets few distinct ones: what it computes once per coefficient lives
in the process-wide ``Memo`` tables at the end of this module, keyed by the
polynomial itself. They are the one fast path: ``TPoly`` arithmetic is the
plain reference, one loop per operation, and the kernel runs it only when a
table misses. A table holds at most ``MEMO_LIMIT`` entries; the rows of
``TIMES`` and ``AT`` are tables too, so each of those two holds at most
``MEMO_LIMIT * (MEMO_LIMIT + 1)``. ``JSON`` keeps a coefficient's "num/den"
strings as one tuple, immutable like every value the package hands out, and
every term serialized with that coefficient shares it. A race between
threads may form a value twice, or miscount a weight until the next clear,
never a wrong value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable


def format_rational(q: Fraction) -> str:
    """Serialize as "num/den", denominator always present."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a plain integer string."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _canon(c: Fraction | int) -> Fraction | int:
    """The normal form of a coefficient: ``int`` when integral, else ``Fraction``."""
    if type(c) is int:
        return c
    q = c if isinstance(c, Fraction) else Fraction(c)
    return q.numerator if q.denominator == 1 else q


class TPoly(tuple):
    """Dense univariate polynomial in t over the rationals, as the tuple of
    its coefficients: ``self[d]`` is the coefficient of t^d.

    Trailing zeros are stripped, so the zero polynomial is the empty tuple.
    Each coefficient is in normal form, a plain ``int`` when integral and a
    ``Fraction`` with denominator above 1 otherwise, whatever the caller
    passed in. So two polynomials are equal exactly when their tuples are:
    equality, hash and truth are the tuple's. From ``tuple`` it also inherits
    ``len``, iteration, ``==`` with an equal plain tuple and ``tuple + TPoly``
    concatenating; the package uses none of these as polynomial operations.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Fraction | int] = ()) -> "TPoly":
        cs = [c if type(c) is int else _canon(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return super().__new__(cls, cs)

    coeffs = property(tuple)  # a plain-tuple copy, for callers

    @classmethod
    def const(cls, c: Fraction | int) -> "TPoly":
        return cls((c,))

    @property
    def is_zero(self) -> bool:
        return not self

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self) - 1

    def __add__(self, other: "TPoly") -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self, other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for d, c in enumerate(b):
            out[d] += c
        return TPoly(out)

    def __neg__(self) -> "TPoly":
        return TPoly(-c for c in self)

    def __sub__(self, other: "TPoly") -> "TPoly":
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "TPoly | Fraction | int") -> "TPoly":
        if isinstance(other, TPoly):
            b = other
        elif isinstance(other, (Fraction, int)):
            b = (other,)  # a scalar is a constant polynomial
        else:
            return NotImplemented
        out = [0] * (len(self) + len(b) - 1)
        for i, x in enumerate(self):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return TPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = POLY_ONE
        for _ in range(n):
            out = out * self
        return out

    def eval(self, t0: Fraction | int) -> Fraction | int:
        """Exact Horner evaluation at a rational point p/q, in normal form. The
        loop runs on the numerator, with powers of q as the scale, so that int
        coefficients make no ``Fraction`` until the one that closes it."""
        p, q = t0.numerator, t0.denominator
        acc, scale = 0, 1
        for c in reversed(self):
            acc, scale = acc * p + c * scale, scale * q
        return _canon(Fraction(acc * q, scale))

    def to_json(self) -> list[str]:
        """Coefficients as "num/den" strings, ascending powers of t."""
        return [format_rational(c) for c in self]

    @classmethod
    def from_json(cls, items: Iterable[str]) -> "TPoly":
        return cls(tuple(parse_rational(s) for s in items))

    def __str__(self) -> str:
        if not self:
            return "0"
        pieces = []
        for d, c in enumerate(self):
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if mag == 1 else f"{mag}{var}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"TPoly({tuple(self)!r})"


POLY_ZERO = TPoly()
POLY_ONE = TPoly.const(1)
POLY_T = TPoly((0, 1))
ONE_MINUS_2T = TPoly((1, -2))
T2_MINUS_T = TPoly((0, -1, 1))


# Entries a coefficient table holds before it empties itself. The largest
# that ``verify all --max 3`` or a benchmark round fills holds 1,597.
MEMO_LIMIT = 2048


class Memo(dict):
    """``memo[key]`` is ``make(key)``, formed on first use and stored with
    weight 1; ``put`` stores and returns a value with a weight of its own."""

    __slots__ = ("make", "limit", "held")

    def __init__(self, make: Callable | None = None, limit: int = MEMO_LIMIT) -> None:
        super().__init__()
        self.make, self.limit, self.held = make, limit, 0

    def __missing__(self, key: Hashable):
        return self.put(key, self.make(key))

    def put(self, key: Hashable, value, weight: int = 1):
        if self.held + weight > self.limit:
            self.clear()
        self.held += weight
        self[key] = value
        return value

    def clear(self) -> None:
        super().clear()
        self.held = 0


TIMES = Memo(lambda a: Memo(lambda b: TPoly(a) * TPoly(b)))  # TIMES[a][b] is a * b


PLUS = Memo(lambda ab: TPoly(ab[0]) + TPoly(ab[1]))  # PLUS[a, b] is a + b, one entry per order
AT = Memo(lambda t0: Memo(lambda c: CONST[TPoly(c).eval(t0)]))  # AT[t0][c] is c at t0
CONST = Memo(TPoly.const)  # one object per value
JSON = Memo(lambda c: tuple(TPoly(c).to_json()))  # one shared tuple per coefficient
FLOATS = Memo(lambda c: tuple(float(x) for x in reversed(c)))  # highest power first


def clear_memos() -> None:
    for table in (TIMES, PLUS, AT, CONST, JSON, FLOATS):
        table.clear()
