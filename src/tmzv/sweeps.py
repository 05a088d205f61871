"""The verified statements, each defined once in :data:`STATEMENTS`.

An entry holds the statement's check, the parameter grid of its sweep and
the parameters a single-instance ``verify`` takes. :func:`run_statement`
builds a :class:`SweepArgs` from its keywords and runs the check at every
grid point, in a fixed order. ``max_size`` is the single size knob of the
exact sweeps: at its default of 3 each sweep covers its full shipped range.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .exact import TPoly
from .identities import (
    VerifyReport,
    _power_product,
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
    numeric_comparison,
    pivot_rhs,
    power_product_rhs,
    recursive_rhs,
)
from .interpolation import s_t
from .products import stuffle_classical, stuffle_combinatorial, stuffle_o, stuffle_t
from .words import Element, _sorted_words, weight, word_of_index
from .zeta import EvalConfig, mzv, mzv_star, z_t_eval, zeta_t_boxes


@dataclass(frozen=True)
class SweepArgs:
    """The sweep knobs of ``tmzv verify`` and their defaults; each grid reads those it needs."""

    max_size: int = 3
    cutoff: int | None = None
    seed: int = 0
    cases: int = 1000

    def cutoff_or(self, default: int) -> int:
        return default if self.cutoff is None else self.cutoff


@dataclass(frozen=True)
class Statement:
    """One verified statement.

    ``check(**params)`` checks one instance and ``grid(args)`` lists the
    params of each sweep instance in order. ``needs`` names the params a
    single-instance ``verify`` must get (empty for a sweep-only statement)
    and ``optional`` the defaults of those it may leave out.
    """

    check: Callable[..., VerifyReport]
    grid: Callable[[SweepArgs], list[dict]]
    needs: tuple[str, ...] = ()
    optional: Mapping[str, object] = field(default_factory=dict)


def _grid(**ranges: Iterable) -> list[dict]:
    """Every combination of the ranges, the last one varying fastest."""
    return [dict(zip(ranges, values)) for values in iproduct(*ranges.values())]


def indices_up_to(max_depth: int, max_part: int, include_empty: bool = False) -> Iterator[tuple[int, ...]]:
    """All index tuples with the given bounds, ascending depth then
    lexicographic."""
    if include_empty:
        yield ()
    for depth in range(1, max_depth + 1):
        yield from iproduct(range(1, max_part + 1), repeat=depth)


def admissible_indices(max_weight: int, max_depth: int) -> Iterator[tuple[int, ...]]:
    """Indices with first part >= 2, weight <= max_weight and depth <=
    max_depth, each followed by its extensions; depth first, with a stack of
    (index, weight left, parts still to try), so nothing recurses."""
    stack = [((), max_weight, iter(range(2, max_weight + 1)))] if max_depth else []
    while stack:
        prefix, left, parts = stack[-1]
        part = next(parts, None)
        if part is None:
            stack.pop()
            continue
        idx = prefix + (part,)
        yield idx
        if len(idx) != max_depth:
            stack.append((idx, left - part, iter(range(1, left - part + 1))))


# ---------------------------------------------------------------------------
# exact product statements: the t-stuffle product of two words against an
# independently built expansion


def _product(left: Sequence[int], right: Sequence[int]) -> Element:
    return stuffle_t(word_of_index(left), word_of_index(right))


def _heads(m: int, u: int, p: int, n: int, v: int) -> Element:
    """z_m z_p^n * z_u z_p^v, expanded by both the closed and recursive forms."""
    return _product((m,) + (p,) * n, (u,) + (p,) * v)


def _head_tail(head: int, p: int, k: int, m: int) -> Element:
    return _product((head,) + (p,) * k, (p,) * m)


def _heads_grid(args: SweepArgs, heads: range, ps: range) -> list[dict]:
    tails = range(args.max_size + 1)
    return _grid(m=heads, u=heads, p=ps, n=tails, v=tails)


def _power_grid(args: SweepArgs) -> list[dict]:
    bound = 2 * args.max_size + 2
    return [
        {"m": m, "n": n, "p": p}
        for p in range(1, args.max_size + 1)
        for m in range(bound + 1)
        for n in range(bound - m + 1)
    ]


def _pivot_grid(args: SweepArgs) -> list[dict]:
    pairs = [list(idx) for idx in indices_up_to(args.max_size, args.max_size)]
    return [
        {"left": left, "right": right, "j": j}
        for left in pairs
        for right in pairs
        for j in range(1, len(left) + 1)
    ]


def _pair_grid(args: SweepArgs) -> list[dict]:
    pairs = [list(idx) for idx in indices_up_to(args.max_size, args.max_size, include_empty=True)]
    return _grid(left=pairs, right=pairs)


def _alternating_grid(args: SweepArgs) -> list[dict]:
    out = []
    for p in range(1, max(1, args.max_size - 1) + 1):
        for k in range(1, 2 * args.max_size + 3):
            out.append({"p": p, "k": k})
            if k >= 2 and k % 2 == 0:
                out.append({"p": p, "k": k, "at_ends": True})
    return out


# ---------------------------------------------------------------------------
# numeric statements

# part -> (cutoff, tolerance, closed pi-power form of zeta({part}^k))
_ZETA_FORMULAS = {
    2: (100_000, 1e-4, lambda k: math.pi ** (2 * k) / math.factorial(2 * k + 1)),
    4: (10_000, 1e-8, lambda k: 2 ** (2 * k + 1) * math.pi ** (4 * k) / math.factorial(4 * k + 2)),
}


def _zeta_formula(part: int, k: int) -> VerifyReport:
    """Truncated zeta({part}^k) against its closed form."""
    cutoff, tol, closed_form = _ZETA_FORMULAS[part]
    index = (part,) * k
    return numeric_comparison(
        "zeta-formulas",
        {"index": list(index), "cutoff": cutoff},
        {"truncated": mzv(index, EvalConfig(cutoff)), "closed_form": closed_form(k)},
        tol,
    )


def _box_map(index: list[int], t0: float, cutoff: int) -> VerifyReport:
    """Contraction enumeration against the mapped evaluation at equal cutoff,
    plus the t = 0 and t = 1 endpoint reductions."""
    idx = tuple(index)
    cfg = EvalConfig(cutoff, t0)
    values = {"boxes": zeta_t_boxes(idx, cfg), "mapped": z_t_eval(word_of_index(idx), cfg)}
    tol = 1e-10
    if t0 == 0.0:
        values["plain"] = mzv(idx, cfg)
        tol = 1e-12
    elif t0 == 1.0:
        values["star"] = mzv_star(idx, cfg)
        tol = 1e-12
    return numeric_comparison("box-map", {"index": index, "t0": t0, "cutoff": cutoff}, values, tol)


# ---------------------------------------------------------------------------
# randomized property suites


def _random_index(rng: random.Random, max_depth: int, max_part: int, admissible: bool = False) -> tuple[int, ...]:
    depth = rng.randint(1 if admissible else 0, max_depth)
    if depth == 0:
        return ()
    first = rng.randint(2 if admissible else 1, max_part)
    return (first,) + tuple(rng.randint(1, max_part) for _ in range(depth - 1))


def _suite(statement: str, seed: int, cases: int, body: Callable[[random.Random], dict | None]) -> VerifyReport:
    rng = random.Random(seed)
    for case in range(cases):
        witness = body(rng)
        if witness is not None:
            witness["case"] = case
            return VerifyReport(statement, {"seed": seed, "cases": cases}, False, witness)
    return VerifyReport(statement, {"seed": seed, "cases": cases}, True)


def _prop_commutativity(rng: random.Random) -> dict | None:
    a = _random_index(rng, 3, 4)
    b = _random_index(rng, 3, 4)
    wa, wb = word_of_index(a), word_of_index(b)
    # the memo serves both orders of a word pair from one entry, so the two
    # recursions are checked against each other: the deformed product is the
    # part of the open one whose words do not end in x
    y_ended = Element._unsafe({w: c for w, c in stuffle_o(wa, wb).items() if w[-1:] != "x"})
    if stuffle_t(wa, wb) != y_ended:
        return {"left": list(a), "right": list(b), "product": "open"}
    forward = stuffle_combinatorial(a, b)
    if forward != stuffle_combinatorial(b, a) or forward != stuffle_t(wa, wb):
        return {"left": list(a), "right": list(b), "product": "combinatorial"}
    return None


def _first_bad_word(a: Sequence[int], b: Sequence[int], good: Callable[[str], bool], **extra) -> dict | None:
    """The witness naming the first word of a * b, in Element.words() order,
    that ``good`` refuses; None when it takes them all."""
    bad = [word for word, _ in _product(a, b).items() if not good(word)]
    return {"left": list(a), "right": list(b), "word": _sorted_words(bad)[0], **extra} if bad else None


def _prop_admissibility(rng: random.Random) -> dict | None:
    a = _random_index(rng, 3, 4, admissible=True)
    b = _random_index(rng, 3, 4, admissible=True)
    # admissible: starts with x (a first part of at least 2) and ends in y
    return _first_bad_word(a, b, lambda w: w[:1] == "x" and w[-1:] == "y")


def _prop_weight(rng: random.Random) -> dict | None:
    a = _random_index(rng, 3, 4)
    b = _random_index(rng, 3, 4)
    target = weight(a) + weight(b)
    # a word's weight is its number of letters, as z_k has k
    return _first_bad_word(a, b, lambda w: len(w) == target, want=target)


_MAP_POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))


def _prop_maps(rng: random.Random) -> dict | None:
    word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 7)))
    mapped = s_t(word)
    for out in mapped.words():
        if len(out) != len(word) or (word and out[-1] != word[-1]):
            return {"word": word, "mapped": out}
    if s_t(word, TPoly.const(0)) != Element.from_word(word):
        return {"word": word, "law": "t0-identity"}
    s, u = rng.choice(_MAP_POINTS), rng.choice(_MAP_POINTS)
    twice = s_t(s_t(word, TPoly.const(u)), TPoly.const(s))
    if twice != s_t(word, TPoly.const(s + u)):
        return {"word": word, "law": "composition", "s": str(s), "u": str(u)}
    if word.startswith("x") and word.endswith("y"):
        for out in mapped.words():
            if not (out.startswith("x") and out.endswith("y")):
                return {"word": word, "mapped": out, "law": "admissible"}
    return None


def _prop_roundtrip(rng: random.Random) -> dict | None:
    terms = []
    for _ in range(rng.randint(0, 5)):
        word = "".join(rng.choice("xy") for _ in range(rng.randint(0, 6)))
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))
        ]
        terms.append((word, TPoly(coeffs)))
    elem = Element(terms)
    again = Element.from_json_obj(elem.to_json_obj())
    if again != elem:
        return {"element": elem.to_json_obj()}
    if again.to_text() != elem.to_text():
        return {"element": elem.to_json_obj(), "law": "deterministic-text"}
    return None


_PROPERTIES = (
    ("properties:commutativity", _prop_commutativity),
    ("properties:admissibility", _prop_admissibility),
    ("properties:weight", _prop_weight),
    ("properties:maps", _prop_maps),
    ("properties:roundtrip", _prop_roundtrip),
)


def _properties_grid(args: SweepArgs) -> list[dict]:
    return [
        {"statement": name, "seed": args.seed * 1000 + offset, "cases": args.cases, "body": body}
        for offset, (name, body) in enumerate(_PROPERTIES)
    ]


# ---------------------------------------------------------------------------
# the registry

_HEADS = ("m", "u", "p", "n", "v")

STATEMENTS: dict[str, Statement] = {
    "recursive": Statement(
        lambda **q: element_comparison("recursive", q, _heads(**q), recursive_rhs(**q)),
        lambda a: _heads_grid(a, range(1, a.max_size + 1), range(1, a.max_size + 1)),
        needs=_HEADS,
    ),
    "closed-form": Statement(
        lambda **q: element_comparison("closed-form", q, _heads(**q), closed_form_rhs(**q)),
        lambda a: _heads_grid(
            a, range(2, max(2, a.max_size) + 1), range(1, max(1, a.max_size - 1) + 1)
        ),
        needs=_HEADS,
    ),
    "power-product": Statement(
        lambda **q: element_comparison("power-product", q, _power_product(**q), power_product_rhs(**q)),
        _power_grid,
        needs=("m", "n", "p"),
    ),
    "head-tail": Statement(
        lambda **q: element_comparison("head-tail", q, _head_tail(**q), head_tail_rhs(**q)),
        lambda a: _grid(
            head=range(2, max(2, a.max_size) + 1),
            p=range(1, max(1, a.max_size - 1) + 1),
            k=range(0, max(0, a.max_size - 1) + 1),
            m=range(0, a.max_size + 2),
        ),
        needs=("head", "p", "k", "m"),
    ),
    "pivot": Statement(
        lambda **q: element_comparison(
            "pivot", q, _product(q["left"], q["right"]), pivot_rhs(q["left"], q["right"], q["j"])
        ),
        _pivot_grid,
        needs=("left", "right"),
        optional={"j": 1},
    ),
    # the signed sum of z_p^a * z_p^(k-a) against its closed form or, with
    # at_ends, against its values at t = 0 and t = 1
    "alternating": Statement(
        lambda at_ends=False, **q: alternating_t_special_check(**q) if at_ends else element_comparison(
            "alternating", q, alternating_sum_lhs(**q), alternating_sum_rhs(**q)
        ),
        _alternating_grid,
    ),
    "combinatorial": Statement(
        lambda **q: element_comparison(
            "combinatorial", q, _product(**q), stuffle_combinatorial(q["left"], q["right"])
        ),
        _pair_grid,
        needs=("left", "right"),
    ),
    "t0-reduction": Statement(
        lambda **q: element_comparison(
            "t0-reduction", q, _product(**q).eval_at(Fraction(0)), stuffle_classical(q["left"], q["right"])
        ),
        _pair_grid,
        needs=("left", "right"),
    ),
    "zeta-formulas": Statement(
        _zeta_formula, lambda a: _grid(part=(2,), k=(1, 2, 3)) + _grid(part=(4,), k=(1, 2))
    ),
    "box-map": Statement(
        _box_map,
        lambda a: _grid(
            index=[list(idx) for idx in admissible_indices(8, 4)],
            t0=(0.0, 0.5, 1.0, -1.0),
            cutoff=(a.cutoff_or(10_000),),
        ),
    ),
    "decomposition": Statement(
        decomposition_numeric_check,
        lambda a: _grid(
            m=(2, 3), u=(2, 3), p=(1, 2), n=(0, 1), v=(0, 1),
            t0=(0.0, 0.5, 1.0), cutoff=(a.cutoff_or(100_000),),
        ),
        needs=_HEADS,
        optional={"t0": 0.0, "cutoff": 100_000},
    ),
    "alternating-numeric": Statement(
        alternating_numeric_check, lambda a: _grid(p=(2,), k=(2, 4), cutoff=(a.cutoff_or(10_000),))
    ),
    "factorial": Statement(
        factorial_identity_check, lambda a: _grid(k=range(2, 13, 2)), needs=("k",)
    ),
    "gaussian": Statement(gaussian_identity_check, lambda a: _grid(l=range(1, 4)), needs=("l",)),
    "properties": Statement(_suite, _properties_grid),
}


def run_statement(name: str, **knobs) -> list[VerifyReport]:
    statement = STATEMENTS[name]
    args = SweepArgs(**knobs)
    return [statement.check(**params) for params in statement.grid(args)]
