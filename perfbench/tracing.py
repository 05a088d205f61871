"""Spans and counters around the public calls into each tmzv module.

The tracer patches names from outside the package: it never edits
``src/``. A function imported by name into several modules is patched in
every tmzv module that holds it, so calls through any of those names are
seen. Span aggregates (calls, inclusive seconds, self seconds) stay in
memory; a span's self time is its duration minus the time its child spans
cover. Names that the package no longer has are recorded as absent instead
of failing the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

perf_counter = time.perf_counter

SWEEP_NAMES = (
    "recursive",
    "closed-form",
    "power-product",
    "head-tail",
    "pivot",
    "alternating",
    "combinatorial",
    "t0-reduction",
    "zeta-formulas",
    "box-map",
    "decomposition",
    "alternating-numeric",
    "factorial",
    "gaussian",
    "properties",
)

# Builders of identity right-hand sides; each is also its own span when
# named in RHS_DETAIL.
RHS_BUILDERS = (
    "power_product_rhs",
    "closed_form_rhs",
    "recursive_rhs",
    "head_tail_rhs",
    "pivot_rhs",
    "alternating_sum_rhs",
)
RHS_DETAIL = ("pivot_rhs", "recursive_rhs", "closed_form_rhs")


class Tracer:
    """In-memory span aggregates plus plain counters.

    ``paused`` turns every wrapper into a pass-through, so correctness
    checks made by the benchmark do not count as work of the program.
    """

    def __init__(self) -> None:
        self.paused = False
        self._open: list[list[float]] = []  # child seconds of each open span
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.miss_keys: list[tuple] = []

    def wrap(self, names: tuple[str, ...], fn, after=None):
        """Time ``fn`` as one span recorded under each of ``names``;
        ``after(result, args)`` adds counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            children = [0.0]
            tracer._open.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                for name in names:
                    agg = tracer.spans[name]
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - children[0]
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def span_value(self, name: str, field: int) -> float:
        return self.spans[name][field] if name in self.spans else 0


def _tmzv_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "tmzv" or n.startswith("tmzv.")]


def patch_everywhere(module, attr: str, make_wrapper) -> bool:
    """Replace ``module.attr`` by ``make_wrapper(original)`` in every tmzv
    module that imported it by name. Returns False when the name is gone."""
    orig = getattr(module, attr, None)
    if orig is None:
        return False
    wrapper = make_wrapper(orig)
    for mod in _tmzv_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
    return True


def instrument(tracer: Tracer) -> None:
    """Install spans and counters on the public entry points of every
    module. Call after ``tmzv.cli`` is imported, so that every module that
    re-imports a name is already loaded."""
    from tmzv import cli, exact, identities, interpolation, products, words, zeta

    TPoly = exact.TPoly
    one = exact.POLY_ONE

    def count_unit(result, args):
        a, b = args
        if _is_one(a, one) or _is_one(b, one):
            tracer.counts["exact.tpoly_mul.unit"] += 1

    mul = tracer.wrap(("exact.tpoly_mul",), TPoly.__mul__, count_unit)
    rmul = tracer.wrap(("exact.tpoly_mul",), TPoly.__rmul__, count_unit)
    TPoly.__mul__ = mul
    TPoly.__rmul__ = rmul
    TPoly.__add__ = tracer.counter("exact.tpoly_add", TPoly.__add__)

    def count_terms(name):
        def after(result, args):
            tracer.counts[name] += len(result)
        return after

    for attr, name, terms in (
        ("stuffle_t", "products.stuffle_t", "products.terms_out"),
        ("stuffle_o", "products.stuffle_o", "products.terms_out"),
        ("stuffle_combinatorial", "products.combinatorial", None),
        ("stuffle_classical", "products.classical", None),
    ):
        after = count_terms(terms) if terms else None
        if not patch_everywhere(products, attr, lambda f, n=name, a=after: tracer.wrap((n,), f, a)):
            tracer.absent.append(name)

    Element = words.Element
    Element.__eq__ = tracer.wrap(("words.element_eq",), Element.__eq__)
    Element.eval_at = tracer.wrap(("words.eval_at",), Element.eval_at)
    Element.to_json_obj = tracer.wrap(("words.to_json",), Element.to_json_obj)

    for builder in RHS_BUILDERS:
        names = ("identities.rhs",)
        if builder in RHS_DETAIL:
            names += (f"identities.{builder}",)
        patch_everywhere(identities, builder, lambda f, n=names: tracer.wrap(n, f))
    for attr in ("element_comparison", "numeric_comparison"):
        patch_everywhere(identities, attr, lambda f: tracer.wrap(("identities.compare",), f))

    def count_st(result, args):
        tracer.counts["interpolation.s_t.terms_out"] += len(result)

    patch_everywhere(interpolation, "s_t", lambda f: tracer.wrap(("interpolation.s_t",), f, count_st))

    for attr, name in (
        ("mzv", "zeta.mzv"),
        ("mzv_star", "zeta.mzv_star"),
        ("zeta_t_boxes", "zeta.boxes"),
        ("z_t_eval", "zeta.z_t_eval"),
    ):
        patch_everywhere(zeta, attr, lambda f, n=name: tracer.wrap((n,), f))

    _probe_truncated(tracer, zeta)

    def count_checks(result, args):
        tracer.counts["sweeps.checks"] += len(result)

    def sweep_span(fn):
        def run_statement(name, *args, **kwargs):
            return tracer.wrap((f"sweeps.{name}",), fn, count_checks)(name, *args, **kwargs)
        return run_statement

    patch_everywhere(cli, "run_statement", sweep_span)
    patch_everywhere(cli, "main", lambda f: tracer.wrap(("cli",), f))


def _is_one(value, one) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == 1
    return value == one


def _probe_truncated(tracer: Tracer, zeta) -> None:
    """Record the key of every miss of the private ``_truncated`` memo, for
    the computed work metrics. Absent once the memo is renamed or bounded
    differently."""
    memo = getattr(zeta, "_truncated", None)
    if memo is None or not hasattr(memo, "cache_info"):
        tracer.absent.extend(["zeta.memo.hit_ratio", "zeta.memo.misses",
                              "zeta.terms_summed", "zeta.bytes_computed"])
        return

    def truncated(parts, cutoff, strict):
        before = memo.cache_info().misses
        value = memo(parts, cutoff, strict)
        if not tracer.paused and memo.cache_info().misses != before:
            tracer.miss_keys.append((len(parts), cutoff))
        return value

    truncated.cache_info = memo.cache_info
    truncated.cache_clear = memo.cache_clear
    zeta._truncated = truncated


def memo_stats(tracer: Tracer) -> dict[str, float]:
    """Memo sizes read through private names; a name that is gone makes its
    metrics absent."""
    from tmzv import products, zeta

    out: dict[str, float] = {}
    caches = [getattr(products, name, None) for name in ("_CACHE_T", "_CACHE_O")]
    if all(isinstance(c, dict) for c in caches):
        entries = sum(len(c) for c in caches)
        calls = tracer.span_value("products.stuffle_t", 0) + tracer.span_value("products.stuffle_o", 0)
        out["products.memo.entries"] = entries
        out["products.memo.entries_per_call"] = entries / calls if calls else 0.0
    else:
        tracer.absent.extend(["products.memo.entries", "products.memo.entries_per_call"])
    memo = getattr(zeta, "_truncated", None)
    info = getattr(memo, "cache_info", None)
    if info is not None:
        stats = info()
        lookups = stats.hits + stats.misses
        out["zeta.memo.hit_ratio"] = stats.hits / lookups if lookups else 0.0
        out["zeta.memo.misses"] = stats.misses
        terms = sum(depth * cutoff for depth, cutoff in tracer.miss_keys)
        out["zeta.terms_summed"] = terms
        # float64 array passes of the prefix-sum evaluator: one arange, then
        # per part a power, a cumulative sum, a shift and a product
        out["zeta.bytes_computed"] = sum(8 * cutoff * (1 + 4 * depth) for depth, cutoff in tracer.miss_keys)
    return out
