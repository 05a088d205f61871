"""Interpolated multiple zeta values: word algebra, deformed stuffle products,
interpolation maps, truncated evaluators, and identity verification.

Each public name is imported from its home module on first use (PEP 562), so
``import tmzv`` loads no submodule and a command loads only what it runs.
``clear_caches`` is ``zeta.clear_cache`` under a second name: each empties
every table."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name, by its home module
_HOMES = {
    "errors": "BadParamsError DivergentError NotInH0Error NotInH1Error",
    "exact": "ONE_MINUS_2T POLY_ONE POLY_T POLY_ZERO T2_MINUS_T TPoly format_rational parse_rational",
    "identities": "VerifyReport alternating_numeric_check alternating_sum_lhs alternating_sum_rhs "
    "alternating_t_special_check closed_form_rhs decomposition_numeric_check factorial_identity_check "
    "gaussian_identity_check head_tail_rhs pivot_rhs power_product_rhs recursive_rhs",
    "interpolation": "s_t sigma_t",
    "products": "stuffle_classical stuffle_combinatorial stuffle_o stuffle_t",
    "sweeps": "STATEMENTS Statement run_statement",
    "words": "Element display_word index_of_word is_admissible weight word_of_index z_word",
    "zeta": "EvalConfig clear_cache clear_caches mzv mzv_star z_t_eval zeta_t_boxes",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    value = getattr(module, "clear_cache" if name == "clear_caches" else name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
