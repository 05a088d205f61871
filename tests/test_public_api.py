"""The public names of the ``tmzv`` package, resolved lazily from their home
modules: the same objects, every one bound by a star import and listed by
``dir``, and nothing else made up."""

import importlib

import pytest

import tmzv

# every public name of the package, by its home module; clear_caches is
# zeta.clear_cache under a second name
PUBLIC = {
    "errors": ["BadParamsError", "DivergentError", "NotInH0Error", "NotInH1Error"],
    "exact": [
        "ONE_MINUS_2T", "POLY_ONE", "POLY_T", "POLY_ZERO", "T2_MINUS_T", "TPoly",
        "format_rational", "parse_rational",
    ],
    "identities": [
        "VerifyReport", "alternating_numeric_check", "alternating_sum_lhs", "alternating_sum_rhs",
        "alternating_t_special_check", "closed_form_rhs", "decomposition_numeric_check",
        "factorial_identity_check", "gaussian_identity_check", "head_tail_rhs", "pivot_rhs",
        "power_product_rhs", "recursive_rhs",
    ],
    "interpolation": ["s_t", "sigma_t"],
    "products": ["stuffle_classical", "stuffle_combinatorial", "stuffle_o", "stuffle_t"],
    "sweeps": ["STATEMENTS", "Statement", "run_statement"],
    "words": ["Element", "display_word", "index_of_word", "is_admissible", "weight", "word_of_index", "z_word"],
    "zeta": ["EvalConfig", "clear_cache", "mzv", "mzv_star", "z_t_eval", "zeta_t_boxes"],
}
NAMES = sorted([*(name for names in PUBLIC.values() for name in names), "clear_caches"])


def test_the_package_names_the_pinned_list():
    assert len(NAMES) == len(set(NAMES)) == 48
    assert sorted(tmzv.__all__) == NAMES


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in PUBLIC.items() for name in names]
)
def test_each_name_is_its_home_modules_object(module, name):
    assert getattr(tmzv, name) is getattr(importlib.import_module(f"tmzv.{module}"), name)


def test_clear_caches_is_zeta_clear_cache():
    from tmzv import zeta

    assert tmzv.clear_caches is zeta.clear_cache


def test_star_import_binds_every_name():
    namespace = {}
    exec("from tmzv import *", namespace)
    assert set(NAMES) <= namespace.keys()
    assert all(namespace[name] is getattr(tmzv, name) for name in NAMES)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(tmzv))
    assert "__version__" in dir(tmzv)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'stuffle_x'"):
        tmzv.stuffle_x
    assert not hasattr(tmzv, "MAX_PART")  # a module's name, not the package's
