"""Interpolated multiple zeta values: word algebra, deformed stuffle products,
interpolation maps, truncated evaluators, and identity verification."""

from .errors import BadParamsError, DivergentError, NotInH0Error, NotInH1Error
from .exact import (
    ONE_MINUS_2T,
    POLY_ONE,
    POLY_T,
    POLY_ZERO,
    T2_MINUS_T,
    TPoly,
    format_rational,
    parse_rational,
)
from .identities import (
    VerifyReport,
    alternating_numeric_check,
    alternating_sum_lhs,
    alternating_sum_rhs,
    alternating_t_special_check,
    closed_form_rhs,
    decomposition_numeric_check,
    factorial_identity_check,
    gaussian_identity_check,
    head_tail_rhs,
    pivot_rhs,
    power_product_rhs,
    recursive_rhs,
)
from .interpolation import s_t, sigma_t
from .products import (
    stuffle_classical,
    stuffle_combinatorial,
    stuffle_o,
    stuffle_t,
)
from .sweeps import STATEMENTS, Statement, run_statement
from .words import (
    Element,
    display_word,
    index_of_word,
    is_admissible,
    weight,
    word_of_index,
    z_word,
)
from .zeta import EvalConfig, clear_cache, mzv, mzv_star, z_t_eval, zeta_t_boxes
from .zeta import clear_cache as clear_caches  # one function, two names: each empties every table

__version__ = "0.1.0"
