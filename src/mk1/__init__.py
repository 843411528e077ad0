"""Exact computation in the Thompson-Higman monoids M_{k,1}.

Everything is exact: measures are k-ary rationals, heights may carry
fractional exponents symbolically, and every predicate is decided by
finite table manipulation — no floating point anywhere.
"""

from .congruence import (
    PrefixCodeCongruence,
    collision_measure,
    max_congruence,
    noncollision_measure,
    split_class,
)
from .elements import (
    Mk1Element,
    NoValue,
    apply,
    compose,
    format_table,
    identity_element,
    image_code,
    image_code_restriction,
    inverse_element,
    is_idempotent,
    is_injective,
    parse_table,
    part,
    partial_identity,
    r2_normal_form,
    single_row,
    zero_element,
)
from .errors import Mk1Error, ParseError
from .green import (
    HeightReport,
    dense_chain,
    d_index_M,
    element_with_heights,
    eq_D_M,
    eq_L,
    eq_R,
    format_height_report,
    heights,
    leq_L,
    leq_R,
    section_inverse,
    separating_context,
)
from .kary import KRational, format_krational, kq, parse_krational
from .plep import (
    d_index_plep,
    eq_D_plep,
    eta_idempotent,
    is_plep,
    is_tlep,
    plep_d_witness,
    plep_element_with_index,
)
from .words import (
    PrefixCode,
    code_with_measure,
    complement_code,
    format_word,
    is_maximal_code,
    mu,
    parse_code,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
