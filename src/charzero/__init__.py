"""charzero: exact census of zeros in character tables of finite reductive
groups and of Fourier transforms on their Lie algebras, plus the Weyl-group
statistics and closed-form bounds that predict those densities."""

from .cyclotomic import CycInt, cyc_is_zero, cyc_make
from .dixon import (
    CharacterTable,
    ZeroReport,
    dixon_character_table,
    dixon_zero_census,
    verify_orthogonality,
    zero_census,
)
from .errors import ExactnessError
from .ffield import Field, field_for_order, field_make
from .matgroup import conjugacy_classes, direct_product, enumerate_group, gl_group, sl_group
from .polynomials import (
    IntPoly,
    NEG_INFINITY,
    POS_INFINITY,
    RatFunc,
    fit_integer_poly,
    limit_at_infinity,
)
from .weyl import bbw_bound_check, conjugacy_probability, torus_order_poly, weyl_classes

__all__ = [
    "CycInt",
    "cyc_make",
    "cyc_is_zero",
    "IntPoly",
    "RatFunc",
    "limit_at_infinity",
    "fit_integer_poly",
    "POS_INFINITY",
    "NEG_INFINITY",
    "Field",
    "field_make",
    "field_for_order",
    "enumerate_group",
    "conjugacy_classes",
    "direct_product",
    "gl_group",
    "sl_group",
    "CharacterTable",
    "ZeroReport",
    "dixon_character_table",
    "dixon_zero_census",
    "zero_census",
    "verify_orthogonality",
    "ExactnessError",
    "weyl_classes",
    "conjugacy_probability",
    "torus_order_poly",
    "bbw_bound_check",
]

__version__ = "0.1.0"
