"""Exact computations in Whittaker modules over the Virasoro algebra.

The engine normal-orders elements of the enveloping algebra, computes
module actions on the universal Whittaker module and its quotients,
solves for Whittaker vectors, and mechanically verifies the structure
identities behind those computations, all over exact rationals.
"""

from .errors import (
    ContextError,
    DomainError,
    ExpressionError,
    NotSplitError,
    ReductionError,
    ViraError,
)
from .scalar import (
    NEG_INF,
    Poly,
    Rational,
    poly_divmod,
    poly_ext_gcd,
    poly_linear_factorization,
)
from .partitions import (
    Pseudopartition,
    enumerate_pseudopartitions,
)
from .virasoro import (
    UEAElement,
    bracket,
    commutator,
    d,
    straighten,
)
from .whittaker import (
    ModuleContext,
    ModuleElement,
    WhittakerHomomorphism,
    act,
    dot_act,
    is_whittaker_vector,
    nilpotency_index,
    whittaker_reduce,
)
from .analysis import (
    AnnihilatorParts,
    Report,
    TruncationSpec,
    annihilator_normal_form,
    composition_series,
    decompose,
    dot_orbit_dimension,
    nullspace,
    verify_degree_bounds,
    verify_dot_span,
    verify_leading_term,
    whittaker_solve,
)
from .witt import WittElement, project, witt_act, witt_bracket
from .exprparse import parse_expression, parse_module, parse_poly, parse_uea
from . import kernel

__version__ = "0.1.0"

__all__ = [
    "ContextError", "DomainError", "ExpressionError", "NotSplitError",
    "ReductionError", "ViraError",
    "NEG_INF", "Poly", "Rational",
    "poly_divmod", "poly_ext_gcd", "poly_linear_factorization",
    "Pseudopartition", "enumerate_pseudopartitions",
    "UEAElement", "bracket", "commutator", "d", "straighten",
    "ModuleContext", "ModuleElement", "WhittakerHomomorphism", "act",
    "dot_act", "is_whittaker_vector", "nilpotency_index", "whittaker_reduce",
    "AnnihilatorParts", "Report", "TruncationSpec", "annihilator_normal_form",
    "composition_series", "decompose", "dot_orbit_dimension", "nullspace",
    "verify_degree_bounds", "verify_dot_span", "verify_leading_term",
    "whittaker_solve",
    "WittElement", "project", "witt_act", "witt_bracket",
    "parse_expression", "parse_module", "parse_poly", "parse_uea",
    "kernel",
]
