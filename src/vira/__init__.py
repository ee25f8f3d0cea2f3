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
    Partition,
    Pseudopartition,
    enumerate_pseudopartitions,
    stats,
)
from .virasoro import (
    PBWMonomial,
    UEAElement,
    ad_power,
    bracket,
    commutator,
    d,
    multiply,
    straighten,
    weight,
)
from .whittaker import (
    ModuleContext,
    ModuleElement,
    WhittakerHomomorphism,
    act,
    dot_act,
    is_whittaker_vector,
    map_from_universal,
    max_d0,
    maxdeg,
    nilpotency_index,
    whittaker_reduce,
)
from .analysis import (
    AnnihilatorParts,
    Component,
    CompositionSeries,
    Decomposition,
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
    verify_submodule_free,
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
    "Partition", "Pseudopartition", "enumerate_pseudopartitions", "stats",
    "PBWMonomial", "UEAElement", "ad_power", "bracket", "commutator", "d",
    "multiply", "straighten", "weight",
    "ModuleContext", "ModuleElement", "WhittakerHomomorphism", "act",
    "dot_act", "is_whittaker_vector", "map_from_universal", "max_d0",
    "maxdeg", "nilpotency_index", "whittaker_reduce",
    "AnnihilatorParts", "Component", "CompositionSeries", "Decomposition",
    "Report", "TruncationSpec", "annihilator_normal_form",
    "composition_series", "decompose", "dot_orbit_dimension", "nullspace",
    "verify_degree_bounds", "verify_dot_span", "verify_leading_term",
    "verify_submodule_free", "whittaker_solve",
    "WittElement", "project", "witt_act", "witt_bracket",
    "parse_expression", "parse_module", "parse_poly", "parse_uea",
    "kernel",
]
