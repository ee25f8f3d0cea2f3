"""The straightening and module-action kernel used by the engine."""

from ._kernel_py import (
    IMPL,
    act_terms,
    cache_clear,
    cache_size,
    central_coefficient,
    evaluated_word,
    multiply_terms,
    straighten_word,
)

__all__ = [
    "IMPL", "act_terms", "cache_clear", "cache_size", "central_coefficient",
    "evaluated_word", "multiply_terms", "straighten_word",
]
