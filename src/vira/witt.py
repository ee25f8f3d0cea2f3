"""The centerless quotient of the algebra and its module action.

Killing the central element z turns the bracket into
[d_k, d_j] = (j - k) d_{k+j}; the projection just drops every monomial
that carries a positive z-power.  Quotient modules on which z acts by 0
(the central quotient at xi = 0) are exactly the modules of the
centerless algebra, so the action here is the Virasoro action of any
preimage, guarded by a context check.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContextError
from .scalar import Poly
from .virasoro import TermMap, UEAElement
from .whittaker import ModuleElement, act


class WittElement(TermMap):
    """Element of the enveloping algebra of the centerless quotient:
    a z-free combination of PBW monomials."""

    __slots__ = ()

    _check_key = staticmethod(UEAElement._check_key)

    def __init__(self, terms=None):
        super().__init__(terms._terms if isinstance(terms, UEAElement) else terms)
        if any(t for (t, _word) in self._terms):
            raise ValueError("Witt elements carry no z-powers; use project()")

    def lift(self) -> UEAElement:
        """The canonical z-free preimage."""
        return UEAElement._raw(dict(self._terms))

    def __str__(self):
        return str(self.lift())

    def __repr__(self):
        return f"<WittElement {self}>"


def project(u: UEAElement) -> WittElement:
    """The quotient map that kills the center: drops every monomial with a
    positive z-power and keeps the rest unchanged."""
    data = {key: c for key, c in u._terms.items() if key[0] == 0}
    return WittElement._raw(data)


def _require_central_character_zero(v: ModuleElement):
    if v.context.p != Poly.z():
        raise ContextError(
            "the centerless algebra acts only where z acts by 0 "
            "(module descriptor W, i.e. the quotient by z)"
        )


def witt_act(u, v: ModuleElement) -> ModuleElement:
    """Action of a Witt element on a module with central character 0.

    Well-defined because z acts by 0 there, so the choice of preimage is
    immaterial; computed as the Virasoro action of the z-free lift.
    """
    _require_central_character_zero(v)
    lift = u.lift() if isinstance(u, WittElement) else project(u).lift()
    return act(lift, v)


def witt_bracket(i: int, j: int) -> WittElement:
    """[d_i, d_j] = (j - i) d_{i+j} in the centerless quotient."""
    if i == j:
        return WittElement()
    return WittElement._raw({(0, (i + j,)): Fraction(j - i)})
