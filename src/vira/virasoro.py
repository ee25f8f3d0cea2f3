"""The Virasoro algebra and its universal enveloping algebra.

Generators are d_k for k in Z together with a central element z; the
bracket is

    [d_a, d_b] = (b - a) d_{a+b} + delta_{b,-a} (a^3 - a)/12 z.

A PBW monomial is z^t d_{i_1} ... d_{i_s} with i_1 <= ... <= i_s (z is
central, so all z-powers are collected in front).  ``UEAElement`` holds a
finite rational combination of PBW monomials; products are normalized by
straightening in the kernel.  Sign conventions: subalgebra membership is
read off the indices (negative modes, d_0 and z, positive modes), so no
dedicated subalgebra types exist.

The linear arithmetic, the factor printer and the conversions to and
from ``Poly`` live here once, in ``TermMap`` and its helpers; algebra,
module and Witt elements are all term maps and add only what differs.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel
from .errors import ContextError
from .scalar import Poly, join_terms, power, to_rational


def _term_sort_key(item):
    (t, word), _ = item
    return (sum(word), -len(word), word, t)


# ---------------------------------------------------------------------------
# the term-map core shared by algebra, module and Witt elements

def merge_terms(out: dict, items) -> dict:
    """Add ``(key, coefficient)`` pairs into ``out``, dropping every key
    whose total becomes zero; returns ``out``."""
    for key, c in items:
        cur = out.get(key)
        total = c if cur is None else cur + c
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def render_factors(t: int, word, *tail: str) -> list[str]:
    """The factors of z^t d_{word[0]} ... d_{word[-1]}, one per run of
    equal generators (``z^2``, ``d-1^3``, ``d2``), then ``tail``."""
    factors = [] if not t else ["z" if t == 1 else f"z^{t}"]
    i, n = 0, len(word)
    while i < n:
        k = word[i]
        j = i + 1
        while j < n and word[j] == k:
            j += 1
        factors.append(f"d{k}" if j - i == 1 else f"d{k}^{j - i}")
        i = j
    factors.extend(tail)
    return factors


def poly_terms(q: Poly, word=()) -> dict:
    """The terms of q(z) times one fixed word or pseudopartition."""
    return {(i, word): c for i, c in enumerate(q.coeffs) if c}


class TermMap:
    """A finite rational combination of keys ``(z_power, word)``, stored
    as a dict without zero coefficients.

    Subclasses say which keys are valid (``_check_key``) and where an
    element lives (``_space``); everything linear is shared.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            merge_terms(data, self._checked(items))
        self._terms = data

    def _checked(self, items):
        for key, coeff in items:
            c = to_rational(coeff)
            if c:
                yield self._check_key(key), c

    @classmethod
    def _raw(cls, data: dict):
        # Internal: data already normalized (valid keys, no zeros).
        elem = cls.__new__(cls)
        elem._terms = data
        return elem

    def _space(self) -> tuple:
        """The arguments ``_raw`` takes before the terms: where the
        element lives.  Elements of different spaces are never equal,
        and adding them raises ContextError."""
        return ()

    def _new(self, data: dict):
        return self._raw(*self._space(), data)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def poly_part(self) -> Poly | None:
        """The polynomial q with self = q(z) (times w in a module), or
        None if any d-factor is present."""
        powers = {}
        for (t, word), c in self._terms.items():
            if word:
                return None
            powers[t] = c
        return Poly.from_powers(powers)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space() == other._space() and self._terms == other._terms

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._space() != other._space():
            raise ContextError("module elements live in different contexts")
        return self._new(merge_terms(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        try:
            scale = to_rational(other)
        except TypeError:
            return NotImplemented
        return self._scaled(scale)

    __rmul__ = __mul__

    def _scaled(self, scale: Fraction):
        if not scale:
            return self._new({})
        return self._new({k: scale * c for k, c in self._terms.items()})


def _check_pbw_key(key):
    t, word = key
    t = int(t)
    word = tuple(int(i) for i in word)
    if t < 0:
        raise ValueError("z powers must be non-negative")
    if any(word[i] > word[i + 1] for i in range(len(word) - 1)):
        raise ValueError("PBW words must be non-decreasing; use straighten()")
    return (t, word)


class UEAElement(TermMap):
    """Element of the universal enveloping algebra in PBW normal form."""

    __slots__ = ()

    _check_key = staticmethod(_check_pbw_key)

    @classmethod
    def zero(cls) -> "UEAElement":
        return cls._raw({})

    @classmethod
    def one(cls) -> "UEAElement":
        return cls._raw({(0, ()): Fraction(1)})

    @classmethod
    def generator(cls, k: int) -> "UEAElement":
        return cls._raw({(0, (int(k),)): Fraction(1)})

    @classmethod
    def z_power(cls, t: int = 1) -> "UEAElement":
        if t < 0:
            raise ValueError("z powers must be non-negative")
        return cls._raw({(int(t), ()): Fraction(1)})

    @classmethod
    def monomial(cls, z_power: int, word, coeff=1) -> "UEAElement":
        return cls({(z_power, tuple(word)): coeff})

    @classmethod
    def from_poly(cls, q: Poly) -> "UEAElement":
        """q(z) as an element of the enveloping algebra."""
        return cls._raw(poly_terms(q))

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """``((z_power, word), coeff)`` pairs in printing order."""
        return sorted(self._terms.items(), key=_term_sort_key)

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            return UEAElement._raw(kernel.multiply_terms(self._terms, other._terms))
        return super().__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in U(V)")
        return power(self, n, UEAElement.one())

    def __str__(self):
        return join_terms(
            (c, render_factors(t, word)) for (t, word), c in self.sorted_terms()
        )

    def __repr__(self):
        return f"<UEAElement {self}>"


def d(k: int) -> UEAElement:
    """The generator d_k."""
    return UEAElement.generator(k)


def bracket(i: int, j: int) -> UEAElement:
    """[d_i, d_j] = (j - i) d_{i+j} + delta_{j,-i} (i^3 - i)/12 z."""
    out: dict = {}
    if j != i:
        out[(0, (i + j,))] = Fraction(j - i)
    if j == -i:
        cc = kernel.central_coefficient(i)
        if cc:
            out[(1, ())] = cc
    return UEAElement._raw(out)


def straighten(word, z_power: int = 0, coeff=1) -> UEAElement:
    """Normal form of the single product z^z_power d_{word[0]} ... d_{word[-1]}.

    ``word`` is any sequence of generator indices; sums of products are
    handled by UEAElement arithmetic (every element is kept in normal
    form).  Passing a UEAElement returns it unchanged.
    """
    if isinstance(word, UEAElement):
        return word
    c0 = to_rational(coeff)
    if not c0:
        return UEAElement.zero()
    out: dict = {}
    for (dz, w), n in kernel.straighten_word(tuple(int(i) for i in word)).items():
        out[(z_power + dz, w)] = c0 * Fraction(n, 1 << dz)
    return UEAElement._raw(out)


def commutator(u: UEAElement, v: UEAElement) -> UEAElement:
    """u v - v u."""
    return u * v - v * u
