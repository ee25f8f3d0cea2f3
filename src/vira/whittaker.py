"""Whittaker module contexts, the module action, and vector extraction.

A context fixes the algebra map psi on the positive modes (psi(d_1) and
psi(d_2) nonzero; the bracket relations force psi(d_n) = 0 for n >= 3)
and selects one of two presentations:

* the universal module, free over the non-positive half on a cyclic
  vector w, with basis {z^t d_{-lam} w : lam a pseudopartition, t >= 0};
* the quotient by the left ideal generated by p(z) applied to w, for a
  monic p of degree >= 1, in which stored z-powers are reduced modulo p.
  The central quotient with character xi is the special case p = z - xi.

Elements store a map (z_power, lam) -> coefficient.  The action of a
normal-form element u on a basis vector straightens u * d_{-lam}, sends
every trailing positive mode to its psi value, and re-reads the
non-positive remainder as a basis vector.  The dot action of a positive
mode n is the action of d_n - psi(d_n), so d_n . v = d_n v - psi(d_n) v;
under it every positive mode acts locally nilpotently, which is what
drives the constructive Whittaker-vector extraction below.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from . import kernel
from .errors import ContextError, DomainError, ReductionError
from .partitions import Pseudopartition
from .scalar import NEG_INF, Poly, join_terms, poly_divmod, to_rational
from .virasoro import TermMap, UEAElement, poly_terms, render_factors

_ZERO = Fraction(0)
_ONE = Fraction(1)


class WhittakerHomomorphism:
    """The map psi on positive modes: n -> psi_n, zero from d_3 on."""

    __slots__ = ("psi1", "psi2")

    def __init__(self, psi1, psi2):
        p1 = to_rational(psi1)
        p2 = to_rational(psi2)
        if not p1 or not p2:
            raise DomainError("psi(d_1) and psi(d_2) must both be nonzero")
        self.psi1 = p1
        self.psi2 = p2

    def value(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("psi is defined on positive modes only")
        if n == 1:
            return self.psi1
        if n == 2:
            return self.psi2
        return _ZERO

    def __eq__(self, other):
        if not isinstance(other, WhittakerHomomorphism):
            return NotImplemented
        return (self.psi1, self.psi2) == (other.psi1, other.psi2)

    def __hash__(self):
        return hash((self.psi1, self.psi2))

    def __repr__(self):
        return f"WhittakerHomomorphism({self.psi1}, {self.psi2})"


def _as_psi(psi) -> WhittakerHomomorphism:
    if isinstance(psi, WhittakerHomomorphism):
        return psi
    return WhittakerHomomorphism(*psi)


class ModuleContext:
    """Universal module (p is None) or quotient by p(z) applied to w."""

    __slots__ = ("psi", "p", "_zreps")

    def __init__(self, psi: WhittakerHomomorphism, p: Poly | None = None):
        psi = _as_psi(psi)
        if p is not None:
            if not isinstance(p, Poly):
                p = Poly(p)
            if p.degree < 1:
                raise DomainError("quotient polynomial must have degree >= 1")
            p = p.monic()
        self.psi = psi
        self.p = p
        self._zreps: dict[int, tuple] = {}

    @classmethod
    def universal(cls, psi) -> "ModuleContext":
        return cls(psi)

    @classmethod
    def central_quotient(cls, psi, xi) -> "ModuleContext":
        """The quotient on which z acts by the scalar xi."""
        return cls(psi, Poly.z_minus(xi))

    @classmethod
    def quotient(cls, psi, p: Poly) -> "ModuleContext":
        return cls(psi, p)

    @classmethod
    def witt(cls, psi) -> "ModuleContext":
        """Central character 0; the presentation on which the Witt quotient
        of the algebra acts."""
        return cls(psi, Poly.z())

    @property
    def is_universal(self) -> bool:
        return self.p is None

    def z_dimension(self):
        """Number of stored z-powers per pseudopartition (None if unbounded)."""
        return None if self.p is None else int(self.p.degree)

    def z_rep(self, t: int) -> tuple:
        """Representative of z^t: ((power, coeff), ...) with powers < deg p."""
        if self.p is None:
            return ((t, _ONE),)
        rep = self._zreps.get(t)
        if rep is None:
            if t < self.p.degree:
                rep = ((t, _ONE),)
            else:
                _, r = poly_divmod(Poly((0,) * t + (1,)), self.p)
                rep = tuple((i, c) for i, c in enumerate(r.coeffs) if c)
            self._zreps[t] = rep
        return rep

    def reduce_raw(self, raw: dict) -> dict:
        """Reduce universal-module terms into this context."""
        if self.p is None:
            return dict(raw)
        out: dict = {}
        for (t, parts), c in raw.items():
            for power, pc in self.z_rep(t):
                key = (power, parts)
                cur = out.get(key)
                total = c * pc if cur is None else cur + c * pc
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return out

    def element(self, terms=None) -> "ModuleElement":
        return ModuleElement(self, terms)

    def w(self) -> "ModuleElement":
        """The cyclic vector."""
        return ModuleElement(self, {(0, ()): 1})

    def basis_vector(self, t: int, lam) -> "ModuleElement":
        parts = lam.parts if isinstance(lam, Pseudopartition) else tuple(lam)
        return ModuleElement(self, {(t, parts): 1})

    def poly_vector(self, q: Poly) -> "ModuleElement":
        """q(z) w in this context."""
        return ModuleElement(self, poly_terms(q))

    def descriptor(self) -> str:
        if self.p is None:
            return "M"
        if self.p.degree == 1:
            return f"L:xi={-self.p.coeffs[0]}"
        return f"Q:p={self.p}"

    @classmethod
    def parse_descriptor(cls, text: str, psi) -> "ModuleContext":
        """Parse ``M``, ``L:xi=<rational>``, ``Q:p=<poly>``, or ``W``."""
        psi = _as_psi(psi)  # psi errors take precedence over descriptor errors
        body = text.strip()
        if body == "M":
            return cls.universal(psi)
        if body == "W":
            return cls.witt(psi)
        if body.startswith("L:xi="):
            return cls.central_quotient(psi, to_rational(body[5:].strip()))
        if body.startswith("Q:p="):
            from .exprparse import parse_poly

            return cls.quotient(psi, parse_poly(body[4:]))
        raise DomainError(f"unknown module descriptor: {text!r}")

    def __eq__(self, other):
        if not isinstance(other, ModuleContext):
            return NotImplemented
        return self.psi == other.psi and self.p == other.p

    def __hash__(self):
        return hash((self.psi, self.p))

    def __repr__(self):
        return f"<ModuleContext {self.descriptor()} psi=({self.psi.psi1},{self.psi.psi2})>"


def _module_sort_key(item):
    (t, parts), _ = item
    return (-sum(parts), -len(parts), parts, t)


class ModuleElement(TermMap):
    """Finite combination of basis vectors z^t d_{-lam} w in a context."""

    __slots__ = ("context",)

    def __init__(self, context: ModuleContext, terms=None):
        super().__init__(terms)
        self.context = context
        if self._terms:
            self._terms = context.reduce_raw(self._terms)

    @staticmethod
    def _check_key(key):
        t, lam = key
        t = int(t)
        if t < 0:
            raise ValueError("z powers must be non-negative")
        parts = lam.parts if isinstance(lam, Pseudopartition) else tuple(
            sorted(int(k) for k in lam)
        )
        if parts and parts[0] < 0:
            raise ValueError("pseudopartition parts must be non-negative")
        return (t, parts)

    @classmethod
    def _raw(cls, context: ModuleContext, data: dict) -> "ModuleElement":
        # Internal: data already reduced for the context, no zero coefficients.
        elem = cls.__new__(cls)
        elem.context = context
        elem._terms = data
        return elem

    def _space(self) -> tuple:
        return (self.context,)

    def coefficient(self, t: int, lam) -> Fraction:
        parts = lam.parts if isinstance(lam, Pseudopartition) else tuple(sorted(lam))
        return self._terms.get((t, parts), _ZERO)

    def raw_terms(self) -> dict:
        return dict(self._terms)

    def __rmul__(self, other):
        if isinstance(other, UEAElement):
            return act(other, self)
        return super().__rmul__(other)

    def maxdeg(self):
        """Maximum |lam| over nonzero terms; NEG_INF for the zero element."""
        if not self._terms:
            return NEG_INF
        return max(sum(parts) for (_, parts) in self._terms)

    def max_d0(self):
        """Maximum lam(0) over nonzero terms; NEG_INF for the zero element."""
        if not self._terms:
            return NEG_INF
        return max(bisect_right(parts, 0) for (_, parts) in self._terms)

    def json_terms(self) -> list[dict]:
        return [
            {"z": t, "lambda": list(parts), "coeff": str(c)}
            for (t, parts), c in sorted(self._terms.items(), key=_module_sort_key)
        ]

    def __str__(self):
        return join_terms(
            (c, render_factors(t, [-k for k in parts[::-1]], "w"))
            for (t, parts), c in sorted(self._terms.items(), key=_module_sort_key)
        )

    def __repr__(self):
        return f"<ModuleElement {self} in {self.context.descriptor()}>"


def act(u: UEAElement, v: ModuleElement) -> ModuleElement:
    """The module action of a normal-form element on a module element."""
    if not isinstance(u, UEAElement):
        raise TypeError("act expects a UEAElement on the left")
    psi = v.context.psi
    raw = kernel.act_terms(u._terms, v._terms, psi.psi1, psi.psi2)
    return ModuleElement._raw(v.context, v.context.reduce_raw(raw))


def dot_act(n: int, v: ModuleElement) -> ModuleElement:
    """The psi-shifted action d_n . v = (d_n - psi(d_n)) v, for n >= 1."""
    if n < 1:
        raise ValueError("the dot action is defined for positive modes only")
    return act(UEAElement({(0, (n,)): 1, (0, ()): -v.context.psi.value(n)}), v)


def is_whittaker_vector(v: ModuleElement) -> bool:
    """True when d_1 and d_2 both dot-annihilate v.

    d_1 and d_2 generate the positive half, so this suffices; the zero
    element counts as a (trivial) Whittaker vector.
    """
    return dot_act(1, v).is_zero() and dot_act(2, v).is_zero()


def _descent_scan(v: ModuleElement) -> tuple[tuple[int, int], int | None]:
    """The descent measure of a nonzero v and the mode to apply next.

    The measure is (maxdeg, max lam(0) among maximal-degree terms); the
    mode is k+2 with k minimal such that lam(k) != 0 among those terms,
    or None when every maximal-degree term is a bare z-power of w.
    """
    top, d0, k = -1, 0, None
    for (_, parts) in v._terms:
        s = sum(parts)
        if s < top:
            continue
        if s > top:
            top, d0, k = s, 0, None
        zeros = bisect_right(parts, 0)
        if zeros > d0:
            d0 = zeros
        if parts and (k is None or parts[0] < k):
            k = parts[0]
    return (top, d0), (None if k is None else k + 2)


def whittaker_reduce(v: ModuleElement) -> tuple[list[int], ModuleElement]:
    """Extract a nonzero Whittaker vector from the submodule generated by v.

    Repeatedly applies the dot action of d_{k+2} where k is minimal with
    lam(k) != 0 among the terms of maximal degree.  Each application
    strictly decreases the pair (maxdeg, max lam(0) among maximal-degree
    terms) lexicographically; the trace of applied modes k+2 is returned
    with the resulting vector.  Raises ReductionError if the measure ever
    fails to decrease or the iteration cap is exceeded -- that would be an
    engine bug, not a property of the input.
    """
    if v.is_zero():
        raise ValueError("whittaker_reduce requires a nonzero element")
    if v.context.is_universal:
        raise ContextError("whittaker_reduce operates in quotient contexts")
    measure, mode = _descent_scan(v)
    top = measure[0]
    cap = (top + 1) * (v.max_d0() + top + 2)
    trace: list[int] = []
    while not is_whittaker_vector(v):
        if len(trace) >= cap:
            raise ReductionError(
                f"iteration cap {cap} exceeded without reaching a Whittaker vector"
            )
        if mode is None:
            raise ReductionError("no reducible term; element should be Whittaker already")
        nxt = dot_act(mode, v)
        if nxt.is_zero():
            raise ReductionError("descent step annihilated a non-Whittaker vector")
        nxt_measure, nxt_mode = _descent_scan(nxt)
        if not nxt_measure < measure:
            raise ReductionError(
                f"descent measure failed to decrease: {measure} -> {nxt_measure}"
            )
        trace.append(mode)
        v, measure, mode = nxt, nxt_measure, nxt_mode
    return trace, v


def nilpotency_index(n: int, lam, psi) -> tuple[int, int]:
    """Minimal k with (d_n .)^k d_{-lam} w = 0 in the universal module,
    together with the a-priori bound: the smallest k with
    n*k > |lam| + 2 #(lam).  The measured index never exceeds the bound.
    """
    if n < 1:
        raise ValueError("nilpotency index is defined for positive modes only")
    if not isinstance(lam, Pseudopartition):
        lam = Pseudopartition(lam)
    ctx = ModuleContext.universal(psi)
    bound = (lam.size + 2 * lam.count) // n + 1
    v = ctx.basis_vector(0, lam)
    index = 0
    while not v.is_zero():
        v = dot_act(n, v)
        index += 1
        if index > bound:
            raise ReductionError(
                f"dot action of d_{n} not nilpotent within the bound {bound}"
            )
    return index, bound
