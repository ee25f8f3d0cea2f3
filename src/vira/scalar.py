"""Exact scalars and polynomials in the central variable z.

Everything in the engine is computed over the rationals.  Scalars are
arbitrary-precision `fractions.Fraction` values (aliased ``Rational``);
this module adds the polynomial ring Q[z] with the exact operations the
rest of the engine needs: division with remainder, the extended
Euclidean algorithm, and factorization into linear factors via the
rational-root theorem.  Floating point is never used.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError, NotSplitError

Rational = Fraction

#: Degree of the zero polynomial, and maxdeg of a zero module element.
#: Compares below every integer.
NEG_INF = float("-inf")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def power(base, n: int, one):
    """base**n for n >= 0 by binary powering; ``one`` is the unit.

    The base is squared only while bits of n remain, so no product is
    formed beyond the ones the result needs.
    """
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def to_rational(value) -> Fraction:
    """Coerce ints, Fractions, and strings like ``-3/2`` to Fraction.

    Floats are rejected: exactness is a hard requirement.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def coeff_factor_str(c: Fraction) -> str:
    """Render a non-negative coefficient as a product factor: ``4``, ``(3/4)``."""
    return f"({c})" if c.denominator != 1 else str(c)


def join_terms(parts) -> str:
    """Join ``(coefficient, factors)`` pairs into an expression string.

    ``factors`` is a list of already-rendered atoms (``d-2``, ``z^3``, ``w``).
    Signs are folded into the ``+``/``-`` separators, a unit coefficient in
    front of factors is dropped, and non-integer coefficients are
    parenthesized so every emitted string parses back.
    """
    pieces = []
    for c, factors in parts:
        mag = -c if c < 0 else c
        if not factors:
            text = str(mag)
        elif mag == 1:
            text = "*".join(factors)
        else:
            text = "*".join([coeff_factor_str(mag), *factors])
        if not pieces:
            pieces.append(f"-{text}" if c < 0 else text)
        else:
            pieces.append(f" - {text}" if c < 0 else f" + {text}")
    return "".join(pieces) if pieces else "0"


class Poly:
    """Univariate polynomial over Q in the central variable z.

    ``coeffs[i]`` multiplies ``z^i``; trailing zeros are stripped so the
    representation is canonical.  Instances are immutable value objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [to_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def z(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def z_minus(cls, xi) -> "Poly":
        return cls((-to_rational(xi), 1))

    @classmethod
    def from_powers(cls, powers: dict) -> "Poly":
        """The polynomial sum c z^t over a map t -> c."""
        dense = [_ZERO] * (max(powers, default=-1) + 1)
        for t, c in powers.items():
            dense[t] = c
        return cls(dense)

    @property
    def degree(self):
        """Degree, with the sentinel NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ZeroDivisionError("the zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return self if lead == 1 else Poly(c / lead for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("polynomial powers must be non-negative")
        return power(self, n, Poly.one())

    def __divmod__(self, other):
        return poly_divmod(self, _require_poly(other))

    def __floordiv__(self, other):
        return poly_divmod(self, _require_poly(other))[0]

    def __mod__(self, other):
        return poly_divmod(self, _require_poly(other))[1]

    def __call__(self, x) -> Fraction:
        x = to_rational(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                factors = []
            elif i == 1:
                factors = ["z"]
            else:
                factors = [f"z^{i}"]
            parts.append((c, factors))
        return join_terms(parts)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return NotImplemented


def _require_poly(value):
    p = _as_poly(value)
    if p is NotImplemented:
        raise TypeError(f"not a polynomial: {value!r}")
    return p


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact division with remainder: a = q*b + r with deg r < deg b."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(a.coeffs)
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    if len(r) <= db:
        return Poly.zero(), a
    q = [_ZERO] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        factor = c / lead
        q[i - db] = factor
        r[i] = _ZERO
        for j in range(db):
            r[i - db + j] -= factor * b.coeffs[j]
    return Poly(q), Poly(r[:db])


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g and g monic."""
    if not a and not b:
        raise ValueError("gcd of two zero polynomials is undefined")
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.leading()
    inv = 1 / lead
    return r0 * inv, s0 * inv, t0 * inv


#: Largest trial divisor in the rational-root search.  A constant that
#: leaves a cofactor above its square, with no prime factor up to it, is
#: refused rather than factored -- trial division would run for hours --
#: unless the cofactor is provably prime.
MAX_TRIAL_DIVISOR = 10**6

#: Miller-Rabin to the first thirteen prime bases decides primality
#: exactly below this bound, the least strong pseudoprime to all of them
#: (Sorenson and Webster, Math. Comp. 2017); above it nothing is accepted
#: as prime.  Twelve bases are not enough: 318665857834031151167461 =
#: 399165290221 * 798330580441 passes every base up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality of an odd n with 41 < n < MR_EXACT_BOUND."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, from its factorization by trial division."""
    n = abs(n)
    out = [1]
    p = 2
    while p * p <= n:
        if p > MAX_TRIAL_DIVISOR:
            if n < MR_EXACT_BOUND and _is_prime(n):
                break
            raise DomainError(f"rational-root search: cofactor {n} has no prime factor"
                              f" up to {MAX_TRIAL_DIVISOR}")
        layer = out
        while n % p == 0:
            n //= p
            layer = [d * p for d in layer]
            out = out + layer
        p += 1
    if n > 1:
        out += [d * n for d in out]
    return sorted(out)


def poly_linear_factorization(p: Poly) -> list[tuple[Fraction, int]]:
    """Factor a monic polynomial into linear factors over Q.

    Returns ``[(root, multiplicity), ...]`` sorted by root.  Raises
    NotSplitError when a non-linear factor remains; candidate roots come
    from the rational-root theorem applied to the primitive integer form.
    """
    if p.degree < 1:
        raise ValueError("linear factorization requires degree >= 1")
    if not p.is_monic():
        raise ValueError("linear factorization requires a monic polynomial")
    found: dict[Fraction, int] = {}
    work = p
    zero_mult = 0
    while work.degree >= 1 and not work.coeffs[0]:
        work, _ = poly_divmod(work, Poly.z())
        zero_mult += 1
    if zero_mult:
        found[_ZERO] = zero_mult
    if work.degree >= 1:
        den = 1
        for c in work.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in work.coeffs]
        content = 0
        for v in ints:
            content = gcd(content, v)
        ints = [v // content for v in ints]
        candidates = set()
        for num in _divisors(ints[0]):
            for d in _divisors(ints[-1]):
                candidates.add(Fraction(num, d))
                candidates.add(Fraction(-num, d))
        for root in sorted(candidates):
            mult = 0
            while work.degree >= 1:
                q, rem = poly_divmod(work, Poly.z_minus(root))
                if rem:
                    break
                work = q
                mult += 1
            if mult:
                found[root] = mult
            if work.degree < 1:
                break
        if work.degree >= 1:
            raise NotSplitError(
                f"{p} does not split into linear factors over the rationals"
            )
    return sorted(found.items())
