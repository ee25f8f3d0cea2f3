"""Exact scalars and polynomials in the central variable z.

Everything in the engine is computed over the rationals.  Scalars are
arbitrary-precision `fractions.Fraction` values (aliased ``Rational``);
this module adds the polynomial ring Q[z] with the exact operations the
rest of the engine needs: division with remainder, the extended
Euclidean algorithm, and factorization into linear factors by lifting
roots modulo a prime and reconstructing them as fractions.  Floating
point is never used.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

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


#: The string forms of a rational: an integer or a fraction (``-3/2``),
#: or a decimal (``.5``, ``-1.25``).  No exponent: ``1e1000000000`` would
#: be expanded to a billion digits.
_RATIONAL_TEXT = re.compile(r"[+-]?\d+(/\d+)?|[+-]?\d*\.\d+", re.ASCII)


def to_rational(value) -> Fraction:
    """Coerce ints, Fractions, and strings like ``-3/2`` to Fraction.

    Floats are rejected: exactness is a hard requirement.  A string that
    is not an integer, a fraction or a decimal, or that has a zero
    denominator, raises DomainError naming the text; one with a run of
    more than ``MAX_PRINTED_DIGITS`` digits raises DomainError before it
    is converted.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_TEXT.fullmatch(value):
            raise DomainError(f"not an exact rational: {value!r}")
        for digits in re.findall(r"\d+", value):
            parse_digits(digits)
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


#: Most decimal digits a numerator or denominator may have, printed or
#: parsed (Python's default int-to-text limit); a longer one is refused.
MAX_PRINTED_DIGITS = 4300
_PRINT_LIMIT = 10 ** MAX_PRINTED_DIGITS
_PRINT_BITS = _PRINT_LIMIT.bit_length()


def parse_digits(digits: str) -> int:
    """The int of a run of decimal digits, refused past MAX_PRINTED_DIGITS."""
    if len(digits) > MAX_PRINTED_DIGITS:
        raise DomainError(f"a number in the input has more than {MAX_PRINTED_DIGITS} digits")
    return int(digits)


def rational_text(c) -> str:
    """``str`` of an int or Fraction, the one place an output coefficient
    becomes text.  A numerator or denominator of more than
    ``MAX_PRINTED_DIGITS`` digits raises DomainError; only one of at least
    as many bits as 10^4300 is compared with it, so the check costs two
    ``bit_length`` calls."""
    num, den = c.numerator, c.denominator
    if (max(num.bit_length(), den.bit_length()) >= _PRINT_BITS
            and max(abs(num), den) >= _PRINT_LIMIT):
        raise DomainError(f"a coefficient has more than {MAX_PRINTED_DIGITS} digits to print")
    return str(c)


def coeff_factor_str(c: Fraction) -> str:
    """Render a non-negative coefficient as a product factor: ``4``, ``(3/4)``."""
    return f"({rational_text(c)})" if c.denominator != 1 else rational_text(c)


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
            text = rational_text(mag)
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
        if self.degree != 1:
            return power(self, n, Poly.one())
        # (b z + a)^n by the binomial theorem over ints: with a = p/q and
        # b = r/s, the coefficient of z^k is C(n, k) A^k B^(n - k) / (q s)^n
        # for A = r q and B = p s
        a, b = self.coeffs
        big_a, big_b = b.numerator * a.denominator, a.numerator * b.denominator
        den = (a.denominator * b.denominator) ** n
        lows = [1]
        for _ in range(n):
            lows.append(lows[-1] * big_b)
        out = []
        high = 1  # C(n, k) A^k
        for k in range(n + 1):
            out.append(Fraction(high * lows[n - k], den))
            high = high * big_a * (n - k) // (k + 1)
        return Poly(out)

    def __divmod__(self, other):
        return poly_divmod(self, _require_poly(other))

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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of a and b by Euclid, with no Bezout cofactors."""
    if not a and not b:
        raise ValueError("gcd of two zero polynomials is undefined")
    while b:
        b = b.monic()
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


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


def _derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def _horner(f: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _rational_roots(a: Poly) -> list[Fraction]:
    """The rational roots of a squarefree monic a, steps 2-4 below."""
    lead = lcm(*(c.denominator for c in a.coeffs))
    f = [c.numerator * (lead // c.denominator) for c in a.coeffs]
    df = [i * c for i, c in enumerate(f)][1:]
    _, s, t = poly_ext_gcd(a, _derivative(a))
    bad = lcm(lead, *(c.denominator for c in s.coeffs + t.coeffs))
    ell = 2
    while bad % ell == 0 or any(ell % q == 0 for q in range(2, isqrt(ell) + 1)):
        ell += 1
    h = max(map(abs, f))
    roots = []
    for x in range(ell):
        if _horner(f, x, ell):
            continue
        m = ell
        while m <= 2 * h * h:
            m *= m
            x = (x - _horner(f, x, m) * pow(_horner(df, x, m), -1, m)) % m
        r0, t0, r1, t1 = m, 0, x, 1  # half-extended Euclid: r = t*x mod m
        while r1 > h:
            q = r0 // r1
            r0, t0, r1, t1 = r1, t1, r0 - q * r1, t0 - q * t1
        if not a(Fraction(r1, t1)):
            roots.append(Fraction(r1, t1))
    return roots


def poly_linear_factorization(p: Poly) -> list[tuple[Fraction, int]]:
    """Factor a monic polynomial into linear factors over Q.

    Returns ``[(root, multiplicity), ...]`` sorted by root, and raises
    NotSplitError when a non-linear factor remains.  No integer is
    factored (Loos, SIAM J. Comput. 12, 1983):

    1. Yun's loop (SYMSAC 1976) yields squarefree coprime a_1, a_2, ...
       with p = prod a_i^i, one per pass, so at most deg p passes.
    2. For f = L a_i in Z[z] and s a_i + t a_i' = 1 from ``poly_ext_gcd``,
       take the least prime ell dividing none of L and the denominators
       of s and t; their lcm D has at most log2 D prime factors, so ell is
       at most the (log2 D + 1)-th prime.  Mod ell, (s/L) f + (t/L) f' = 1
       and deg f is kept, so f mod ell is squarefree: its roots are simple.
    3. Each root mod ell is found by evaluation and lifted by Newton's
       iteration (f' is a unit there, so precision doubles per step) until
       the modulus m exceeds 2 H^2, H the largest |coefficient| of f.
    4. A rational root u/v in lowest terms has v | L, and u = 0 or u
       divides f's lowest nonzero coefficient, so |u|, |v| <= H.  Its
       image mod ell is a root whose lift is unique (Hensel), and as
       m > 2 H^2 >= H (H + 1), Euclid on (m, x) stopped at the first
       remainder <= H returns u/v.  A fraction is kept only if a_i of it
       is exactly 0.
    5. Fewer kept roots than deg a_i means p does not split.
    """
    if p.degree < 1:
        raise ValueError("linear factorization requires degree >= 1")
    if not p.is_monic():
        raise ValueError("linear factorization requires a monic polynomial")
    dp = _derivative(p)
    g = poly_gcd(p, dp)
    b, c = poly_divmod(p, g)[0], poly_divmod(dp, g)[0]
    found, mult = [], 0
    while b.degree >= 1:
        d = c - _derivative(b)
        a = poly_gcd(b, d)
        b, c = poly_divmod(b, a)[0], poly_divmod(d, a)[0]
        mult += 1
        roots = _rational_roots(a) if a.degree >= 1 else []
        if len(roots) < a.degree:
            raise NotSplitError(
                f"{p} does not split into linear factors over the rationals"
            )
        found += [(root, mult) for root in roots]
    return sorted(found)
