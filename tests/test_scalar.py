"""Polynomial ring Q[z]: division, extended gcd, linear factorization."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vira.errors import DomainError, NotSplitError
from vira.scalar import (
    MAX_PRINTED_DIGITS,
    NEG_INF,
    Poly,
    poly_divmod,
    poly_ext_gcd,
    poly_gcd,
    poly_linear_factorization,
    rational_text,
    to_rational,
)


def P(*coeffs):
    """Polynomial from ascending coefficients."""
    return Poly(coeffs)


polys = st.lists(st.integers(-9, 9), max_size=7).map(Poly)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).is_zero()

    def test_zero_degree_sentinel(self):
        assert P().degree == NEG_INF
        assert P().degree < -(10 ** 9)
        assert P(5).degree == 0

    def test_evaluate(self):
        assert P(1, -2, 1)(3) == 4  # (z-1)^2 at 3

    def test_monic(self):
        assert P(2, 4).monic() == P(Fraction(1, 2), 1)
        with pytest.raises(ZeroDivisionError):
            P().monic()

    def test_pow(self):
        assert Poly.z_minus(1) ** 2 == P(1, -2, 1)

    def test_power_is_repeated_product(self):
        p = P(Fraction(1, 2), -3, 1)
        expected = Poly.one()
        for n in range(6):
            assert p ** n == expected
            expected = expected * p

    @settings(max_examples=100, deadline=None)
    @given(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
           st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
           st.integers(0, 12))
    def test_linear_power_is_repeated_product(self, a, b, n):
        # a degree-1 base is raised by the binomial theorem
        p = P(a, b)
        expected = Poly.one()
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected

    def test_to_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            to_rational(0.5)

    @pytest.mark.parametrize("text, value", [
        ("7", Fraction(7)), ("-3/2", Fraction(-3, 2)), ("+4/6", Fraction(2, 3)),
        ("1.25", Fraction(5, 4)), ("-.5", Fraction(-1, 2)),
        pytest.param("-" + "7" * 4300, -int("7" * 4300), id="4300 digits"),
        pytest.param("1/" + "7" * 4300, Fraction(1, int("7" * 4300)), id="4300-digit denominator"),
    ])
    def test_to_rational_accepts_integers_fractions_and_decimals(self, text, value):
        assert to_rational(text) == value

    @pytest.mark.parametrize("text", [
        "1e3", "1E-3", "1.5e2", "1.", "1/2/3", " 1", "abc", "", "1_000", "\u0663",
        pytest.param("7" * 5000, id="5000 digits"),
        pytest.param("1/" + "7" * 4301, id="4301-digit denominator"),
        pytest.param("-." + "7" * 5000, id="5000 decimals"),
    ])
    def test_to_rational_refuses_other_text(self, text):
        # Fraction accepts the exponent forms and expands them to digits;
        # the huge ones, which hang a regression, run under a timeout in
        # tests/test_cli.py.  A run of digits past the print bound would
        # reach Python's own int-parsing limit.
        message = ("not an exact rational" if len(text) < MAX_PRINTED_DIGITS
                   else f"more than {MAX_PRINTED_DIGITS} digits")
        with pytest.raises(DomainError, match=message):
            to_rational(text)


class TestDivmod:
    def test_long_division_by_hand(self):
        # z^2 = (z+1)(z-1) + 1, done by hand
        q, r = poly_divmod(P(0, 0, 1), P(-1, 1))
        assert q == P(1, 1)
        assert r == P(1)

    def test_unit_divisor(self):
        p = P(3, -1, 7)
        assert poly_divmod(p, P(1)) == (p, Poly.zero())

    def test_self_division(self):
        p = Poly.z_minus(Fraction(5, 7))
        assert poly_divmod(p, p) == (P(1), Poly.zero())

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(P(1), Poly.zero())

    @settings(max_examples=100, deadline=None)
    @given(polys, polys)
    def test_reconstruction(self, a, b):
        if b.is_zero():
            return
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


class TestExtGcd:
    def test_coprime_linear_pair(self):
        # 1*(z-1) - 1*(z-2) = 1, by hand
        g, s, t = poly_ext_gcd(Poly.z_minus(1), Poly.z_minus(2))
        assert g == P(1)
        assert (s, t) == (P(1), P(-1))

    def test_divisor_pair(self):
        g, s, t = poly_ext_gcd(P(0, 0, 1), P(0, 1))
        assert g == P(0, 1)
        assert s * P(0, 0, 1) + t * P(0, 1) == g

    def test_bezout_by_hand(self):
        # (1/16)(z-1)^2 + ((5-z)/16)(z+3) = 1
        a = Poly.z_minus(1) ** 2
        b = P(3, 1)
        g, s, t = poly_ext_gcd(a, b)
        assert g == P(1)
        assert s == P(Fraction(1, 16))
        assert t == P(Fraction(5, 16), Fraction(-1, 16))

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_ext_gcd(Poly.zero(), Poly.zero())

    @settings(max_examples=100, deadline=None)
    @given(polys, polys)
    def test_identity(self, a, b):
        if a.is_zero() and b.is_zero():
            return
        g, s, t = poly_ext_gcd(a, b)
        assert s * a + t * b == g
        assert g.is_monic()
        assert poly_divmod(a, g)[1].is_zero()
        assert poly_divmod(b, g)[1].is_zero()

    @settings(max_examples=100, deadline=None)
    @given(polys, polys)
    def test_plain_gcd_is_the_bezout_gcd(self, a, b):
        if a.is_zero() and b.is_zero():
            with pytest.raises(ValueError):
                poly_gcd(a, b)
            return
        assert poly_gcd(a, b) == poly_ext_gcd(a, b)[0]


class TestLinearFactorization:
    def test_read_off_factored_input(self):
        p = (Poly.z_minus(1) ** 2) * Poly.z_minus(-3)
        assert poly_linear_factorization(p) == [(-3, 1), (1, 2)]

    def test_single_zero_root(self):
        assert poly_linear_factorization(Poly.z()) == [(0, 1)]

    @pytest.mark.parametrize("p", [
        P(1, 0, 1),
        P(-2, 0, 1),
        Poly.z_minus(1) * P(1, 1, 1),
        # splits modulo every prime, so only the exact check rejects it
        P(1, 0, -10, 0, 1),
    ], ids=str)
    def test_irreducible_rejected(self, p):
        with pytest.raises(NotSplitError, match="does not split"):
            poly_linear_factorization(p)

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            poly_linear_factorization(P(1, 2))

    def test_fractional_roots(self):
        p = Poly.z_minus(Fraction(5, 7)) * Poly.z_minus(Fraction(-1, 2))
        assert poly_linear_factorization(p) == [
            (Fraction(-1, 2), 1),
            (Fraction(5, 7), 1),
        ]

    def test_large_smooth_constant_splits_fast(self):
        start = time.perf_counter()
        assert poly_linear_factorization(Poly.z_minus(10 ** 24)) == [(10 ** 24, 1)]
        assert time.perf_counter() - start < 0.5

    def test_constant_with_two_large_primes_refused(self):
        # neither root has a prime factor up to 10^6
        root = 1000003 * 1000033
        assert poly_linear_factorization(Poly.z_minus(root)) == [(root, 1)]
        p = Poly.z_minus(1000000007) * Poly.z_minus(998244353)
        assert poly_linear_factorization(p) == [(998244353, 1), (1000000007, 1)]

    def test_prime_cofactor_is_a_divisor(self):
        prime = 10000000000037
        assert poly_linear_factorization(Poly.z_minus(prime)) == [(prime, 1)]
        assert poly_linear_factorization(Poly.z_minus(2) * Poly.z_minus(prime)) == [
            (2, 1), (prime, 1),
        ]

    def test_strong_pseudoprime_to_twelve_bases_refused(self):
        # a * b passes Miller-Rabin to every prime base up to 37; the roots
        # are its two factors, which a probable-prime answer would miss
        a, b = 399165290221, 798330580441
        assert poly_linear_factorization(Poly.z_minus(a) * Poly.z_minus(b)) == [(a, 1), (b, 1)]
        assert poly_linear_factorization(Poly.z_minus(a * b)) == [(a * b, 1)]

    def test_prime_above_the_exact_bound_refused(self):
        # a prime past the range where 13-base Miller-Rabin is exact
        # (3.3 * 10^24), and a large root of multiplicity two
        prime = 2 ** 89 - 1
        assert poly_linear_factorization(Poly.z_minus(prime)) == [(prime, 1)]
        big = 10 ** 18 + 3
        p = Poly.z_minus(big) ** 2 * Poly.z_minus(-5)
        assert poly_linear_factorization(p) == [(-5, 1), (big, 2)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6)),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda rm: rm[0],
        )
    )
    def test_reexpansion(self, root_mults):
        p = Poly.one()
        for root, mult in root_mults:
            p = p * Poly.z_minus(root) ** mult
        factors = poly_linear_factorization(p)
        assert factors == sorted(root_mults)
        rebuilt = Poly.one()
        for root, mult in factors:
            rebuilt = rebuilt * Poly.z_minus(root) ** mult
        assert rebuilt == p


class TestRationalText:
    def test_bound_is_exact(self):
        longest = 10 ** MAX_PRINTED_DIGITS - 1
        for c in (longest, -longest, Fraction(-longest, longest - 1), Fraction(1, longest)):
            assert rational_text(c) == str(c)
        for c in (longest + 1, -longest - 1, Fraction(1, longest + 1), Fraction(longest + 2, 3)):
            with pytest.raises(DomainError, match="more than 4300 digits to print"):
                rational_text(c)

    def test_polynomial_coefficients_are_bounded(self):
        # the text of every element goes through join_terms
        with pytest.raises(DomainError, match="more than 4300 digits"):
            str(Poly.z_minus(10 ** 2200) ** 2)
        assert str(Poly.z_minus(10 ** 2100) ** 2).endswith("0" * 4200)
