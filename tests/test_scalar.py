"""Polynomial ring Q[z]: division, extended gcd, linear factorization."""

import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vira.errors import DomainError, NotSplitError
from vira.scalar import (
    MAX_PRINTED_DIGITS,
    MAX_TRIAL_DIVISOR,
    MR_EXACT_BOUND,
    NEG_INF,
    Poly,
    _divisors,
    poly_divmod,
    poly_ext_gcd,
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

    def test_to_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            to_rational(0.5)

    @pytest.mark.parametrize("text, value", [
        ("7", Fraction(7)), ("-3/2", Fraction(-3, 2)), ("+4/6", Fraction(2, 3)),
        ("1.25", Fraction(5, 4)), ("-.5", Fraction(-1, 2)),
    ])
    def test_to_rational_accepts_integers_fractions_and_decimals(self, text, value):
        assert to_rational(text) == value

    @pytest.mark.parametrize("text", ["1e3", "1E-3", "1.5e2", "1.", "1/2/3", " 1",
                                      "abc", "", "1_000", "\u0663"])
    def test_to_rational_refuses_other_text(self, text):
        # Fraction accepts the exponent forms and expands them to digits;
        # the huge ones, which hang a regression, run under a timeout in
        # tests/test_cli.py
        with pytest.raises(DomainError, match="not an exact rational"):
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


class TestLinearFactorization:
    def test_read_off_factored_input(self):
        p = (Poly.z_minus(1) ** 2) * Poly.z_minus(-3)
        assert poly_linear_factorization(p) == [(-3, 1), (1, 2)]

    def test_single_zero_root(self):
        assert poly_linear_factorization(Poly.z()) == [(0, 1)]

    def test_irreducible_rejected(self):
        with pytest.raises(NotSplitError):
            poly_linear_factorization(P(1, 0, 1))

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            poly_linear_factorization(P(1, 2))

    def test_fractional_roots(self):
        p = Poly.z_minus(Fraction(5, 7)) * Poly.z_minus(Fraction(-1, 2))
        assert poly_linear_factorization(p) == [
            (Fraction(-1, 2), 1),
            (Fraction(5, 7), 1),
        ]

    def test_divisors_match_trial_division_to_the_root(self):
        def every_divisor(n):
            return sorted({d for i in range(1, isqrt(n) + 1) if n % i == 0 for d in (i, n // i)})

        for n in [*range(1, 2000), 720720, 2 ** 40, 3 ** 20 * 7, 999983 * 999979, 10 ** 12 + 39]:
            assert _divisors(n) == every_divisor(n)
            assert _divisors(-n) == every_divisor(n)

    def test_large_smooth_constant_splits_fast(self):
        start = time.perf_counter()
        assert poly_linear_factorization(Poly.z_minus(10 ** 24)) == [(10 ** 24, 1)]
        assert time.perf_counter() - start < 0.5

    def test_constant_with_two_large_primes_refused(self):
        bound = MAX_TRIAL_DIVISOR
        assert bound == 10 ** 6
        with pytest.raises(DomainError) as err:
            poly_linear_factorization(Poly.z_minus(1000003 * 1000033))
        assert f"no prime factor up to {bound}" in str(err.value)
        assert not isinstance(err.value, NotSplitError)

    def test_prime_cofactor_is_a_divisor(self):
        prime = 10000000000037
        assert poly_linear_factorization(Poly.z_minus(prime)) == [(prime, 1)]
        assert _divisors(2 * prime) == [1, 2, prime, 2 * prime]
        assert poly_linear_factorization(Poly.z_minus(2) * Poly.z_minus(prime)) == [
            (2, 1), (prime, 1),
        ]

    def test_strong_pseudoprime_to_twelve_bases_refused(self):
        # passes Miller-Rabin to every prime base up to 37; the roots are
        # its two factors, which a probable-prime answer would miss
        a, b = 399165290221, 798330580441
        with pytest.raises(DomainError) as err:
            poly_linear_factorization(Poly.z_minus(a) * Poly.z_minus(b))
        assert not isinstance(err.value, NotSplitError)
        assert str(a * b) in str(err.value)

    def test_prime_above_the_exact_bound_refused(self):
        prime = 2 ** 89 - 1
        assert prime > MR_EXACT_BOUND
        with pytest.raises(DomainError):
            _divisors(prime)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-4, max_value=4, max_denominator=3),
                st.integers(1, 2),
            ),
            min_size=1,
            max_size=3,
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
