"""Bracket, straightening, products, grading in the enveloping algebra."""

import random
from fractions import Fraction

import pytest

from vira import kernel
from vira.exprparse import parse_uea
from vira.virasoro import (
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


class TestBracket:
    def test_no_central_term_at_one(self):
        # [d_1, d_-1] = -2 d_0; the cocycle coefficient (1-1)/12 vanishes
        assert bracket(1, -1) == -2 * d(0)

    def test_central_term_at_two(self):
        # [d_2, d_-2] = -4 d_0 + (8-2)/12 z
        assert bracket(2, -2) == -4 * d(0) + UEAElement.z_power(1) * Fraction(1, 2)

    def test_weight_relation(self):
        for k in (-5, -1, 0, 3, 7):
            assert bracket(0, k) == k * d(k)

    def test_self_bracket_vanishes(self):
        assert bracket(4, 4).is_zero()


class TestStraighten:
    def test_single_swap(self):
        assert d(1) * d(-1) == straighten([-1, 1]) - 2 * d(0)

    def test_swap_with_central_term(self):
        expected = straighten([-2, 2]) - 4 * d(0) + UEAElement.z_power(1) * Fraction(1, 2)
        assert d(2) * d(-2) == expected
        assert straighten([2, -2]) == expected

    def test_ordered_word_is_fixed_point(self):
        u = straighten([-2, 0, 3])
        assert u == UEAElement.monomial(0, (-2, 0, 3))
        assert straighten(u) == u

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(ValueError):
            UEAElement.monomial(0, (3, -2))


class TestMultiply:
    def test_identity(self):
        one = UEAElement.one()
        u = straighten([2, -1, 0], z_power=1, coeff=Fraction(3, 4))
        assert multiply(one, u) == u
        assert multiply(u, one) == u

    def test_hand_expansion(self):
        u = d(-1) + d(1)
        expected = (
            straighten([-1, -1])
            + 2 * straighten([-1, 1])
            - 2 * d(0)
            + straighten([1, 1])
        )
        assert u * u == expected

    def test_scalar_and_power(self):
        u = d(-1)
        assert (2 * u) * u == 2 * straighten([-1, -1])
        assert u ** 3 == straighten([-1, -1, -1])

    def test_power_is_repeated_product(self):
        u = straighten([2, -1], coeff=3) + straighten([0], z_power=1)
        expected = UEAElement.one()
        for n in range(6):
            assert u ** n == expected
            expected = expected * u

    def test_power_forms_no_extra_square(self, monkeypatch):
        # x^3 = x * x^2: the longest product straightened is 2 + 4 letters,
        # never the 8 of a needless x^4.
        seen = []
        original = kernel.multiply_terms

        def spy(a, b):
            seen.append(max((len(wa) for _, wa in a), default=0)
                        + max((len(wb) for _, wb in b), default=0))
            return original(a, b)

        monkeypatch.setattr(kernel, "multiply_terms", spy)
        parse_uea("(d2*d-1)^3")
        assert max(seen) == 6


class TestWeight:
    def test_examples(self):
        assert weight(PBWMonomial(3, (-2, -1))) == -3
        assert weight(PBWMonomial(0, (2,))) == 2
        assert weight(PBWMonomial(0, ())) == 0

    def test_grading_of_products(self):
        rng = random.Random(7)
        for _ in range(40):
            wu = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            wv = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            u, v = straighten(wu), straighten(wv)
            total = sum(wu) + sum(wv)
            assert all(m.weight == total for m in (u * v).monomials())


class TestAdPower:
    def test_zero_iterations(self):
        u = straighten([2, -2])
        assert ad_power(1, 0, u) == u

    def test_single_step(self):
        assert ad_power(1, 1, d(-1)) == -2 * d(0)

    def test_vanishes_after_three_steps(self):
        # d_-1 -> -2 d_0 -> 2 d_1 -> 0 under ad d_1
        assert ad_power(1, 2, d(-1)) == 2 * d(1)
        assert ad_power(1, 3, d(-1)).is_zero()

    def test_weight_shift(self):
        for n in (1, 2, 3):
            for k in (1, 2):
                out = ad_power(n, k, straighten([-2, -1]))
                assert all(m.weight == -3 + n * k for m in out.monomials())

    def test_requires_positive_mode(self):
        with pytest.raises(ValueError):
            ad_power(0, 1, d(-1))


class TestAlgebraLaws:
    def test_antisymmetry_small_box(self):
        for i in range(-4, 5):
            for j in range(-4, 5):
                assert d(i) * d(j) - d(j) * d(i) == bracket(i, j)

    def test_jacobi_small_box(self):
        for i in range(-3, 4):
            for j in range(-3, 4):
                for k in range(-3, 4):
                    total = (
                        commutator(bracket(i, j), d(k))
                        + commutator(bracket(j, k), d(i))
                        + commutator(bracket(k, i), d(j))
                    )
                    assert total.is_zero(), (i, j, k)

    def test_associativity_random_words(self):
        rng = random.Random(11)
        for _ in range(25):
            words = [
                [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
                for _ in range(3)
            ]
            u, v, t = (straighten(wd) for wd in words)
            assert (u * v) * t == u * (v * t)

    def test_distributivity(self):
        u, v, t = d(2), d(-1), d(0)
        assert u * (v + t) == u * v + u * t
