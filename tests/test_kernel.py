"""The straightening kernel's memo controls and bracket coefficient."""

from fractions import Fraction

from vira import kernel


def test_cache_controls():
    kernel.cache_clear()
    assert kernel.cache_size() == 0
    kernel.straighten_word((3, -3))
    assert kernel.cache_size() > 0
    kernel.cache_clear()
    assert kernel.cache_size() == 0


def test_central_coefficient():
    for k in range(-10, 11):
        assert kernel.central_coefficient(k) == Fraction(k ** 3 - k, 12)


def test_normal_concatenation_is_not_straightened():
    # d_{-1} d_0 times d_0 d_2: the joined word is already in normal form
    a = {(0, (-1, 0)): Fraction(2)}
    b = {(1, (0, 2)): Fraction(-3, 5), (0, ()): Fraction(1)}
    kernel.cache_clear()
    product = kernel.multiply_terms(a, b)
    assert kernel.cache_size() == 0
    assert product == {(1, (-1, 0, 0, 2)): Fraction(-6, 5), (0, (-1, 0)): Fraction(2)}
    assert kernel.straighten_word((-1, 0, 0, 2)) == {(0, (-1, 0, 0, 2)): 1}
