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
