"""The straightening kernel: memo controls, bracket coefficient, and parity
with the reference ``Fraction`` kernel on words, products and actions."""

import random
from fractions import Fraction

import fraction_kernel as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vira import _kernel_py, kernel

PSI = (Fraction(3, 2), Fraction(-2, 5))


def _fractions(terms):
    """An int normal form ``{(c_power, word): n}`` as the oracle's
    ``{(z_power, word): Fraction}``."""
    return {(t, w): Fraction(n, 1 << t) for (t, w), n in terms.items()}


def _straightened(word):
    return _fractions(kernel.straighten_word(word))


def test_cache_controls():
    kernel.cache_clear()
    assert kernel.cache_size() == 0
    # d_3 d_{-3} is one insertion, stored under the word itself
    kernel.straighten_word((3, -3))
    assert kernel.cache_size() == 1
    kernel.cache_clear()
    assert kernel.cache_size() == 0
    # one action on a word that is not normal fills the evaluated-word memo
    # and memoizes the insertion d_2 d_{-2}; the parts of its evaluation
    # are kept per prefix, which is no word and is not counted
    kernel.act_terms({(0, (2,)): Fraction(1)}, {(0, (2,)): Fraction(1)}, *PSI)
    assert kernel.cache_size() == 2
    assert _kernel_py._parts_cache
    kernel.cache_clear()
    assert kernel.cache_size() == 0
    assert not _kernel_py._parts_cache


def test_cache_size_counts_words_straightened():
    kernel.cache_clear()
    kernel.straighten_word((2, 1, -1, -2))
    # the word and the 14 insertions it needs, d_1 d_{-1} among them
    assert kernel.cache_size() == 15
    kernel.straighten_word((2, 1, -1, -2))
    kernel.straighten_word((1, -1))
    assert kernel.cache_size() == 15


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


def test_hostile_word_needs_no_recursion():
    kernel.cache_clear()
    result = _fractions(kernel.straighten_word((1,) * 45 + (-1,) * 45))
    assert result[(0, (-1,) * 45 + (1,) * 45)] == 1
    assert all(c.denominator == 1 for c in result.values())
    assert kernel.cache_size() < 2000  # 1124
    kernel.cache_clear()


# ---------------------------------------------------------------------------
# parity with the reference kernel

def _clear():
    kernel.cache_clear()
    oracle.cache_clear()


def _word(rng):
    # positive letters ahead of larger ones exercise head stripping
    return tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 7)))


def _terms(rng, max_len=4, parts=False):
    out = {}
    for _ in range(rng.randint(0, 3)):
        letters = sorted(rng.randint(0 if parts else -4, 4) for _ in range(rng.randint(0, max_len)))
        coeff = Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.randint(1, 6))
        out[(rng.randint(0, 2), tuple(letters))] = coeff
    return out



@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-memo", "shared-memo"])
def test_words_match_reference(fresh):
    rng = random.Random(20)
    _clear()
    for _ in range(1500):
        if fresh:
            _clear()
        word = _word(rng)
        assert _straightened(word) == oracle.straighten_word(word), word


@pytest.mark.parametrize("fresh", [True, False], ids=["fresh-memo", "shared-memo"])
def test_products_and_actions_match_reference(fresh):
    rng = random.Random(21)
    _clear()
    for _ in range(400):
        if fresh:
            _clear()
        a, b = _terms(rng), _terms(rng)
        assert kernel.multiply_terms(a, b) == oracle.multiply_terms(a, b), (a, b)
        v = _terms(rng, parts=True)
        assert kernel.act_terms(a, v, *PSI) == oracle.act_terms(a, v, *PSI), (a, v)


def test_stripped_heads_are_reused_exactly():
    # d_3 into (-2, 1, 4, 4, 9): M runs 3, 3, 4 and 4 >= 4, so the memo key
    # is the word (3, -2, 1) and the tail (4, 4, 9) is carried through
    # unchanged; other tails reuse that entry, and each new word adds only
    # its own
    _clear()
    word = (3, -2, 1, 4, 4, 9)
    assert _straightened(word) == oracle.straighten_word(word)
    size = kernel.cache_size()
    for tail in [(4,), (5, 5), (4, 6, 100)]:
        word = (3, -2, 1) + tail
        assert _straightened(word) == oracle.straighten_word(word)
        size += 1
        assert kernel.cache_size() == size


def test_insertion_and_word_share_one_entry():
    # straightening (3, -2, 1, 4) inserts d_3 into (-2, 1) under the word
    # (3, -2, 1), which is then that word's own normal form
    _clear()
    kernel.straighten_word((3, -2, 1, 4))
    size = kernel.cache_size()
    assert _straightened((3, -2, 1)) == oracle.straighten_word((3, -2, 1))
    assert kernel.cache_size() == size


letters = st.integers(-4, 4)
words = st.lists(letters, max_size=7).map(tuple)
coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
uea_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.lists(letters, max_size=4).map(lambda w: tuple(sorted(w)))),
    coeffs, max_size=3,
)
module_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.lists(st.integers(0, 4), max_size=4).map(lambda w: tuple(sorted(w)))),
    coeffs, max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(words, st.booleans())
def test_word_property(word, fresh):
    if fresh:
        _clear()
    assert _straightened(word) == oracle.straighten_word(word)


@settings(max_examples=100, deadline=None)
@given(uea_terms, uea_terms, module_terms, st.booleans())
def test_product_and_action_property(a, b, v, fresh):
    if fresh:
        _clear()
    assert kernel.multiply_terms(a, b) == oracle.multiply_terms(a, b)
    assert kernel.act_terms(a, v, *PSI) == oracle.act_terms(a, v, *PSI)


# the evaluated-word memo holds no psi: warmed under one psi, it serves another
psi_values = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(1, 10 ** 6))
psi_pairs = st.tuples(psi_values, psi_values)
acting_words = st.one_of(
    st.lists(letters, max_size=4).map(lambda w: tuple(sorted(w))),
    # a trailing d_3, which kills the word at w
    st.lists(st.integers(-4, 3), max_size=3).map(lambda w: tuple(sorted(w)) + (3,)),
    # at most d_{-4}, so joined to any lifted d_{-lam} here it stays normal
    st.lists(st.integers(-8, -4), max_size=3).map(lambda w: tuple(sorted(w))),
)
acting_terms = st.dictionaries(st.tuples(st.integers(0, 2), acting_words), coeffs, max_size=4)


@settings(max_examples=100, deadline=None)
@given(acting_terms, module_terms, psi_pairs, psi_pairs)
def test_action_memo_is_psi_free(u, v, warm, psi):
    _clear()
    kernel.act_terms(u, v, *warm)
    assert kernel.act_terms(u, v, *psi) == oracle.act_terms(u, v, *psi)


# ---------------------------------------------------------------------------
# long runs: a normal word is kept as its runs inside the kernel

def _run_word(runs):
    return tuple(x for x, m in runs for _ in range(m))


short_runs = st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)), min_size=1, max_size=3)
run_words = short_runs.map(_run_word).filter(lambda w: len(w) <= 12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run_words, st.integers(0, 12), st.booleans())
def test_run_words_match_reference(word, cut, fresh):
    # the two halves, sorted, are normal words made of runs; as the lifted
    # module vector, the second half's letters are made non-negative
    if fresh:
        _clear()
    assert _straightened(word) == oracle.straighten_word(word)
    a = {(0, tuple(sorted(word[:cut]))): Fraction(1)}
    b = {(1, tuple(sorted(word[cut:]))): Fraction(-2, 3)}
    assert kernel.multiply_terms(a, b) == oracle.multiply_terms(a, b)
    v = {(0, tuple(sorted(abs(x) for x in word[cut:]))): Fraction(5, 2)}
    assert kernel.act_terms(a, v, *PSI) == oracle.act_terms(a, v, *PSI)


@pytest.mark.parametrize("word", [
    *[pytest.param((1,) * k + (-1,) * k, id=f"d1^{k}*d-1^{k}") for k in range(1, 9)],
    *[pytest.param((5,) + (-2,) * m, id=f"d5*d-2^{m}") for m in range(1, 31)],
])
def test_long_runs_match_reference(word):
    # the memo is shared, as in the engine: the shorter runs come first
    assert _straightened(word) == oracle.straighten_word(word)


def _long_run_word(rng):
    # runs up to 25 whose normal forms stay small: two runs of the sl_2
    # triple d_{-a}, d_0, d_a, at most 30 letters, or one letter into a
    # run, d_a d_b^m (mixing letters freely, d_2^25 d_{-1}^25 has no normal
    # form in reach; d_2^25 d_{-2}^25 takes seconds)
    if rng.random() < 0.5:
        a, m = rng.randint(1, 2), rng.randint(1, 25)
        return _run_word([(a * rng.choice([-1, 0, 1]), m),
                          (a * rng.choice([-1, 0, 1]), rng.randint(1, 30 - m))])
    return (rng.randint(-6, 6),) + (rng.randint(-6, 6),) * rng.randint(1, 25)


def test_long_run_product_is_straightened_word():
    # straightening x y and multiplying the normal forms of x and y join
    # heads and tails at different places; both must give one normal form
    rng = random.Random(27)
    _clear()
    for _ in range(100):
        word = _long_run_word(rng)
        whole = _straightened(word)
        for cut in rng.sample(range(len(word) + 1), min(3, len(word) + 1)):
            x, y = _straightened(word[:cut]), _straightened(word[cut:])
            assert kernel.multiply_terms(x, y) == whole, (word, cut)
