"""Hypothesis properties of the term-map core: linearity, print/parse
round trips, the Jacobi identity, the module and dot actions, and
context separation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vira.errors import ContextError
from vira.exprparse import parse_module, parse_uea
from vira.scalar import Poly
from vira.virasoro import UEAElement, commutator, d, straighten
from vira.whittaker import ModuleContext, act, dot_act
from vira.witt import project

PSI = (Fraction(3, 2), Fraction(-2))
CONTEXTS = [
    ModuleContext.universal(PSI),
    ModuleContext.central_quotient(PSI, Fraction(5, 7)),
    ModuleContext.quotient(PSI, Poly.z_minus(1) ** 2 * Poly.z_minus(-3)),
]

coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
monomials = st.tuples(
    st.lists(st.integers(-3, 3), max_size=3),   # word, any order
    st.integers(0, 2),                           # z-power
    coeffs,
)
ueas = st.lists(monomials, max_size=3).map(
    lambda terms: sum(
        (straighten(word, z, c) for word, z, c in terms), UEAElement.zero()
    )
)
contexts = st.sampled_from(CONTEXTS)
# module elements: u acting on the cyclic vector, which reaches every
# basis vector z^t d_{-lam} w with small lam
modules = st.tuples(ueas, contexts).map(lambda uc: act(uc[0], uc[1].w()))

PSI2 = (Fraction(2), Fraction(-3, 2))
CONTEXTS2 = [
    ModuleContext.universal(PSI2),
    ModuleContext.central_quotient(PSI2, Fraction(5, 7)),
    ModuleContext.quotient(PSI2, Poly.z_minus(1) ** 2 * Poly.z_minus(-3)),
]
modules2 = st.tuples(ueas, st.sampled_from(CONTEXTS2)).map(
    lambda uc: act(uc[0], uc[1].w())
)

examples = settings(max_examples=50, deadline=None)


def elements():
    """Algebra, module and Witt elements; pairs share one space."""
    uea_pairs = st.tuples(ueas, ueas)
    module_pairs = st.tuples(ueas, ueas, contexts).map(
        lambda t: (act(t[0], t[2].w()), act(t[1], t[2].w()))
    )
    witt_pairs = uea_pairs.map(lambda p: (project(p[0]), project(p[1])))
    return st.one_of(uea_pairs, module_pairs, witt_pairs)


class TestLinearity:
    @examples
    @given(elements())
    def test_negation_cancels(self, pair):
        u, _ = pair
        assert (u + (-u)).is_zero()
        assert not (u - u)

    @examples
    @given(elements())
    def test_subtraction_undoes_addition(self, pair):
        u, v = pair
        assert (u + v) - v == u

    @examples
    @given(elements())
    def test_scalars_distribute(self, pair):
        u, v = pair
        assert 2 * (u + v) == 2 * u + 2 * v
        assert (u + v) * Fraction(-1, 3) == u * Fraction(-1, 3) + v * Fraction(-1, 3)

    @examples
    @given(elements())
    def test_zero_scalar(self, pair):
        u, _ = pair
        assert (0 * u).is_zero()
        assert 0 * u == u - u


class TestRoundTrip:
    @examples
    @given(ueas)
    def test_uea(self, u):
        assert parse_uea(str(u)) == u

    @examples
    @given(modules)
    def test_module(self, m):
        assert parse_module(str(m), m.context) == m


class TestAlgebra:
    @examples
    @given(ueas, ueas, ueas)
    def test_jacobi(self, u, v, t):
        total = (
            commutator(commutator(u, v), t)
            + commutator(commutator(v, t), u)
            + commutator(commutator(t, u), v)
        )
        assert total.is_zero()


class TestAction:
    @examples
    @given(ueas, ueas, modules)
    def test_product_acts_as_composition(self, u, v, m):
        assert act(u * v, m) == act(u, act(v, m))

    @examples
    @given(st.integers(1, 4), modules2)
    def test_dot_action_is_shifted_action(self, n, m):
        assert dot_act(n, m) == act(d(n), m) - m * m.context.psi.value(n)


class TestContexts:
    @examples
    @given(ueas, st.permutations(CONTEXTS))
    def test_different_contexts_do_not_mix(self, u, ctxs):
        a, b = ctxs[0], ctxs[1]
        x, y = act(u, a.w()), act(u, b.w())
        with pytest.raises(ContextError):
            x + y
        with pytest.raises(ContextError):
            x - y
        assert x != y
