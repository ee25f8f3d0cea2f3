"""Module contexts, the action, degree statistics, and vector extraction."""

import random
from fractions import Fraction

import pytest

from vira import whittaker
from vira.errors import ContextError, DomainError, ReductionError
from vira.partitions import Pseudopartition
from vira.scalar import NEG_INF, Poly
from vira.virasoro import UEAElement, commutator, d, straighten
from vira.whittaker import (
    ModuleContext,
    WhittakerHomomorphism,
    act,
    dot_act,
    is_whittaker_vector,
    nilpotency_index,
    whittaker_reduce,
)

PSI = WhittakerHomomorphism(1, 1)
PSI2 = WhittakerHomomorphism(2, Fraction(-3, 2))


def universal(psi=PSI):
    return ModuleContext.universal(psi)


def central(xi, psi=PSI):
    return ModuleContext.central_quotient(psi, xi)


class TestHomomorphism:
    def test_values(self):
        psi = WhittakerHomomorphism(2, Fraction(-3, 2))
        assert psi.value(1) == 2
        assert psi.value(2) == Fraction(-3, 2)
        assert psi.value(3) == 0
        assert psi.value(17) == 0

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            WhittakerHomomorphism(0, 1)
        with pytest.raises(DomainError):
            WhittakerHomomorphism(1, 0)

    def test_rejects_non_positive_modes(self):
        with pytest.raises(ValueError):
            PSI.value(0)


class TestContext:
    def test_descriptors_round_trip(self):
        for text in ("M", "L:xi=5/7", "Q:p=z^2 - 3*z + 2"):
            ctx = ModuleContext.parse_descriptor(text, PSI)
            assert ModuleContext.parse_descriptor(ctx.descriptor(), PSI) == ctx

    def test_witt_descriptor_is_zero_central_quotient(self):
        assert ModuleContext.parse_descriptor("W", PSI) == central(0)

    def test_quotient_poly_is_monicized(self):
        ctx = ModuleContext.quotient(PSI, Poly((2, 2)))
        assert ctx.p == Poly.z_minus(-1)

    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            ModuleContext.quotient(PSI, Poly((3,)))

    def test_unknown_descriptor(self):
        with pytest.raises(DomainError):
            ModuleContext.parse_descriptor("X:nope", PSI)


class TestAct:
    def test_defining_property(self):
        M = universal()
        assert act(d(1), M.w()) == M.w()
        assert act(d(1), universal(PSI2).w()) == universal(PSI2).w() * 2

    def test_one_commutator_step(self):
        # d_2 d_-1 = d_-1 d_2 - 3 d_1, then evaluate against w
        for psi in (PSI, PSI2):
            M = universal(psi)
            got = act(d(2), M.basis_vector(0, (1,)))
            expected = M.basis_vector(0, (1,)) * psi.psi2 - M.w() * (3 * psi.psi1)
            assert got == expected

    def test_central_term_and_quotient(self):
        M = universal()
        got = act(d(2), M.basis_vector(0, (2,)))
        expected = (
            M.basis_vector(0, (2,))
            - 4 * M.basis_vector(0, (0,))
            + Fraction(1, 2) * M.basis_vector(1, ())
        )
        assert got == expected
        xi = Fraction(5, 7)
        L = central(xi)
        got_l = act(d(2), L.basis_vector(0, (2,)))
        expected_l = (
            L.basis_vector(0, (2,))
            - 4 * L.basis_vector(0, (0,))
            + (xi / 2) * L.w()
        )
        assert got_l == expected_l

    def test_module_axiom_small_random(self):
        rng = random.Random(3)
        contexts = [universal(), central(Fraction(5, 7), PSI2)]
        for _ in range(30):
            wu = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
            wv = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
            u, v = straighten(wu), straighten(wv)
            for ctx in contexts:
                m = ctx.basis_vector(0, (1, 2))
                assert act(u * v, m) == act(u, act(v, m))

    def test_basis_freeness(self):
        # u in the non-positive half acts freely: coefficients transfer
        rng = random.Random(5)
        M = universal()
        for _ in range(20):
            u = UEAElement.zero()
            expected = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(
                    sorted(rng.randint(-3, 0) for _ in range(rng.randint(0, 4)))
                )
                t = rng.randint(0, 2)
                c = rng.choice([-2, -1, 1, 2])
                u = u + UEAElement.monomial(t, word, c)
                key = (t, tuple(-i for i in reversed(word)))
                expected[key] = expected.get(key, 0) + c
            got = act(u, M.w())
            assert got.raw_terms() == {
                k: Fraction(v) for k, v in expected.items() if v
            }
            assert got.is_zero() == u.is_zero()

    def test_quotient_consistency(self):
        rng = random.Random(9)
        xi = Fraction(2, 3)
        L = central(xi)
        M = universal()
        for _ in range(20):
            word = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            u = straighten(word, z_power=rng.randint(0, 1))
            lam = (rng.randint(0, 2), rng.randint(1, 3))
            v = M.basis_vector(1, lam)
            assert L.element(act(u, v).raw_terms()) == act(u, L.element(v.raw_terms()))

    def test_degree_drop_bound(self):
        # maxdeg(act(d_m, v)) <= maxdeg(v) - m + 2
        M = universal()
        for lam in ((1,), (2,), (1, 1, 2), (0, 0, 3), (2, 2)):
            v = M.basis_vector(0, lam)
            for m in range(1, 8):
                assert act(d(m), v).maxdeg() <= v.maxdeg() - m + 2

    def test_context_mismatch_rejected(self):
        with pytest.raises(ContextError):
            universal().w() + central(0).w()


class TestDegreeStats:
    def test_maxdeg(self):
        M = universal()
        assert M.element().maxdeg() == NEG_INF
        assert M.basis_vector(5, ()).maxdeg() == 0
        v = M.basis_vector(0, (1, 2)) + M.basis_vector(1, ())
        assert v.maxdeg() == 3

    def test_max_d0(self):
        M = universal()
        assert (M.basis_vector(0, (0, 0)) + M.basis_vector(0, (1,))).max_d0() == 2
        assert M.w().max_d0() == 0
        assert M.element().max_d0() == NEG_INF


class TestDotAction:
    def test_cyclic_vector_annihilated(self):
        assert dot_act(1, universal().w()).is_zero()

    def test_one_step(self):
        M = universal()
        assert dot_act(1, M.basis_vector(0, (1,))) == -2 * M.basis_vector(0, (0,))

    def test_z_linearity(self):
        # z is central: the image of z^i d_{-lam} w is z^i times that of
        # d_{-lam} w, in M and in L_xi; in a quotient by p it is reduce_raw
        # of the shifted universal image, whose powers pass deg p = 3 here
        M = universal()
        Q = ModuleContext.quotient(PSI, Poly.z_minus(2) ** 2 * Poly.z_minus(Fraction(-1, 3)))
        for lam in ((1,), (0, 2), (1, 1)):
            for n in (1, 2, 3):
                for ctx in (M, central(Fraction(5, 7))):
                    for i in (1, 2):
                        lifted = act(UEAElement.z_power(i), dot_act(n, ctx.basis_vector(0, lam)))
                        assert dot_act(n, ctx.basis_vector(i, lam)) == lifted
                image = dot_act(n, M.basis_vector(0, lam))._terms
                for t in range(1, 5):
                    shifted = {(s + t, parts): c for (s, parts), c in image.items()}
                    assert Q.reduce_raw(shifted) == dot_act(n, Q.basis_vector(t, lam))._terms

    def test_vanishing_beyond_bound(self):
        M = universal()
        for lam in ((1,), (2, 2), (0, 1)):
            size = sum(lam)
            for n in range(size + 3, size + 6):
                assert dot_act(n, M.basis_vector(2, lam)).is_zero()

    def test_matches_iterated_ad(self):
        # (d_n - psi_n)^k (u w) = (ad_{d_n}^k u) w
        M = universal(PSI2)
        for lam in ((1,), (0, 2), (1, 2)):
            u = UEAElement.monomial(0, Pseudopartition(lam).neg_word())
            v = M.basis_vector(0, lam)
            for n in (1, 2):
                stepped, adjoint = v, u
                for _ in range(3):
                    stepped = dot_act(n, stepped)
                    adjoint = commutator(d(n), adjoint)
                    assert stepped == act(adjoint, M.w())


class TestWhittakerVector:
    def test_examples(self):
        M = universal()
        assert is_whittaker_vector(M.w())
        assert is_whittaker_vector(M.basis_vector(2, ()))
        assert not is_whittaker_vector(M.basis_vector(0, (1,)))
        assert is_whittaker_vector(M.element())


class TestWhittakerReduce:
    def test_already_whittaker(self):
        L = central(0)
        trace, out = whittaker_reduce(L.w())
        assert trace == []
        assert out == L.w()

    def test_single_negative_mode(self):
        for psi in (PSI, PSI2):
            L = central(Fraction(1, 3), psi)
            trace, out = whittaker_reduce(L.basis_vector(0, (1,)))
            assert trace == [3]
            assert out == L.w() * (-4 * psi.psi2)

    def test_single_zero_mode(self):
        for psi in (PSI, PSI2):
            L = central(0, psi)
            trace, out = whittaker_reduce(L.basis_vector(0, (0,)))
            assert trace == [2]
            assert out == L.w() * (-2 * psi.psi2)

    def test_random_inputs_land_on_cyclic_line(self):
        rng = random.Random(17)
        L = central(Fraction(5, 7), PSI2)
        lams = [(), (0,), (1,), (0, 1), (2,), (1, 1), (0, 0, 2), (3,), (1, 2)]
        for _ in range(25):
            v = L.element()
            for _ in range(rng.randint(1, 3)):
                v = v + L.basis_vector(0, rng.choice(lams)) * rng.choice(
                    [-2, -1, 1, 2]
                )
            if v.is_zero():
                continue
            trace, out = whittaker_reduce(v)
            assert not out.is_zero()
            assert is_whittaker_vector(out)
            poly = out.poly_part()
            assert poly is not None and poly.degree == 0

    def test_rejects_zero_and_universal(self):
        with pytest.raises(ValueError):
            whittaker_reduce(central(0).element())
        with pytest.raises(ContextError):
            whittaker_reduce(universal().w())

    def test_works_in_higher_quotients(self):
        Q = ModuleContext.quotient(PSI, Poly.z_minus(1) ** 2)
        trace, out = whittaker_reduce(Q.basis_vector(1, (1, 1)))
        assert is_whittaker_vector(out) and not out.is_zero()
        assert out.poly_part() is not None


class TestDescentGuards:
    """Each guard of whittaker_reduce, forced by a patched dot action."""

    def test_step_that_annihilates(self, monkeypatch):
        L = central(0)
        monkeypatch.setattr(whittaker, "is_whittaker_vector", lambda v: False)
        monkeypatch.setattr(whittaker, "dot_act", lambda n, v: v.context.element())
        with pytest.raises(ReductionError, match="annihilated a non-Whittaker vector"):
            whittaker_reduce(L.basis_vector(0, (1,)))

    def test_measure_that_does_not_decrease(self, monkeypatch):
        L = central(0)
        monkeypatch.setattr(whittaker, "is_whittaker_vector", lambda v: False)
        monkeypatch.setattr(whittaker, "dot_act", lambda n, v: v)
        with pytest.raises(
            ReductionError, match=r"failed to decrease: \(1, 0\) -> \(1, 0\)"
        ):
            whittaker_reduce(L.basis_vector(0, (1,)))

    def test_no_reducible_term(self, monkeypatch):
        L = central(0)
        monkeypatch.setattr(whittaker, "is_whittaker_vector", lambda v: False)
        with pytest.raises(ReductionError, match="no reducible term"):
            whittaker_reduce(L.w())

    def test_iteration_cap(self, monkeypatch):
        # (1, 0) -> (0, 20) -> (0, 19) -> ... decreases at every step but
        # outlasts the cap (1 + 1) * (0 + 1 + 2) = 6.
        L = central(0)
        zeros = iter(range(20, 0, -1))
        monkeypatch.setattr(whittaker, "is_whittaker_vector", lambda v: False)
        monkeypatch.setattr(
            whittaker, "dot_act", lambda n, v: L.basis_vector(0, (0,) * next(zeros))
        )
        with pytest.raises(ReductionError, match="iteration cap 6 exceeded"):
            whittaker_reduce(L.basis_vector(0, (1,)))


class TestNilpotencyIndex:
    def test_examples(self):
        assert nilpotency_index(1, (1,), PSI) == (3, 4)
        assert nilpotency_index(1, (), PSI) == (1, 1)
        assert nilpotency_index(4, (1,), PSI) == (1, 1)

    def test_index_within_bound_grid(self):
        for lam in ((2,), (1, 1), (0, 1), (0, 0, 2), (1, 2)):
            for n in (1, 2, 3):
                index, bound = nilpotency_index(n, lam, PSI2)
                assert 1 <= index <= bound


class TestMapFromUniversal:
    """u w in a context is the image of u under the canonical map U(Vir)
    -> module that sends 1 to the cyclic vector."""

    def test_identity_to_cyclic_vector(self):
        L = central(Fraction(5, 7))
        assert act(UEAElement.one(), L.w()) == L.w()

    def test_central_reduction(self):
        xi = Fraction(5, 7)
        L = central(xi)
        assert act(UEAElement.z_power(2), L.w()) == L.w() * (xi * xi)

    def test_positive_mode_evaluation(self):
        M = universal()
        u = straighten([-1, 1])
        assert act(u, M.w()) == M.basis_vector(0, (1,)) * PSI.psi1

    def test_agrees_with_reduction(self):
        M = universal()
        Q = ModuleContext.quotient(PSI, Poly.z_minus(1) * Poly.z_minus(2))
        for word in ([2, -2], [1, -1, 0], [-3, 2, 2]):
            u = straighten(word, z_power=1)
            assert act(u, Q.w()) == Q.element(act(u, M.w()).raw_terms())


class TestPrinting:
    def test_module_element_text(self):
        M = universal()
        v = M.basis_vector(0, (0, 3, 3)) + Fraction(3, 4) * M.basis_vector(2, ())
        assert str(v) == "d-3^2*d0*w + (3/4)*z^2*w"
        assert str(M.element()) == "0"
        assert str(M.w()) == "w"
