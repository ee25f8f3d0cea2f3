"""Nullspace, solver dimensions, identity verifiers, structure procedures."""

import random
from fractions import Fraction

import pytest

from vira.analysis import (
    TruncationSpec,
    annihilator_normal_form,
    composition_series,
    decompose,
    dot_orbit_dimension,
    nullspace,
    rank,
    verify_degree_bounds,
    verify_dot_span,
    verify_leading_term,
    whittaker_solve,
)
from vira.errors import NotSplitError
from vira.exprparse import parse_module, parse_poly
from vira.partitions import Pseudopartition
from vira.scalar import Poly
from vira.virasoro import UEAElement, d, straighten
from vira.whittaker import (
    ModuleContext,
    WhittakerHomomorphism,
    act,
    is_whittaker_vector,
    whittaker_reduce,
)

PSI = WhittakerHomomorphism(1, 1)
PSI2 = WhittakerHomomorphism(2, Fraction(-3, 2))


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []

    def test_zero_matrix(self):
        assert nullspace([[0, 0, 0], [0, 0, 0]]) == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_single_relation(self):
        # x1 + x2 = 0 solved by hand with the free column set to 1
        assert nullspace([[1, 1]]) == [(-1, 1)]

    def test_vectors_annihilate(self):
        rng = random.Random(23)
        for _ in range(25):
            rows = [
                [rng.randint(-4, 4) for _ in range(5)]
                for _ in range(rng.randint(1, 5))
            ]
            basis = nullspace(rows)
            for vec in basis:
                for row in rows:
                    assert sum(a * x for a, x in zip(row, vec)) == 0
            assert rank(rows) + len(basis) == 5

    def test_entries_stay_exact(self):
        # int entries are coerced, so pivot division never makes floats
        basis = nullspace([[2, 3, 0], [0, 1, 7]])
        assert basis == [(Fraction(21, 2), -7, 1)]
        assert all(isinstance(x, Fraction) for vec in basis for x in vec)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            nullspace([[1, 2], [3]])
        with pytest.raises(ValueError):
            rank([[1], [2, 3]])


class TestWhittakerSolve:
    def test_central_quotient_line(self):
        ctx = ModuleContext.central_quotient(PSI, Fraction(5, 7))
        basis = whittaker_solve(ctx, TruncationSpec(5, 3, 0))
        assert len(basis) == 1
        assert basis[0] == ctx.w()

    def test_universal_polynomials(self):
        ctx = ModuleContext.universal(PSI)
        basis = whittaker_solve(ctx, TruncationSpec(4, 2, 2))
        assert [str(b) for b in basis] == ["w", "z*w", "z^2*w"]

    def test_quotient_square(self):
        xi = Fraction(5, 7)
        ctx = ModuleContext.quotient(PSI, Poly.z_minus(xi) ** 2)
        basis = whittaker_solve(ctx, TruncationSpec(4, 2, 0))
        assert len(basis) == 2
        # (z - xi) w lies in the solution span
        shifted = ctx.poly_vector(Poly.z_minus(xi))
        combo = basis[1] - basis[0] * xi
        assert combo == shifted

    def test_dimensions_independent_of_truncation(self):
        for psi in (PSI, PSI2):
            for n_cap in (2, 3):
                for z_cap in (0, 1):
                    for t_cap in (0, 2):
                        ctx = ModuleContext.universal(psi)
                        got = whittaker_solve(ctx, TruncationSpec(n_cap, z_cap, t_cap))
                        assert len(got) == t_cap + 1
                        assert all(is_whittaker_vector(b) for b in got)
                    ctx = ModuleContext.central_quotient(psi, 1)
                    got = whittaker_solve(ctx, TruncationSpec(n_cap, z_cap, 0))
                    assert len(got) == 1

    def test_dimensions_at_wide_truncation(self):
        # top of the quantified range: N = 6, Z = 3, T = 3
        ctx = ModuleContext.universal(PSI)
        got = whittaker_solve(ctx, TruncationSpec(6, 3, 3))
        assert len(got) == 4
        ctx = ModuleContext.central_quotient(PSI2, Fraction(5, 7))
        assert len(whittaker_solve(ctx, TruncationSpec(6, 3, 0))) == 1


class TestLeadingTermVerifier:
    def test_first_power(self):
        report = verify_leading_term(1, 1, PSI)
        assert report.passed
        assert report.witness["lhs"] == "-4*w"
        assert report.witness["remainder"] == "0"

    def test_zero_mode_square(self):
        report = verify_leading_term(0, 2, PSI)
        assert report.passed
        assert report.witness["leading"] == "-4*d0*w"
        assert report.witness["remainder"] == "4*w"

    def test_coefficient_scaling(self):
        # leading coefficient -a(2k+2) psi_2 = -18 psi_2 at k=2, a=3
        report = verify_leading_term(2, 3, PSI2)
        assert report.passed
        ctx = ModuleContext.universal(PSI2)
        lhs = act(
            d(4) * (d(-2) ** 3) - (d(-2) ** 3) * d(4),
            ctx.w(),
        )
        assert lhs.coefficient(0, (2, 2)) == -18 * PSI2.psi2

    def test_grid(self):
        for k in range(0, 5):
            for a in range(1, 5):
                assert verify_leading_term(k, a, PSI2).passed


class TestDegreeBoundVerifier:
    def test_full_hand_expansion(self):
        report = verify_degree_bounds(3, Pseudopartition((1, 2)), PSI)
        assert report.passed
        ctx = ModuleContext.universal(PSI)
        got = act(d(3) * straighten([-2, -1]) - straighten([-2, -1]) * d(3), ctx.w())
        expected = (
            -5 * ctx.basis_vector(0, (1,))
            + 10 * ctx.basis_vector(0, (0,))
            - 4 * ctx.basis_vector(0, (2,))
        )
        assert got == expected

    def test_single_swap(self):
        report = verify_degree_bounds(1, Pseudopartition((1,)), PSI)
        assert report.passed
        assert report.witness["commutator_on_w"] == "-2*d0*w"

    def test_vanishing_case(self):
        report = verify_degree_bounds(6, Pseudopartition((1,)), PSI)
        assert report.passed
        assert report.witness["commutator_on_w"] == "0"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            verify_degree_bounds(1, Pseudopartition(), PSI)


class TestDotSpanVerifier:
    def test_examples(self):
        assert verify_dot_span(1, 0, Pseudopartition((1,)), PSI).passed
        report = verify_dot_span(4, 2, Pseudopartition((1,)), PSI)
        assert report.passed
        assert report.witness["image"] == "0"
        assert verify_dot_span(2, 0, Pseudopartition((2,)), PSI2).passed

    def test_small_grid(self):
        for lam in ((1,), (0, 1), (2,), (1, 1), (0, 0, 2)):
            for n in (1, 2, 3, 4, 5):
                for i in (0, 1):
                    assert verify_dot_span(n, i, Pseudopartition(lam), PSI).passed


class TestDotOrbit:
    def test_cyclic_vector(self):
        ctx = ModuleContext.universal(PSI)
        dim, span = dot_orbit_dimension(ctx.w())
        assert dim == 1 and span == [ctx.w()]

    def test_single_negative_mode(self):
        ctx = ModuleContext.universal(PSI)
        dim, span = dot_orbit_dimension(ctx.basis_vector(0, (1,)))
        assert dim == 3
        assert [str(s) for s in span] == ["d-1*w", "-2*d0*w", "-3*w"]

    def test_central_multiple(self):
        ctx = ModuleContext.universal(PSI)
        dim, _ = dot_orbit_dimension(ctx.basis_vector(1, ()))
        assert dim == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dot_orbit_dimension(ModuleContext.universal(PSI).element())


class TestDecompose:
    @staticmethod
    def _by_root(report):
        return {c["xi"]: c for c in report.witness["components"]}

    def test_two_simple_roots(self):
        p = Poly.z_minus(1) * Poly.z_minus(2)
        report = decompose(PSI, p)
        assert report.passed
        by_root = self._by_root(report)
        assert parse_poly(by_root[1]["q_j"]) == Poly((-1,))
        assert parse_poly(by_root[2]["q_j"]) == Poly((1,))
        assert parse_poly(by_root[1]["p_j"]) == Poly.z_minus(2)
        assert parse_poly(by_root[2]["p_j"]) == Poly.z_minus(1)

    def test_single_component(self):
        p = Poly.z_minus(Fraction(5, 7)) ** 3
        report = decompose(PSI, p)
        assert report.passed
        assert len(report.witness["components"]) == 1
        comp = report.witness["components"][0]
        assert parse_poly(comp["p_j"]) == Poly.one()
        assert parse_poly(comp["q_j"]) == Poly.one()
        ctx = ModuleContext.quotient(PSI, p)
        assert parse_module(comp["w_j"], ctx) == ctx.w()

    def test_hand_bezout(self):
        p = (Poly.z_minus(1) ** 2) * Poly.z_minus(-3)
        report = decompose(PSI2, p)
        assert report.passed
        by_root = self._by_root(report)
        assert parse_poly(by_root[-3]["q_j"]) == Poly((Fraction(1, 16),))
        assert parse_poly(by_root[1]["q_j"]) == Poly((Fraction(5, 16), Fraction(-1, 16)))
        total = Poly.zero()
        for c in report.witness["components"]:
            total = total + parse_poly(c["q_j"]) * parse_poly(c["p_j"])
        assert total == Poly.one()

    def test_not_split_propagates(self):
        with pytest.raises(NotSplitError):
            decompose(PSI, Poly((1, 0, 1)))

    def test_pairwise_products_vanish_mod_p(self):
        p = (Poly.z_minus(1) ** 2) * Poly.z_minus(-3)
        complements = [parse_poly(c["p_j"]) for c in decompose(PSI, p).witness["components"]]
        assert len(complements) == 2
        for i, pi in enumerate(complements):
            for j, pj in enumerate(complements):
                if i != j:
                    assert (pi * pj % p).is_zero()


class TestCompositionSeries:
    @staticmethod
    def _generators(report, psi, xi, a):
        ctx = ModuleContext.quotient(psi, Poly.z_minus(xi) ** a)
        return [parse_module(lv["generator"], ctx) for lv in report.witness["levels"]]

    def test_simple_case(self):
        series = composition_series(PSI, Fraction(5, 7), 1)
        assert series.passed
        assert len(series.witness["levels"]) == 2
        assert series.witness["levels"][0]["quotient_whittaker_dim"] == 1
        assert self._generators(series, PSI, Fraction(5, 7), 1)[1].is_zero()

    def test_length_two(self):
        series = composition_series(PSI2, Fraction(1, 2), 2)
        assert series.passed
        assert [lv["quotient_whittaker_dim"] for lv in series.witness["levels"]] == [1, 1, None]

    def test_zero_character_top_vanishes(self):
        series = composition_series(PSI, 0, 3)
        assert series.passed
        generators = self._generators(series, PSI, 0, 3)
        assert generators[3].is_zero()
        assert not generators[2].is_zero()

    def test_extraction_lands_in_expected_layer(self):
        # a Whittaker vector extracted from a chain layer is q(z) w with
        # (z - xi)^i dividing q in the quotient
        xi = Fraction(1, 2)
        a = 3
        ctx = ModuleContext.quotient(PSI, Poly.z_minus(xi) ** a)
        rng = random.Random(31)
        for i in range(a):
            gen = ctx.poly_vector(Poly.z_minus(xi) ** i)
            for _ in range(5):
                word = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
                v = act(straighten(word), gen)
                if v.is_zero():
                    continue
                _, out = whittaker_reduce(v)
                poly = out.poly_part()
                assert poly is not None
                # expand in powers of (z - xi): the first i coefficients vanish
                shifted = poly
                for _ in range(i):
                    q, r = divmod(shifted, Poly.z_minus(xi))
                    assert r.is_zero()
                    shifted = q


class TestAnnihilator:
    def test_shifted_generator(self):
        u = d(1) - UEAElement.one()  # psi_1 = 1
        u0, tail, residual = annihilator_normal_form(u, PSI, Poly.z_minus(1))
        assert u0.is_zero()
        assert tail == [(1, UEAElement.one())]
        assert residual.is_zero()

    def test_central_generator(self):
        p = Poly.z_minus(Fraction(5, 7))
        u = UEAElement.z_power(1) - UEAElement.one() * Fraction(5, 7)
        u0, tail, residual = annihilator_normal_form(u, PSI, p)
        assert u0 == UEAElement.one()
        assert tail == []
        assert residual.is_zero()

    def test_bare_positive_mode(self):
        u0, tail, residual = annihilator_normal_form(d(1), PSI2, Poly.z_minus(1))
        assert u0.is_zero()
        assert tail == [(1, UEAElement.one())]
        assert residual == UEAElement.one() * PSI2.psi1

    def test_reexpansion_random(self):
        rng = random.Random(41)
        p = Poly.z_minus(1) * Poly.z_minus(2)
        ctx = ModuleContext.quotient(PSI2, p)
        p_elem = UEAElement({(i, ()): c for i, c in enumerate(p.coeffs) if c})
        for _ in range(25):
            u = UEAElement.zero()
            for _ in range(rng.randint(1, 2)):
                word = [rng.randint(-2, 3) for _ in range(rng.randint(0, 3))]
                u = u + straighten(word, z_power=rng.randint(0, 2),
                                   coeff=rng.choice([-2, -1, 1, 2]))
            u0, tail, residual = annihilator_normal_form(u, PSI2, p)
            rebuilt = u0 * p_elem + residual
            for j, uj in tail:
                rebuilt = rebuilt + uj * (d(j) - UEAElement.one() * PSI2.value(j))
            assert rebuilt == u
            assert residual.is_zero() == act(u, ctx.w()).is_zero()
            for (t, _word) in residual._terms:
                assert t < p.degree

