"""Nullspace, solver dimensions, identity verifiers, structure procedures."""

import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_partitions import partition_count_oracle

from vira import analysis, kernel
from vira.analysis import (
    MAX_UNKNOWNS,
    TruncationSpec,
    annihilator_normal_form,
    composition_series,
    decompose,
    dot_orbit_dimension,
    nullspace,
    verify_degree_bounds,
    verify_dot_span,
    verify_leading_term,
    whittaker_solve,
)
from vira.errors import NotSplitError
from vira.exprparse import parse_module, parse_poly
from vira.partitions import Pseudopartition
from vira.scalar import Poly
from vira.suite import PSI_SAMPLES
from vira.virasoro import UEAElement, d, straighten
from vira.whittaker import (
    ModuleContext,
    WhittakerHomomorphism,
    act,
    dot_act,
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
            assert len(basis) == len(exact_nullspace(rows))

    def test_entries_stay_exact(self):
        # int entries are coerced, so pivot division never makes floats
        basis = nullspace([[2, 3, 0], [0, 1, 7]])
        assert basis == [(Fraction(21, 2), -7, 1)]
        assert all(isinstance(x, Fraction) for vec in basis for x in vec)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            nullspace([[1, 2], [3]])
        with pytest.raises(ValueError):
            nullspace([[1], [2, 3]])


def exact_nullspace(rows, ncols=None):
    """The oracle, independent of the engine's echelon: the reduced echelon
    over Q with each row pivoting on its lowest column, and its nullspace
    solved through the pivot rows with the identity on the free columns."""
    if ncols is None:
        ncols = len(rows[0])
    pivots: dict = {}  # pivot column -> dense row, 1 there and 0 at other pivots
    for row in rows:
        row = [Fraction(v) for v in row]
        for c, piv in pivots.items():
            if row[c]:
                row = [x - row[c] * y for x, y in zip(row, piv)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        for c, piv in pivots.items():
            if piv[lead]:
                pivots[c] = [x - piv[lead] * y for x, y in zip(piv, row)]
        pivots[lead] = row
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for c, piv in pivots.items():
                vec[c] = -piv[f]
            basis.append(tuple(vec))
    return basis


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
huge_rationals = st.builds(
    Fraction,
    st.integers(10**29, 10**80) | st.integers(-10**80, -10**29),
    st.integers(10**29, 10**80),
)
entries = st.one_of(small_rationals, small_rationals, st.just(Fraction(0)), huge_rationals)


@st.composite
def rational_matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    # a combination of earlier rows keeps some matrices rank deficient
    if draw(st.booleans()):
        a, b = draw(small_rationals), draw(entries)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return rows


@st.composite
def wide_matrices(draw):
    # a few rows over many columns leave a wide nullspace to reduce
    ncols = draw(st.integers(8, 30))
    row = st.just([1] * ncols) | st.lists(entries, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=1, max_size=3))


class TestCertifiedNullspace:
    """The top-down nullspace against the echelon in the columns' order."""

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices() | wide_matrices())
    def test_equals_exact_echelon(self, rows):
        assert nullspace(rows) == exact_nullspace(rows)

    def test_wide_nullspace_is_reduced_sparsely(self):
        # 399 vectors to reduce; the dense Gauss-Jordan reduction took 6 s
        rows = [[1] * 400]
        start = time.perf_counter()
        basis = nullspace(rows)
        assert time.perf_counter() - start < 4
        assert basis == exact_nullspace(rows)

    def test_dense_row_gives_differences_of_unit_vectors(self):
        # the canonical basis of one dense row is e_j - e_0, j = 1 .. n-1
        n = 400
        expected = [tuple(-1 if k == 0 else int(k == j) for k in range(n)) for j in range(1, n)]
        assert nullspace([[1] * n]) == expected

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices(), st.randoms(use_true_random=False))
    def test_row_order_is_irrelevant(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert nullspace(shuffled) == nullspace(rows)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_long_entries_and_repeated_rows(self, data):
        # int rows scaled from 30-digit fractions, with zero, duplicate and
        # dense rows, against the Fraction oracle
        ncols = data.draw(st.integers(1, 7))
        long_entries = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))
        dense_entries = long_entries.filter(bool)
        rows = data.draw(st.lists(st.one_of(
            st.lists(long_entries | st.just(Fraction(0)), min_size=ncols, max_size=ncols),
            st.lists(dense_entries, min_size=ncols, max_size=ncols),
            st.just([0] * ncols),
        ), min_size=1, max_size=5))
        for _ in range(data.draw(st.integers(0, 2))):
            row = data.draw(st.sampled_from(rows))
            factor = data.draw(dense_entries)
            rows.insert(data.draw(st.integers(0, len(rows))), [factor * x for x in row])
        assert nullspace(rows) == exact_nullspace(rows)

    def test_canonical_reduction_of_a_mixed_basis(self):
        # the canonical basis: 1 at its own largest index (1, 3, 4), 0 at
        # the other two, however the rows spanning its complement are mixed
        v1 = (2, 1, 0, 0, 0)
        v2 = (3, 0, -1, 1, 0)
        v3 = (Fraction(1, 2), 0, 5, 0, 1)
        r1 = [1, -2, 0, -3, Fraction(-1, 2)]
        r2 = [0, 0, 1, 1, -5]
        scaled_and_mixed = [
            [3 * a - b for a, b in zip(r1, r2)],
            [Fraction(a) / 2 + 7 * b for a, b in zip(r1, r2)],
        ]
        for rows in ([r1, r2], scaled_and_mixed):
            basis = nullspace(rows)
            assert basis == [v1, v2, v3]
            assert all(isinstance(x, Fraction) for vec in basis for x in vec)


nonzero_rationals = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4))
# psi and xi up to 12-digit numerators and 6-digit denominators, which the
# solver's one scale for the window must clear
long_rationals = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))
solver_rationals = nonzero_rationals | long_rationals.filter(bool)
solver_psi = st.tuples(solver_rationals, solver_rationals)
solver_xi = small_rationals | long_rationals
solver_contexts = st.one_of(
    st.builds(lambda psi: (ModuleContext.universal(psi), 2), solver_psi),
    st.builds(lambda psi, xi: (ModuleContext.central_quotient(psi, xi), 0), solver_psi, solver_xi),
    st.builds(lambda psi, xi: (ModuleContext.quotient(psi, Poly.z_minus(xi) ** 2 * Poly.z_minus(1)), 0),
              solver_psi, solver_xi),
)


def dense_equations(ctx, keys):
    """The solver's system rebuilt from ``dot_act``: one dense row per
    (mode, image key), the unknowns in the basis keys' order."""
    equations: dict = {}
    for i, (t, parts) in enumerate(keys):
        for n in (1, 2):
            for key2, c in dot_act(n, ctx.basis_vector(t, parts))._terms.items():
                equations.setdefault((n,) + key2, [0] * len(keys))[i] = c
    return [equations[k] for k in sorted(equations)]


@settings(max_examples=30, deadline=None)
@given(solver_contexts, st.integers(0, 4), st.integers(0, 2), st.integers(0, 2))
def test_solver_equals_exact_echelon(ctx_tcap, n_cap, z_cap, t_cap):
    ctx, t_max = ctx_tcap
    trunc = TruncationSpec(n_cap, z_cap, min(t_cap, t_max))
    keys = trunc.basis_keys(ctx)
    basis = whittaker_solve(ctx, trunc)
    assert [tuple(b.coefficient(t, parts) for t, parts in keys) for b in basis] == \
        exact_nullspace(dense_equations(ctx, keys), len(keys))
    assert all(is_whittaker_vector(b) for b in basis)


@settings(max_examples=30, deadline=None)
@given(solver_contexts, st.integers(0, 4), st.integers(0, 2), st.integers(0, 2))
def test_solver_rows_are_one_multiple_of_the_dot_action_rows(ctx_tcap, n_cap, z_cap, t_cap):
    # the windows' Whittaker vectors are polynomials in z times w whatever
    # psi is, so the nullspace alone would not see a psi scaled wrongly;
    # the int rows themselves must be the rows built from dot_act times
    # S = 2 q1 q2 R, R the lcm of the denominators of p
    ctx, t_max = ctx_tcap
    trunc = TruncationSpec(n_cap, z_cap, min(t_cap, t_max))
    keys = trunc.basis_keys(ctx)
    seen = []
    original = analysis._top_down_nullspace

    def spy(rows, ncols):
        seen.extend(rows)
        return original(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_top_down_nullspace", spy)
        whittaker_solve(ctx, trunc)
    r = 1 if ctx.p is None else math.lcm(*(c.denominator for c in ctx.p.coeffs))
    scale = 2 * ctx.psi.psi1.denominator * ctx.psi.psi2.denominator * r
    assert all(isinstance(v, int) for row in seen for v in row.values())
    assert Counter(frozenset(row.items()) for row in seen) == Counter(
        frozenset((j, scale * v) for j, v in enumerate(row) if v)
        for row in dense_equations(ctx, keys))


def test_echelon_stores_primitive_rows_with_positive_pivots():
    # rows of mixed sign and common factors, some dependent on earlier ones
    rng = random.Random(7)
    pivots: dict = {}
    rows = [{j: rng.randint(-6, 6) * 10 for j in rng.sample(range(8), 4)} for _ in range(6)]
    rows.append({j: 3 * rows[0].get(j, 0) - 2 * rows[1].get(j, 0) for j in range(8)})
    rows += [{3: -4, 5: 8}, {3: 6, 5: -12}]
    for row in rows:
        analysis._echelon_insert(pivots, {j: v for j, v in row.items() if v})
    assert pivots
    for c, piv in pivots.items():
        assert c == min(piv) and piv[c] > 0
        assert math.gcd(*piv.values()) == 1
        assert all(isinstance(v, int) and v for v in piv.values())
    single: dict = {}
    assert analysis._echelon_insert(single, {4: 9, 2: -6}) == 2
    assert single == {2: {2: 2, 4: -3}}


def test_solver_fill_stays_small(monkeypatch):
    # the top-down order fills 2522 entries on this window; the order by
    # equation key with each row pivoting on its lowest unknown filled 9822.
    # The 1087 equation pivots are followed by one basis vector's.
    fill = []
    original = analysis._echelon_insert

    def spy(pivots, row):
        c = original(pivots, row)
        if c is not None:
            fill.append(len(pivots[c]))
        return c

    monkeypatch.setattr(analysis, "_echelon_insert", spy)
    ctx = ModuleContext.central_quotient(PSI, 0)
    assert len(whittaker_solve(ctx, TruncationSpec(12, 3, 0))) == 1
    assert len(fill) == 1088 and sum(fill) < 3000


@pytest.mark.parametrize("descriptor, trunc", [
    ("Q:p=(z-1)^2*(z+3)", TruncationSpec(5, 2, 0)),
    ("M", TruncationSpec(5, 2, 2)),
])
def test_solver_acts_once_per_partition_and_mode(monkeypatch, descriptor, trunc):
    # z is central, so the keys z^t d_{-lam} w of one partition share the
    # images of d_{-lam} w under d_1 and d_2; each of these windows has 3
    # z-powers per partition
    calls = []
    original = kernel.evaluated_word

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, "evaluated_word", spy)
    ctx = ModuleContext.parse_descriptor(descriptor, PSI2)
    keys = trunc.basis_keys(ctx)
    partitions = {parts for _, parts in keys}
    assert len(keys) == 3 * len(partitions)
    whittaker_solve(ctx, trunc)
    assert len(calls) == 2 * len(partitions)


class TestTruncationSpec:
    def test_counts_match_enumeration(self):
        contexts = [ModuleContext.universal(PSI), ModuleContext.quotient(PSI, Poly.z_minus(1) ** 3)]
        for ctx in contexts:
            zcount = ctx.z_dimension()
            for n_cap in range(6):
                for z_cap in range(3):
                    for t_cap in range(3):
                        keys = TruncationSpec(n_cap, z_cap, t_cap).basis_keys(ctx)
                        partitions = sum(partition_count_oracle(n) for n in range(n_cap + 1))
                        assert len(keys) == (z_cap + 1) * (zcount or t_cap + 1) * partitions

    def test_largest_window_in_use_is_allowed(self):
        ctx = ModuleContext.central_quotient(PSI2, 0)
        assert len(TruncationSpec(14, 3, 0).basis_keys(ctx)) == 2032 <= MAX_UNKNOWNS

    @pytest.mark.parametrize("descriptor", ["M", "L:xi=0", "Q:p=(z-1)^2*(z+3)"])
    def test_window_matches_sorted_oracle(self, descriptor):
        # the window built from partitions found in any order, padded with
        # zeros and sorted by sort_key; N = 14, Z = 3 is the largest in use
        def partitions(n, largest):
            if n == 0:
                yield ()
            for part in range(1, min(n, largest) + 1):
                for rest in partitions(n - part, part):
                    yield rest + (part,)

        ctx = ModuleContext.parse_descriptor(descriptor, PSI2)
        for n_cap in range(15):
            for z_cap in range(4):
                lams = sorted((Pseudopartition((0,) * zeros + parts)
                               for n in range(n_cap + 1) for parts in partitions(n, n)
                               for zeros in range(z_cap + 1)),
                              key=Pseudopartition.sort_key)
                for t_cap in range(3):
                    zcount = ctx.z_dimension() or t_cap + 1
                    expected = [(t, lam.parts) for lam in lams for t in range(zcount)]
                    trunc = TruncationSpec(n_cap, z_cap, t_cap)
                    if len(expected) > MAX_UNKNOWNS:
                        with pytest.raises(ValueError, match=f"more than {MAX_UNKNOWNS} unknowns"):
                            trunc.basis_keys(ctx)
                    else:
                        assert trunc.basis_keys(ctx) == expected

    def test_cap_is_exact(self):
        ctx = ModuleContext.universal(PSI)
        assert len(TruncationSpec(0, 0, MAX_UNKNOWNS - 1).basis_keys(ctx)) == MAX_UNKNOWNS
        with pytest.raises(ValueError, match=f"more than {MAX_UNKNOWNS} unknowns"):
            TruncationSpec(0, 0, MAX_UNKNOWNS).basis_keys(ctx)

    @pytest.mark.parametrize("caps", [(1, 1, 100_000_000), (80, 0, 0), (10**30, 0, 0),
                                      (0, 10**9, 0), (10**9, 10**9, 10**9)])
    def test_oversized_window_is_refused(self, caps):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {MAX_UNKNOWNS} unknowns"):
            TruncationSpec(*caps).basis_keys(ModuleContext.universal(PSI))
        assert time.perf_counter() - start < 1


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

    def test_wide_window_of_whittaker_vectors(self):
        # every z^t*w solves, so all 4000 unknowns are free
        ctx = ModuleContext.quotient(PSI, parse_poly("z^4000"))
        basis = whittaker_solve(ctx, TruncationSpec(0, 0, 0))
        assert [str(b) for b in basis] == ["w", "z*w"] + [f"z^{t}*w" for t in range(2, 4000)]

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

    @pytest.mark.parametrize("expr, dim", [("d-1^10*w", 66), ("d-2^2*d-1^5*w", 141)])
    def test_pinned_dimensions(self, expr, dim):
        ctx = ModuleContext.universal(PSI)
        assert dot_orbit_dimension(parse_module(expr, ctx))[0] == dim

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dot_orbit_dimension(ModuleContext.universal(PSI).element())

    def test_cap_is_inclusive(self, monkeypatch):
        v = ModuleContext.universal(PSI).basis_vector(0, (1,))
        monkeypatch.setattr(analysis, "MAX_ORBIT", 3)
        assert dot_orbit_dimension(v)[0] == 3
        monkeypatch.setattr(analysis, "MAX_ORBIT", 2)
        with pytest.raises(ValueError, match="orbit spans more than 2 vectors"):
            dot_orbit_dimension(v)


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

    @staticmethod
    def _full_window_inclusions(psi, xi, a, trunc):
        """Each level's proper inclusion with its span built over the whole
        window: every key z^t d_{-lam} acts on gen_{i+1}, and the images go
        through one echelon per level."""
        ctx = ModuleContext.quotient(psi, Poly.z_minus(xi) ** a)
        keys = trunc.basis_keys(ctx)
        generators = [ctx.poly_vector(Poly.z_minus(xi) ** i) for i in range(a + 1)]
        proper = []
        for i in range(a):
            pivots: dict = {}
            for t, parts in keys:
                img = act(UEAElement.monomial(t, Pseudopartition(parts).neg_word()), generators[i + 1])
                if img:
                    analysis._echelon_insert(pivots, analysis._int_row(img._terms))
            proper.append(analysis._echelon_insert(pivots, analysis._int_row(generators[i]._terms))
                          is not None)
        return proper + [True]

    @pytest.mark.parametrize("psi", PSI_SAMPLES)
    @pytest.mark.parametrize("xi", [0, Fraction(5, 7), -1])
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    @pytest.mark.parametrize("maxdeg, zerocap", [(0, 0), (0, 2), (2, 0), (2, 2), (3, 0), (3, 2)])
    def test_z_shift_spans_match_full_window(self, psi, xi, a, maxdeg, zerocap):
        # the reported inclusions are derived from freeness over Q[z]; an
        # elimination over the whole window finds the same
        trunc = TruncationSpec(maxdeg, zerocap)
        report = composition_series(psi, xi, a, trunc)
        assert [lv["proper_inclusion"] for lv in report.witness["levels"]] == \
            self._full_window_inclusions(psi, xi, a, trunc)

    @staticmethod
    def _series_and_solve_calls(monkeypatch, module, name):
        """Calls to ``module.name`` made by one series and by its
        central-quotient solve alone."""
        calls = []
        original = getattr(module, name)

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, spy)
        trunc = TruncationSpec(3, 2)
        composition_series(PSI, 1, 3, trunc)
        series_calls = len(calls)
        calls.clear()
        whittaker_solve(ModuleContext.central_quotient(PSI, 1), trunc)
        return series_calls, len(calls)

    def test_kernel_acts_only_in_the_solve(self, monkeypatch):
        series_calls, solve_calls = self._series_and_solve_calls(monkeypatch, kernel, "evaluated_word")
        assert series_calls == solve_calls > 0

    def test_echelon_runs_only_in_the_solve(self, monkeypatch):
        # every level follows from freeness over Q[z], not from an elimination
        series_calls, solve_calls = self._series_and_solve_calls(
            monkeypatch, analysis, "_echelon_insert")
        assert series_calls == solve_calls > 0

    def test_no_level_computes_a_gcd(self, monkeypatch):
        # proper_inclusion is derived: g_{i+1} divides p, so a gcd per
        # level only ever returned g_{i+1}
        calls = []
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "vira"]:
            for name in ("poly_gcd", "poly_ext_gcd"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        report = composition_series(PSI, Fraction(5, 7), 4, TruncationSpec(3, 2))
        assert report.passed
        assert [lv["proper_inclusion"] for lv in report.witness["levels"]] == [True] * 5
        assert calls == []

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

