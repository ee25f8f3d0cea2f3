"""Expression grammar: tokens, offsets, evaluation, round trips."""

from fractions import Fraction

import pytest

from vira.errors import ExpressionError
from vira.exprparse import (
    MAX_EXPONENT,
    MAX_GROUP_DEPTH,
    parse_expression,
    parse_module,
    parse_poly,
    parse_uea,
)
from vira.scalar import Poly
from vira.virasoro import UEAElement, d
from vira.whittaker import ModuleContext, WhittakerHomomorphism

PSI = WhittakerHomomorphism(1, 1)


class TestParsing:
    def test_simple_product(self):
        ast = parse_expression("d2*d-1*w")
        assert len(ast) == 1
        assert [a.kind for a in ast[0].atoms] == ["gen", "gen", "w"]
        assert [a.value for a in ast[0].atoms[:2]] == [2, -1]

    def test_two_term_sum(self):
        ast = parse_expression("(3/4)*z^2*w + d-1*w")
        assert len(ast) == 2

    def test_missing_index_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("d")
        assert err.value.offset == 1
        assert "integer" in err.value.expected

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("d1 & d2")
        assert err.value.offset == 3

    def test_whitespace_insensitive(self):
        assert parse_uea(" d2 * d-2 ") == parse_uea("d2*d-2")

    def test_zero_denominator(self):
        with pytest.raises(ExpressionError):
            parse_expression("1/0")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_expression("d1 d2")

    def test_nesting_cap(self):
        n = MAX_GROUP_DEPTH
        assert n == 100
        assert parse_uea("(" * n + "d1" + ")" * n) == d(1)
        ctx = ModuleContext.universal(PSI)
        assert parse_module("(" * n + "d-1*w" + ")" * n, ctx) == ctx.basis_vector(0, (1,))
        with pytest.raises(ExpressionError) as err:
            parse_expression("(" * (n + 1) + "d1" + ")" * (n + 1))
        assert err.value.offset == n


class TestExponentCap:
    def test_at_the_cap(self):
        assert MAX_EXPONENT == 10_000
        assert parse_uea("z^10000") == UEAElement.z_power(10_000)
        assert parse_uea("(d1^100)^100") == d(1) ** 10_000
        assert parse_poly("((2*z)^10)^1000") == Poly.z() ** 10_000 * 2 ** 10_000

    @pytest.mark.parametrize("text,offset", [
        ("d1^10001", 0),
        ("z*(d1^100)^101", 3),
        ("((d1^1000)^1000)^1000", 1),
        ("3^100000", 0),
        ("(d1^100000)^0", 1),
    ])
    def test_over_the_cap(self, text, offset):
        with pytest.raises(ExpressionError) as err:
            parse_uea(text)
        assert err.value.args[0].startswith("exponent ")
        assert err.value.args[0].endswith(f"exceeds {MAX_EXPONENT}")
        assert err.value.offset == offset


class TestEvaluation:
    def test_uea_arithmetic(self):
        assert parse_uea("d2*d-2") == d(2) * d(-2)
        assert parse_uea("-2*d0 + d-1^2") == -2 * d(0) + d(-1) * d(-1)
        assert parse_uea("(1/2)*z") == UEAElement.z_power(1) * Fraction(1, 2)
        assert parse_uea("0").is_zero()

    def test_group_powers(self):
        assert parse_uea("(d1+d-1)^2") == (d(1) + d(-1)) ** 2

    def test_w_rejected_outside_modules(self):
        with pytest.raises(ExpressionError):
            parse_uea("d1*w")

    def test_module_evaluation(self):
        ctx = ModuleContext.universal(PSI)
        v = parse_module("d2*d-1*w", ctx)
        assert v == ctx.basis_vector(0, (1,)) * PSI.psi2 - ctx.w() * (3 * PSI.psi1)
        assert parse_module("0", ctx).is_zero()

    def test_module_group_with_w(self):
        ctx = ModuleContext.universal(PSI)
        assert parse_module("2*(d-1*w + w)", ctx) == 2 * (
            ctx.basis_vector(0, (1,)) + ctx.w()
        )

    def test_w_must_be_rightmost(self):
        ctx = ModuleContext.universal(PSI)
        with pytest.raises(ExpressionError):
            parse_module("w*d1", ctx)
        with pytest.raises(ExpressionError):
            parse_module("d1*w^2", ctx)

    def test_nonzero_product_needs_w(self):
        ctx = ModuleContext.universal(PSI)
        with pytest.raises(ExpressionError):
            parse_module("d-1*w + d2", ctx)

    def test_poly_evaluation(self):
        assert parse_poly("(z-1)^2*(z+3)") == (Poly.z_minus(1) ** 2) * Poly.z_minus(-3)
        assert parse_poly("z^2 - 3*z + 1/2") == Poly((Fraction(1, 2), -3, 1))
        assert parse_poly("0").is_zero()

    def test_poly_rejects_generators(self):
        with pytest.raises(ExpressionError):
            parse_poly("d1 + z")
        with pytest.raises(ExpressionError):
            parse_poly("z*w")


class TestRoundTrip:
    def test_uea_round_trips(self):
        samples = [
            d(2) * d(-2),
            (d(1) + d(-1)) ** 2,
            UEAElement.z_power(2) * Fraction(-3, 4) + d(0) ** 2,
            UEAElement.zero(),
            UEAElement.one() * Fraction(5, 7),
        ]
        for u in samples:
            text = str(u)
            assert str(parse_uea(text)) == text

    def test_module_round_trips(self):
        ctx = ModuleContext.central_quotient(PSI, Fraction(5, 7))
        samples = [
            ctx.w(),
            ctx.basis_vector(0, (0, 3, 3)) * Fraction(-1, 2) + ctx.w(),
            ctx.element(),
        ]
        for v in samples:
            text = str(v)
            assert str(parse_module(text, ctx)) == text

    def test_poly_round_trips(self):
        for p in (Poly((Fraction(1, 2), -3, 1)), Poly.zero(), Poly((0, -1))):
            assert str(parse_poly(str(p))) == str(p)


#: (evaluator, input, message, offset, expected) for every evaluation
#: error; each input holds exactly one error.
EVALUATION_ERRORS = [
    ("uea", "w", "w is only meaningful in a module expression", 0, ()),
    ("uea", "d1*w", "w is only meaningful in a module expression", 3, ()),
    ("uea", "d2 + (d-1*w)", "w is only meaningful in a module expression", 10, ()),
    ("module", "w*d1", "w must be the rightmost factor of a product", 2, ()),
    ("module", "(d-1*w)*d1", "w must be the rightmost factor of a product", 8, ()),
    ("module", "d1*w^2", "w cannot carry an exponent", 3, ()),
    ("module", "(d-1*w)^2", "a module-valued group cannot carry an exponent", 0, ()),
    ("module", "((d-1*w))^3", "a module-valued group cannot carry an exponent", 0, ()),
    ("module", "d1", "module expression needs 'w' in every nonzero product", 0, ("w",)),
    ("module", "d-1*w + d2", "module expression needs 'w' in every nonzero product", 8, ("w",)),
    ("module", "2*(d-1*w + d2)", "module expression needs 'w' in every nonzero product", 11, ("w",)),
    ("poly", "z + d1", "polynomials in z cannot contain generators or w", 4, ("z", "rational")),
    ("poly", "z*w", "polynomials in z cannot contain generators or w", 2, ("z", "rational")),
    ("poly", "z*(1 + (d-2))", "polynomials in z cannot contain generators or w", 8, ("z", "rational")),
    ("poly", "(z+w)^2", "polynomials in z cannot contain generators or w", 3, ("z", "rational")),
]


class TestEvaluationErrors:
    @pytest.mark.parametrize("mode,text,message,offset,expected", EVALUATION_ERRORS)
    def test_message_and_offset(self, mode, text, message, offset, expected):
        evaluate = {
            "uea": parse_uea,
            "module": lambda s: parse_module(s, ModuleContext.universal(PSI)),
            "poly": parse_poly,
        }[mode]
        with pytest.raises(ExpressionError) as err:
            evaluate(text)
        assert err.value.args[0] == message
        assert err.value.offset == offset
        assert err.value.expected == expected
