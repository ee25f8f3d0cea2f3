"""Recursive-descent parser and evaluators for element expressions.

Grammar (whitespace-insensitive except inside atoms):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' nat)?
    atom     := 'd' int | 'z' | 'w' | rational | '(' expr ')'
    rational := nat ('/' nat)?

A generator's index is part of its token (``d-3``): no whitespace is
allowed between ``d`` and the index, which keeps negative indices
unambiguous next to binary minus.  ``w`` denotes the cyclic vector of a
module context; it may appear at most once per product, rightmost, and
only when evaluating into a module.  All printers in the package emit
strings this grammar accepts, so print/parse round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExpressionError
from .scalar import Poly
from .virasoro import UEAElement
from .whittaker import ModuleContext, ModuleElement, act


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    offset: int


def _tokenize(text: str) -> list[Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "d":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            start_digits = j
            while j < n and text[j].isdigit():
                j += 1
            if j == start_digits:
                raise ExpressionError(
                    "expected an integer index after 'd'", i + 1, ("integer",)
                )
            out.append(Token("gen", int(text[i + 1:j]), i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("num", int(text[i:j]), i))
            i = j
            continue
        simple = {
            "z": "z", "w": "w", "+": "+", "-": "-", "*": "*",
            "^": "^", "/": "/", "(": "(", ")": ")",
        }
        kind = simple.get(ch)
        if kind is None:
            raise ExpressionError(f"unexpected character {ch!r}", i)
        out.append(Token(kind, ch, i))
        i += 1
    out.append(Token("end", None, n))
    return out


@dataclass(frozen=True)
class Atom:
    kind: str        # "gen" | "z" | "w" | "num" | "group"
    value: object    # int index, Fraction, or tuple of Products
    power: int
    offset: int


@dataclass(frozen=True)
class Product:
    atoms: tuple[Atom, ...]
    negated: bool
    offset: int


ExpressionAST = tuple[Product, ...]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(
                f"expected {kind!r} but found {tok.kind!r}", tok.offset, (kind,)
            )
        return self.advance()

    def parse(self) -> ExpressionAST:
        ast = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(
                f"unexpected trailing {tok.kind!r}", tok.offset, ("+", "-", "*", "^", "end")
            )
        return ast

    def expr(self) -> ExpressionAST:
        products = []
        negated = False
        if self.peek().kind == "-":
            self.advance()
            negated = True
        products.append(self.term(negated))
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            products.append(self.term(op.kind == "-"))
        return tuple(products)

    def term(self, negated: bool) -> Product:
        offset = self.peek().offset
        atoms = [self.factor()]
        while self.peek().kind == "*":
            self.advance()
            atoms.append(self.factor())
        return Product(tuple(atoms), negated, offset)

    def factor(self) -> Atom:
        atom = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("num")
            atom = Atom(atom.kind, atom.value, atom.power * tok.value, atom.offset)
        return atom

    def atom(self) -> Atom:
        tok = self.peek()
        if tok.kind == "gen":
            self.advance()
            return Atom("gen", tok.value, 1, tok.offset)
        if tok.kind == "z":
            self.advance()
            return Atom("z", None, 1, tok.offset)
        if tok.kind == "w":
            self.advance()
            return Atom("w", None, 1, tok.offset)
        if tok.kind == "num":
            self.advance()
            value = Fraction(tok.value)
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("num")
                if den.value == 0:
                    raise ExpressionError("zero denominator", den.offset, ("nonzero integer",))
                value = Fraction(tok.value, den.value)
            return Atom("num", value, 1, tok.offset)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return Atom("group", inner, 1, tok.offset)
        raise ExpressionError(
            f"expected an atom but found {tok.kind!r}",
            tok.offset,
            ("d<int>", "z", "w", "rational", "("),
        )


def parse_expression(text: str) -> ExpressionAST:
    """Parse an expression into its AST (no evaluation)."""
    return _Parser(text).parse()


def _contains_w(ast: ExpressionAST) -> bool:
    for product in ast:
        for atom in product.atoms:
            if atom.kind == "w":
                return True
            if atom.kind == "group" and _contains_w(atom.value):
                return True
    return False


def evaluate_uea(ast: ExpressionAST) -> UEAElement:
    """Evaluate an expression with no ``w`` into the enveloping algebra."""
    total = UEAElement.zero()
    for product in ast:
        total = total + _eval_product_uea(product)
    return total


def _eval_product_uea(product: Product) -> UEAElement:
    acc = UEAElement.one()
    for atom in product.atoms:
        acc = acc * _eval_atom_uea(atom)
    return -acc if product.negated else acc


def _eval_atom_uea(atom: Atom) -> UEAElement:
    if atom.kind == "gen":
        return UEAElement.generator(atom.value) ** atom.power
    if atom.kind == "z":
        return UEAElement.z_power(atom.power)
    if atom.kind == "num":
        return UEAElement.one() * (atom.value ** atom.power)
    if atom.kind == "group":
        return evaluate_uea(atom.value) ** atom.power
    raise ExpressionError(
        "w is only meaningful in a module expression", atom.offset, ()
    )


def evaluate_module(ast: ExpressionAST, ctx: ModuleContext) -> ModuleElement:
    """Evaluate an expression into a module context.

    Every product must end in ``w`` (or a parenthesized module-valued
    group); products that evaluate to zero are tolerated so the string
    ``0`` round-trips.
    """
    total = ctx.element()
    for product in ast:
        value = _eval_product_module(product, ctx)
        if isinstance(value, ModuleElement):
            total = total + value
        elif not value.is_zero():
            raise ExpressionError(
                "module expression needs 'w' in every nonzero product",
                product.offset,
                ("w",),
            )
    return total


def _eval_product_module(product: Product, ctx: ModuleContext):
    acc = UEAElement.one()
    module_value = None
    for pos, atom in enumerate(product.atoms):
        if module_value is not None:
            raise ExpressionError(
                "w must be the rightmost factor of a product", atom.offset, ()
            )
        if atom.kind == "w":
            if atom.power != 1:
                raise ExpressionError("w cannot carry an exponent", atom.offset, ())
            module_value = ctx.w()
        elif atom.kind == "group" and _contains_w(atom.value):
            if atom.power != 1:
                raise ExpressionError(
                    "a module-valued group cannot carry an exponent", atom.offset, ()
                )
            module_value = evaluate_module(atom.value, ctx)
        else:
            acc = acc * _eval_atom_uea(atom)
    if module_value is None:
        return -acc if product.negated else acc
    out = act(acc, module_value)
    return -out if product.negated else out


def evaluate_poly(ast: ExpressionAST) -> Poly:
    """Evaluate an expression built from z and rationals into Q[z]."""
    offset = _first_generator_offset(ast)
    if offset is not None:
        raise ExpressionError(
            "polynomials in z cannot contain generators or w", offset, ("z", "rational")
        )
    return evaluate_uea(ast).poly_part()


def _first_generator_offset(ast: ExpressionAST):
    for product in ast:
        for atom in product.atoms:
            if atom.kind in ("gen", "w"):
                return atom.offset
            if atom.kind == "group":
                offset = _first_generator_offset(atom.value)
                if offset is not None:
                    return offset
    return None


def parse_uea(text: str) -> UEAElement:
    return evaluate_uea(parse_expression(text))


def parse_module(text: str, ctx: ModuleContext) -> ModuleElement:
    return evaluate_module(parse_expression(text), ctx)


def parse_poly(text: str) -> Poly:
    return evaluate_poly(parse_expression(text))
