"""Recursive-descent parser and evaluator for element expressions.

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
only when evaluating into a module.  A factor's exponent, times those of
the groups around it, is at most ``MAX_EXPONENT``.  All printers in the
package emit strings this grammar accepts, so print/parse round-trips
exactly.
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
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == start_digits:
                raise ExpressionError(
                    "expected an integer index after 'd'", i + 1, ("integer",)
                )
            out.append(Token("gen", int(text[i + 1:j]), i))
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(Token("num", int(text[i:j]), i))
            i = j
            continue
        if ch not in "zw+-*^/()":
            raise ExpressionError(f"unexpected character {ch!r}", i)
        out.append(Token(ch, None, i))
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

#: Deepest parenthesis nesting accepted.  The parser and the evaluator
#: recurse once per level, so deeper input is refused as a parse error
#: before it can exhaust the interpreter's stack.
MAX_GROUP_DEPTH = 100

#: Largest effective exponent of a factor: its own exponent times those of
#: the groups around it.  ``d1^k`` builds a word of k letters and ``3^k`` an
#: integer of about 1.6 k bits, so larger powers are refused before any
#: arithmetic, as an evaluation error.
MAX_EXPONENT = 10_000


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

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
        if tok.kind in ("gen", "z", "w"):
            self.advance()
            return Atom(tok.kind, tok.value, 1, tok.offset)
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
            if self.depth == MAX_GROUP_DEPTH:
                raise ExpressionError(
                    f"parentheses nested deeper than {MAX_GROUP_DEPTH}", tok.offset
                )
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
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


def _evaluate(ast: ExpressionAST, target, enclosing: int = 1, module: bool = False):
    """The sum of the products of ``ast``.

    ``target`` is ``UEAElement``, ``Poly`` (which refuses generators and
    ``w``) or a ModuleContext (which admits ``w``).  ``enclosing`` is the
    product of the exponents around ``ast``.  A sum is module-valued when
    any of its products is, or when ``module`` is set; then every other
    product must be zero, so the string ``0`` round-trips.
    """
    values = [_product(product, target, enclosing) for product in ast]
    if not module and not any(isinstance(v, ModuleElement) for v in values):
        return sum(values, UEAElement.zero())
    total = target.element()
    for product, value in zip(ast, values):
        if isinstance(value, ModuleElement):
            total = total + value
        elif not value.is_zero():
            raise ExpressionError(
                "module expression needs 'w' in every nonzero product",
                product.offset,
                ("w",),
            )
    return total


def _product(product: Product, target, enclosing: int):
    """A product is module-valued when its rightmost factor is ``w`` or a
    module-valued group."""
    acc = UEAElement.one()
    module_value = None
    for atom in product.atoms:
        if module_value is not None:
            raise ExpressionError(
                "w must be the rightmost factor of a product", atom.offset, ()
            )
        value = _atom(atom, target, enclosing * max(atom.power, 1))
        if isinstance(value, ModuleElement):
            module_value = value
        else:
            acc = acc * value
    if module_value is not None:
        acc = act(acc, module_value)
    return -acc if product.negated else acc


def _atom(atom: Atom, target, exponent: int):
    if exponent > MAX_EXPONENT:
        raise ExpressionError(
            f"exponent {exponent} (with the enclosing powers) exceeds {MAX_EXPONENT}",
            atom.offset,
        )
    if atom.kind in ("gen", "w") and target is Poly:
        raise ExpressionError(
            "polynomials in z cannot contain generators or w", atom.offset, ("z", "rational")
        )
    if atom.kind == "gen":
        return UEAElement.generator(atom.value) ** atom.power
    if atom.kind == "z":
        return UEAElement.z_power(atom.power)
    if atom.kind == "num":
        return UEAElement.one() * (atom.value ** atom.power)
    if atom.kind == "w":
        if not isinstance(target, ModuleContext):
            raise ExpressionError(
                "w is only meaningful in a module expression", atom.offset, ()
            )
        if atom.power != 1:
            raise ExpressionError("w cannot carry an exponent", atom.offset, ())
        return target.w()
    value = _evaluate(atom.value, target, exponent)
    if not isinstance(value, ModuleElement):
        return value ** atom.power
    if atom.power != 1:
        raise ExpressionError(
            "a module-valued group cannot carry an exponent", atom.offset, ()
        )
    return value


def parse_uea(text: str) -> UEAElement:
    """Evaluate an expression with no ``w`` into the enveloping algebra."""
    return _evaluate(parse_expression(text), UEAElement)


def parse_module(text: str, ctx: ModuleContext) -> ModuleElement:
    """Evaluate an expression into a module context: every nonzero product
    must end in ``w`` or a parenthesized module-valued group."""
    return _evaluate(parse_expression(text), ctx, module=True)


def parse_poly(text: str) -> Poly:
    """Evaluate an expression built from z and rationals into Q[z]."""
    return _evaluate(parse_expression(text), Poly).poly_part()
