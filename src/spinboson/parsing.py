"""Parsing and canonical rendering of spin polynomial expressions.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' integer)?
    atom   := 'S+' | 'S-' | 'Sz' | number | '(' expr ')'
    number := integer ('/' integer)?

``parse_polynomial`` builds the expression tree, a ``SpinPolynomial``;
``render_polynomial`` multiplies it out into words.  Every letter carries the
implicit 1/sqrt(N) scaling applied at trace time.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple

from .spin_core import MINUS, PLUS, SpinPolynomial, Z, node, words


class ParseError(ValueError):
    """Syntax error with the offending position in the expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Token(NamedTuple):
    kind: str  # 'op' | 'number' | 'letter' | 'lparen' | 'rparen' | 'end'
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<letter>S\+|S-|Sz)|(?P<number>\d+)|(?P<op>[-+*^/()]))"
)


def _tokenize(expr: str) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(expr):
        match = _TOKEN_RE.match(expr, pos)
        if match is None:
            stripped = expr[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(expr) - len(stripped))
        kind, text = match.lastgroup, match.group(match.lastgroup)
        if kind == "op":
            kind = {"(": "lparen", ")": "rparen"}.get(text, "op")
        tokens.append(_Token(kind, text, match.start()))
        pos = match.end()
    tokens.append(_Token("end", "", len(expr)))
    return tokens


_LETTER_MAP = {"S+": PLUS, "S-": MINUS, "Sz": Z}
_MINUS_ONE = node("constant", -1)


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(f"expected {text or kind!r}, found {tok.text or 'end'!r}",
                             tok.pos)
        return self.advance()

    def parse_expr(self) -> SpinPolynomial:
        terms = [self.parse_term()]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            terms.append(rhs if op == "+" else node("product", _MINUS_ONE, rhs))
        return terms[0] if len(terms) == 1 else node("sum", *terms)

    def parse_term(self) -> SpinPolynomial:
        factors = [self.parse_factor()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else node("product", *factors)

    def parse_factor(self) -> SpinPolynomial:
        if self.peek().kind == "op" and self.peek().text == "-":  # -x^k is -(x^k)
            self.advance()
            return node("product", _MINUS_ONE, self.parse_factor())
        value = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            tok = self.advance()
            exp = self.peek()
            if exp.kind != "number":
                raise ParseError("expected integer exponent", tok.pos + 1)
            self.advance()
            value = node("power", value, int(exp.text))
        return value

    def parse_atom(self) -> SpinPolynomial:
        tok = self.peek()
        if tok.kind == "letter":
            self.advance()
            return node("letter", _LETTER_MAP[tok.text])
        if tok.kind == "number":
            self.advance()
            value = Fraction(int(tok.text))
            if self.peek().kind == "op" and self.peek().text == "/":
                slash = self.advance()
                den = self.peek()
                if den.kind != "number":
                    raise ParseError("expected denominator", slash.pos + 1)
                self.advance()
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                value /= int(den.text)
            return node("constant", value)
        if tok.kind == "lparen":
            self.advance()
            inner = self.parse_expr()
            self.expect("rparen")
            return inner
        raise ParseError(f"unexpected token {tok.text or 'end'!r}", tok.pos)


def parse_polynomial(expr: str) -> SpinPolynomial:
    """Parse an expression over S+, S-, Sz into its tree."""
    parser = _Parser(_tokenize(expr))
    value = parser.parse_expr()
    parser.expect("end")
    return value


_LETTER_NAMES = {PLUS: "S+", MINUS: "S-", Z: "Sz"}


def render_polynomial(poly: SpinPolynomial) -> str:
    """Canonical text form of the words of ``poly``: by length, then
    lexicographic order."""
    terms = words(poly)
    if not terms:
        return "0"
    parts = []
    for word in sorted(terms, key=lambda w: (len(w), w)):
        coeff = terms[word]
        factors = [_render_coeff(coeff)] if coeff != 1 or not word else []
        factors.extend(_LETTER_NAMES[ch] for ch in word)
        parts.append("*".join(factors))
    return " + ".join(parts)


def _render_coeff(c) -> str:
    if c.is_real:
        if c.re < 0 or c.re.denominator != 1:
            return f"({c.re})"
        return str(c.re)
    return f"({c})"
