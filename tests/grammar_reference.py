"""The character-loop tokenizer and peek/next parser that grammar.py
used before its regex tokenizer, kept as a reference.

The property tests in test_grammar.py run both on the same strings and
require the same tree, or a ParseError with the same message, line and
column.  The code is the original's, apart from its imports; it
depends on the library only for the node classes and ParseError.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

from wittlinear import (
    Affine,
    ClosedGlue,
    ClosureOrder,
    Empty,
    OpenGlue,
    ParseError,
    Product,
    ProjTimesTorus,
    SchemeExpr,
    Stratified,
    TorusCell,
    TwistLabel,
    UnknownTwistWarning,
)


_PUNCT = {
    "^": "CARET", "*": "STAR", "@": "AT", "(": "LPAREN", ")": "RPAREN",
    ",": "COMMA", ";": "SEMI", "<": "LT",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(_Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (what, tok.text or "end of input"),
                tok.line, tok.col,
            )
        return self.next()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def nat(self, what: str) -> int:
        tok = self.expect("INT", what)
        value = int(tok.text)
        if value < 0:
            raise ParseError("%s must be non-negative" % what, tok.line, tok.col)
        return value

    def parse_expr(self) -> SchemeExpr:
        node = self.parse_term()
        while self.peek().kind == "STAR":
            self.next()
            node = _combine(node, self.parse_term())
        return node

    def parse_term(self) -> SchemeExpr:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            inner = self.parse_expr()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind != "NAME":
            raise self.fail("expected a scheme term, found %r"
                            % (tok.text or "end of input"))
        name = self.next().text
        if name == "A":
            self.expect("CARET", "'^'")
            return Affine(self.nat("affine dimension"))
        if name == "Gm":
            if self.peek().kind == "CARET":
                self.next()
                return TorusCell(0, self.nat("torus rank"))
            return TorusCell(0, 1)
        if name == "P":
            self.expect("CARET", "'^'")
            c = self.nat("projective dimension")
            twist = TwistLabel.trivial()
            if self.peek().kind == "AT":
                self.next()
                twist = self.parse_twist()
            return ProjTimesTorus(c, 0, twist)
        if name == "open":
            self.expect("LPAREN", "'('")
            ambient = self.parse_expr()
            self.expect("COMMA", "','")
            closed = self.parse_expr()
            self.expect("RPAREN", "')'")
            return OpenGlue(ambient, closed)
        if name == "closed":
            self.expect("LPAREN", "'('")
            closed = self.parse_expr()
            self.expect("COMMA", "','")
            open_part = self.parse_expr()
            self.expect("RPAREN", "')'")
            return ClosedGlue(closed, open_part)
        if name == "strat":
            return self.parse_strat()
        if name == "empty":
            return Empty()
        raise ParseError("unknown term %r" % name, tok.line, tok.col)

    def parse_twist(self) -> TwistLabel:
        tok = self.expect("NAME", "a twist name")
        if tok.text == "O" and self.peek().kind == "LPAREN":
            self.next()
            k_tok = self.expect("INT", "an integer twist degree")
            self.expect("RPAREN", "')'")
            return TwistLabel.o(int(k_tok.text))
        warnings.warn(
            "twist %r is not of the form O(<int>); treating it as an opaque label"
            % tok.text,
            UnknownTwistWarning,
            stacklevel=4,
        )
        return TwistLabel(tok.text)

    def parse_strat(self) -> SchemeExpr:
        self.expect("LPAREN", "'('")
        strata = [self.parse_expr()]
        while self.peek().kind == "COMMA":
            self.next()
            strata.append(self.parse_expr())
        self.expect("SEMI", "';'")
        pairs: list[tuple[int, int]] = []
        if self.peek().kind != "RPAREN":
            pairs.append(self.parse_pair())
            while self.peek().kind == "COMMA":
                self.next()
                pairs.append(self.parse_pair())
        self.expect("RPAREN", "')'")
        order = ClosureOrder.from_pairs(len(strata), pairs)
        return Stratified(tuple(strata), order)

    def parse_pair(self) -> tuple[int, int]:
        a = self.nat("a stratum index")
        self.expect("LT", "'<'")
        b = self.nat("a stratum index")
        return (a, b)


def _combine(left: SchemeExpr, right: SchemeExpr) -> SchemeExpr:
    # a projective leaf absorbs an adjacent pure torus into its rank
    if isinstance(left, ProjTimesTorus) and isinstance(right, TorusCell) and right.n == 0:
        return ProjTimesTorus(left.c, left.e + right.d, left.twist)
    if isinstance(right, ProjTimesTorus) and isinstance(left, TorusCell) and left.n == 0:
        return ProjTimesTorus(right.c, right.e + left.d, right.twist)
    return Product(left, right)


def parse_expr(text: str) -> SchemeExpr:
    """The tree of text, or the ParseError the original parser raised."""
    parser = _Parser(_tokenize(text))
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise parser.fail("expression nests too deeply") from None
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError("trailing input %r" % tok.text, tok.line, tok.col)
    return node
