"""Expression language for scheme construction trees.

Grammar (whitespace between tokens is free):

    expr    := term { "*" term }
    term    := "A" "^" nat
             | "Gm" [ "^" nat ]
             | "P" "^" nat [ "@" twist ]
             | "open" "(" expr "," expr ")"
             | "closed" "(" expr "," expr ")"
             | "strat" "(" expr { "," expr } ";" order ")"
             | "empty"
             | "(" expr ")"
    twist   := "O" "(" int ")" | name
    order   := [ pair { "," pair } ]
    pair    := nat "<" nat

"a<b" declares that stratum a (0-based, in listing order) lies in the
closure of stratum b.  "*" builds Product nodes, associating to the
left, with one folding rule: a projective-times-torus term absorbs an
adjacent pure torus factor into its torus rank, so "P^2 @O(3) * Gm^3"
is a single leaf while "A^3 * Gm^2" stays a product of two cells.

A twist name other than O(<int>) parses as an opaque label, and
parse_expr emits UnknownTwistWarning for it, attributed to its caller;
downstream ops that need a specific twist will refuse it.

pretty() prints the canonical form: "Gm" for rank one, no "@" for the
trivial twist, cover pairs only in strat orders, parentheses only where
the left-associating product needs them.  Each node kind's form is its
text printer in schemes.NODE_KINDS, next to its provenance label.
Parsing a pretty-printed tree reproduces the tree (smoothness
assertions are not part of the grammar and are dropped by pretty()).

The tokenizer is one compiled regex: each match is optional whitespace
(space, tab, carriage return, newline) and then an integer (an
optional "-" and ASCII digits), a name (an ASCII letter or "_", then
ASCII letters, digits or "_") or one punctuation character.  Any other
character, such as a "-" before no digit or a digit or letter outside
ASCII (a superscript two is never a number), is a ParseError, found by
one search before the scan.  Tokens are their bare texts, from one
findall, with "" for the end of input; a token's kind is read off its
first character.  Tokens carry no offsets: a ParseError scans the text
again up to its token, and only then turns that offset into a line
and column (a newline starts a line; every other character, tab and
carriage return included, is one column).

The parser is recursive descent over the token list, two interpreter
frames per nesting level, so nesting is bounded by the interpreter's
recursion limit (a few hundred levels); deeper input is a ParseError
("expression nests too deeply").  The limit stays because what lies
past it cannot be printed safely yet: v1 provenance repeats each
subtree's label at every node, so its size grows with the square of
the depth.  pretty() reads the text column of schemes.derivation(),
which walks the tree iteratively, so it takes trees of any depth.
"""

from __future__ import annotations

import re
import warnings
from itertools import islice

from .schemes import (
    Affine,
    ClosedGlue,
    ClosureOrder,
    Empty,
    OpenGlue,
    Product,
    ProjTimesTorus,
    SchemeExpr,
    Stratified,
    TorusCell,
    derivation,
    fold_rows,
)
from .witt import TwistLabel

__all__ = ["ParseError", "UnknownTwistWarning", "parse_expr", "pretty"]


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.message = message
        self.line = line
        self.col = col


class UnknownTwistWarning(UserWarning):
    pass


# whitespace, then one token: an integer, a name or one punctuation
# character; trailing whitespace starts no match
_TOKEN = re.compile(r"[ \t\r\n]*(-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[\^*@(),;<])")
# a character that starts no token: outside the token alphabet, or a "-"
# before no digit
_BAD = re.compile(r"[^ \t\r\n0-9A-Za-z_^*@(),;<-]|-(?![0-9])")
_INT_START = frozenset("-0123456789")
_GLUES = {"open": OpenGlue, "closed": ClosedGlue}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _error(text: str, message: str, offset: int) -> ParseError:
    """A ParseError at offset of text, with its line and column."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


class _Parser:
    """Recursive descent over the tokens of text, read by index."""

    def __init__(self, text: str):
        self.text = text
        bad = _BAD.search(text)
        if bad:
            raise _error(text, "unexpected character %r" % bad[0], bad.start())
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")
        self.pos = 0
        # the opaque twist names read so far, in order
        self.twists: list[str] = []

    def fail(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at the token at index (by default the current one)."""
        if index is None:
            index = self.pos
        m = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return _error(self.text, message, m.start(1) if m else len(self.text))

    def expect(self, token: str) -> None:
        found = self.tokens[self.pos]
        if found != token:
            raise self.fail("expected '%s', found %r" % (token, found or "end of input"))
        self.pos += 1

    def word(self, start: frozenset, what: str) -> str:
        """The current token, an integer or a name as start says, and
        step past it."""
        token = self.tokens[self.pos]
        if token[:1] not in start:
            raise self.fail("expected %s, found %r" % (what, token or "end of input"))
        self.pos += 1
        return token

    def nat(self, what: str) -> int:
        value = int(self.word(_INT_START, what))
        if value < 0:
            raise self.fail("%s must be non-negative" % what, self.pos - 1)
        return value

    def parse_expr(self) -> SchemeExpr:
        node = self.parse_term()
        tokens = self.tokens
        while tokens[self.pos] == "*":
            self.pos += 1
            node = _combine(node, self.parse_term())
        return node

    def parse_term(self) -> SchemeExpr:
        name = self.tokens[self.pos]
        if name == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if name[:1] not in _NAME_START:
            raise self.fail("expected a scheme term, found %r" % (name or "end of input"))
        self.pos += 1
        if name == "A":
            self.expect("^")
            return Affine(self.nat("affine dimension"))
        if name == "Gm":
            if self.tokens[self.pos] == "^":
                self.pos += 1
                return TorusCell(0, self.nat("torus rank"))
            return TorusCell(0, 1)
        if name == "P":
            self.expect("^")
            c = self.nat("projective dimension")
            twist = TwistLabel.trivial()
            if self.tokens[self.pos] == "@":
                self.pos += 1
                twist = self.parse_twist()
            return ProjTimesTorus(c, 0, twist)
        glue = _GLUES.get(name)
        if glue is not None:
            self.expect("(")
            first = self.parse_expr()
            self.expect(",")
            second = self.parse_expr()
            self.expect(")")
            return glue(first, second)
        if name == "strat":
            return self.parse_strat()
        if name == "empty":
            return Empty()
        raise self.fail("unknown term %r" % name, self.pos - 1)

    def parse_twist(self) -> TwistLabel:
        name = self.word(_NAME_START, "a twist name")
        if name == "O" and self.tokens[self.pos] == "(":
            self.pos += 1
            k = int(self.word(_INT_START, "an integer twist degree"))
            self.expect(")")
            return TwistLabel.o(k)
        self.twists.append(name)
        return TwistLabel(name)

    def parse_strat(self) -> SchemeExpr:
        tokens = self.tokens
        self.expect("(")
        strata = [self.parse_expr()]
        while tokens[self.pos] == ",":
            self.pos += 1
            strata.append(self.parse_expr())
        self.expect(";")
        pairs: list[tuple[int, int]] = []
        if tokens[self.pos] != ")":
            pairs.append(self.parse_pair())
            while tokens[self.pos] == ",":
                self.pos += 1
                pairs.append(self.parse_pair())
        self.expect(")")
        order = ClosureOrder.from_pairs(len(strata), pairs)
        return Stratified(tuple(strata), order)

    def parse_pair(self) -> tuple[int, int]:
        a = self.nat("a stratum index")
        self.expect("<")
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
    """Parse a scheme expression; raises ParseError with line/column.

    Each opaque twist name read gives one UnknownTwistWarning, in the
    order read, at the caller's line, also when the parse then fails."""
    parser = _Parser(text)
    try:
        node = parser.parse_expr()
        token = parser.tokens[parser.pos]
        if token:
            raise parser.fail("trailing input %r" % token)
        return node
    except RecursionError:
        # the parser recurses once per nesting level; report where it gave up
        raise parser.fail("expression nests too deeply") from None
    finally:
        for name in parser.twists:
            warnings.warn("twist %r is not of the form O(<int>); treating it as an "
                          "opaque label" % name, UnknownTwistWarning, stacklevel=2)


def pretty(x: SchemeExpr) -> str:
    """Canonical text form; parse(pretty(t)) == t for parser-image trees."""
    return fold_rows(derivation(x), "text")
