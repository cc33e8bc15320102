"""Parsing and validation of generation literal sets.

Grammar (whitespace-insensitive inside a literal):

    set      = literal { separator literal }
    literal  = [ "~" | "¬" ] atom
    atom     = head [ "=" term ]
    head     = ident [ "(" [ term { "," term } ] ")" ]
    term     = ident [ "(" term { "," term } ")" ]
    ident    = letter { letter | digit | "_" }

Separators between literals are commas, semicolons, or newlines.  A bare
identifier in literal-head position is a propositional variable; with a
parenthesized argument list it is a predicate.  Negation applies to the
whole atom, so stacked negation ("~~p") is a syntax error.  Whether a
bare identifier inside a term is a variable or a constant is decided by
the var-style flag: "upper" treats a leading uppercase letter as a
variable (TPTP convention), "lower" treats identifiers starting with one
of u, v, w, x, y, z as variables.

Parentheses nest at most MAX_NESTING deep in one literal, and deeper
input is a ParseError: rendering, hashing and comparing a term all
recurse once per level, so an unbounded term would end in a
RecursionError far from the input.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .errors import DuplicatePredicateError, EmptySetError, ParseError
from .logic import IDENT, Constant, Function, Literal, Pred, Prop, Term, Variable, _set, _Value

VAR_STYLES = ("upper", "lower")
MAX_NESTING = 100
_LOWER_STYLE_VARIABLES = "uvwxyz"

# Each group is named by the kind of token it reads.
_TOKEN_RE = re.compile(
    rf"""(?P<WS>[ \t\r]+)
      | (?P<NEWLINE>\n)
      | (?P<IDENT>{IDENT})
      | (?P<NEG>[~¬])
      | (?P<LPAREN>\()
      | (?P<RPAREN>\))
      | (?P<COMMA>,)
      | (?P<SEMI>;)
      | (?P<EQ>=)
    """,
    re.VERBOSE,
)

_SEPARATORS = frozenset({"COMMA", "SEMI", "NEWLINE"})


class _Token(_Value):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "pos", pos)


def _tokenize(text: str, keep_newlines: bool) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, "a literal token", text[pos])
        kind = m.lastgroup
        if kind != "WS" and (kind != "NEWLINE" or keep_newlines):
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], var_style: str):
        if var_style not in VAR_STYLES:
            raise ValueError(f"unknown var style {var_style!r}; use one of {VAR_STYLES}")
        self.tokens = tokens
        self.i = 0
        self.var_style = var_style

    def _cur(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "END":
            self.i += 1
        return tok

    def _skip_newlines(self) -> None:
        while self._cur().kind == "NEWLINE":
            self.i += 1

    def _fail(self, expected: str) -> ParseError:
        tok = self._cur()
        found = tok.text if tok.kind != "END" else "end of input"
        return ParseError(tok.pos, expected, found)

    def _classify_bare(self, name: str) -> Term:
        if self.var_style == "upper":
            is_var = name[0].isupper()
        else:
            is_var = name[0] in _LOWER_STYLE_VARIABLES
        return Variable(name) if is_var else Constant(name)

    def parse_literal(self) -> Literal:
        negated = False
        if self._cur().kind == "NEG":
            self._advance()
            negated = True
        if self._cur().kind != "IDENT":
            raise self._fail("an identifier")
        head = self._advance()
        args: list[Term] | None = None
        if self._cur().kind == "LPAREN":
            args = self._parse_arg_list(allow_empty=True, depth=1)
        if self._cur().kind == "EQ":
            self._advance()
            lhs = self._head_as_term(head, args)
            rhs = self.parse_term(depth=0)
            return Literal(Pred("=", (lhs, rhs)), negated)
        atom = Prop(head.text) if args is None else Pred(head.text, tuple(args))
        return Literal(atom, negated)

    def _head_as_term(self, head: _Token, args: list[Term] | None) -> Term:
        if args is None:
            return self._classify_bare(head.text)
        if not args:
            raise ParseError(head.pos, "a term on the left of '='", f"{head.text}()")
        return Function(head.text, tuple(args))

    def _parse_arg_list(self, allow_empty: bool, depth: int) -> list[Term]:
        # The current token is the opening paren, which brings the
        # nesting to depth.  Newlines are plain whitespace inside an
        # argument list.
        if depth > MAX_NESTING:
            raise self._fail(f"at most {MAX_NESTING} nested parentheses")
        self._advance()
        self._skip_newlines()
        if allow_empty and self._cur().kind == "RPAREN":
            self._advance()
            return []
        args = [self.parse_term(depth)]
        while True:
            self._skip_newlines()
            kind = self._cur().kind
            if kind == "COMMA":
                self._advance()
                self._skip_newlines()
                args.append(self.parse_term(depth))
            elif kind == "RPAREN":
                self._advance()
                return args
            else:
                raise self._fail("',' or ')'")

    def parse_term(self, depth: int) -> Term:
        """A term at the given parenthesis depth."""
        if self._cur().kind != "IDENT":
            raise self._fail("a term")
        name = self._advance().text
        if self._cur().kind == "LPAREN":
            args = self._parse_arg_list(allow_empty=False, depth=depth + 1)
            return Function(name, tuple(args))
        return self._classify_bare(name)


class GenerationSet(_Value):
    """Nonempty ordered literal sequence with pairwise distinct predicate symbols.

    Construction checks the invariants: empty input, and any two literals
    sharing a predicate or proposition symbol ("=" included), are
    rejected.  Duplicate positions in the error are 1-based.
    """

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[Literal]):
        literals = tuple(literals)
        if not literals:
            raise EmptySetError("a generation set needs at least one literal")
        seen: dict[str, int] = {}
        for i, lit in enumerate(literals):
            symbol = lit.atom.symbol
            if symbol in seen:
                raise DuplicatePredicateError(symbol, seen[symbol] + 1, i + 1)
            seen[symbol] = i
        _set(self, "literals", literals)

    @property
    def n(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __getitem__(self, i: int) -> Literal:
        return self.literals[i]

    def __str__(self) -> str:
        return "{" + ", ".join(str(l) for l in self.literals) + "}"


def parse_literal(text: str, var_style: str = "upper") -> Literal:
    """Parse a single literal.  Newlines count as ordinary whitespace here."""
    parser = _Parser(_tokenize(text, keep_newlines=False), var_style)
    lit = parser.parse_literal()
    if parser._cur().kind != "END":
        raise parser._fail("end of input")
    return lit


def parse_generation_set(text: str, var_style: str = "upper") -> GenerationSet:
    """Parse comma, semicolon, or newline separated literals and validate them."""
    parser = _Parser(_tokenize(text, keep_newlines=True), var_style)
    literals = []
    while True:
        while parser._cur().kind in _SEPARATORS:
            parser._advance()
        if parser._cur().kind == "END":
            break
        literals.append(parser.parse_literal())
        kind = parser._cur().kind
        if kind not in _SEPARATORS and kind != "END":
            raise parser._fail("a separator or end of input")
    if not literals:
        raise EmptySetError("no literals found in input")
    return GenerationSet(tuple(literals))
