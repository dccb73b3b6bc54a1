"""Tokenizer and recursive-descent parser for the textual Datalog syntax.

Accepted statements:

    pred(arg,...).              facts (ground) and relation declarations
    head(...) :- body, ... .    rules; body elements are atoms or built-ins
    ?- goal(...).               queries

``%`` starts a line comment. Whitespace is insignificant. Identifiers match
``[A-Za-z][A-Za-z0-9_-]*`` so hyphenated predicates are single tokens.

Message payloads are mostly ground facts, so ``parse_program`` first reads
the text as a sequence of facts over unsigned numbers and plain double-quoted
strings, one regular expression match per fact. Anything else is parsed
from the start by the tokenizer and the recursive-descent parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ast import (
    AGGREGATE_FUNCS,
    ASSIGN_OP,
    COMPARISON_OPS,
    STRING_OPS,
    Aggregate,
    Arith,
    Atom,
    BuiltIn,
    DatalogProgram,
    Expr,
    NumberConst,
    Rule,
    StringConst,
    Term,
    Variable,
    normalize_rule,
)


class DatalogSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        detail = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{detail}")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "string" | "op" | "eof"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<number>\d+\.\d+|\d+)
    | (?P<ident>[A-Za-z][A-Za-z0-9_-]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
    | (?P<op>\?-|:-|:=|<=|>=|[(){},.<>=+\-*/_])
    """,
    re.VERBOSE,
)

_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape(text: str) -> str:
    body = text[1:-1]
    return _ESCAPE_RE.sub(lambda m: {"n": "\n", "t": "\t"}.get(m.group(1), m.group(1)), body)


def tokenize(text: str, line: int = 1, col: int = 1) -> list[Token]:
    """Tokenize ``text``; line/col give the position of its first character."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DatalogSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        if self.cur.text != text:
            raise DatalogSyntaxError(
                f"unexpected {self.cur.text!r}", self.cur.line, self.cur.col, expected=(text,)
            )
        return self.advance()

    def at(self, text: str) -> bool:
        return self.cur.text == text

    # --- terms and expressions -------------------------------------------

    def parse_term(self) -> Term:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return _number(tok.text)
        if tok.kind == "string":
            self.advance()
            return StringConst(_unescape(tok.text))
        if tok.text == "-" :
            self.advance()
            num = self.cur
            if num.kind != "number":
                raise DatalogSyntaxError("expected number after '-'", num.line, num.col)
            self.advance()
            value = _number(num.text).value
            return NumberConst(-value)
        if tok.text == "_":
            self.advance()
            return Variable(f"_anon{tok.line}_{tok.col}_{self.i}")
        if tok.kind == "ident":
            self.advance()
            return Variable(tok.text)
        raise DatalogSyntaxError(
            f"expected term, got {tok.text!r}", tok.line, tok.col,
            expected=("identifier", "number", "string"),
        )

    def parse_primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "ident" and tok.text in AGGREGATE_FUNCS and self.tokens[self.i + 1].text == "(":
            self.advance()
            self.expect("(")
            pattern = self.parse_atom()
            self.expect(")")
            return Aggregate(tok.text, pattern)
        if tok.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        return self.parse_term()

    def parse_mul(self) -> Expr:
        expr = self.parse_primary()
        while self.cur.text in ("*", "/"):
            op = self.advance().text
            expr = Arith(op, expr, self.parse_primary())
        return expr

    def parse_expr(self) -> Expr:
        expr = self.parse_mul()
        while self.cur.text in ("+", "-"):
            op = self.advance().text
            expr = Arith(op, expr, self.parse_mul())
        return expr

    # --- atoms, body elements, statements --------------------------------

    def parse_atom(self) -> Atom:
        tok = self.cur
        if tok.kind != "ident":
            raise DatalogSyntaxError(
                f"expected predicate, got {tok.text!r}", tok.line, tok.col, expected=("identifier",)
            )
        self.advance()
        terms: list[Term] = []
        if self.at("("):
            self.advance()
            if not self.at(")"):
                terms.append(self.parse_term())
                while self.at(","):
                    self.advance()
                    terms.append(self.parse_term())
            self.expect(")")
        return Atom(tok.text, tuple(terms))

    def parse_body_element(self):
        tok = self.cur
        nxt = self.tokens[self.i + 1]
        if tok.kind == "ident" and tok.text in STRING_OPS and nxt.text == "(":
            self.advance()
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            return BuiltIn(tok.text, left, right)
        if tok.kind == "ident" and nxt.text == "(" and tok.text not in AGGREGATE_FUNCS:
            # plain atom unless an operator follows the closing paren
            mark = self.i
            atom = self.parse_atom()
            if self.cur.text not in COMPARISON_OPS and self.cur.text != ASSIGN_OP:
                return atom
            self.i = mark  # an expression like p(x) < 3 is not valid Datalog here
            raise DatalogSyntaxError(
                "comparison on an atom is not supported", tok.line, tok.col
            )
        if tok.kind == "ident" and nxt.text in (",", ")", ".", ":-"):
            return self.parse_atom()  # zero-arity atom
        left = self.parse_expr()
        op_tok = self.cur
        if op_tok.text in COMPARISON_OPS or op_tok.text == ASSIGN_OP:
            self.advance()
            right = self.parse_expr()
            if op_tok.text == ASSIGN_OP and not isinstance(left, Variable):
                raise DatalogSyntaxError(
                    "left side of := must be a variable", op_tok.line, op_tok.col
                )
            return BuiltIn(op_tok.text, left, right)
        raise DatalogSyntaxError(
            f"expected built-in operator, got {op_tok.text!r}",
            op_tok.line, op_tok.col, expected=COMPARISON_OPS + (ASSIGN_OP,),
        )

    def parse_statement(self):
        if self.at("?-"):
            self.advance()
            goal = self.parse_atom()
            self.expect(".")
            return ("query", goal)
        head = self.parse_atom()
        if self.at(":-"):
            self.advance()
            body = [self.parse_body_element()]
            while self.at(","):
                self.advance()
                body.append(self.parse_body_element())
            self.expect(".")
            return ("rule", normalize_rule(Rule(head, tuple(body))))
        self.expect(".")
        return ("fact", head)


def _number(text: str) -> NumberConst:
    return NumberConst(float(text) if "." in text else int(text))


_CONST = r'\d+\.\d+|\d+|"[^"\\\n]*"'
# one ground fact: pred. | pred() | pred(const, ...). with free whitespace
_FACT_RE = re.compile(
    rf"\s*([A-Za-z][A-Za-z0-9_-]*)\s*"
    rf"(?:\(\s*((?:{_CONST})(?:\s*,\s*(?:{_CONST}))*)?\s*\)\s*)?\."
)
_CONST_RE = re.compile(_CONST)


def _ground_facts(text: str) -> DatalogProgram | None:
    """The program of a text made of ground facts only, or None otherwise."""
    facts: list[Atom] = []
    terms: dict[str, Term] = {}  # one constant object per distinct spelling
    match_fact = _FACT_RE.match
    pos = 0
    while (m := match_fact(text, pos)) is not None:
        pos = m.end()
        predicate, args = m.groups()
        if not args:
            facts.append(Atom(predicate, ()))
            continue
        atom_terms = []
        for const in _CONST_RE.findall(args):
            term = terms.get(const)
            if term is None:
                term = terms[const] = (
                    StringConst(const[1:-1]) if const[0] == '"' else _number(const)
                )
            atom_terms.append(term)
        facts.append(Atom(predicate, tuple(atom_terms)))
    if text[pos:].strip():  # a statement that is not a ground fact
        return None
    return DatalogProgram(frozenset(facts))


def parse_program(text: str) -> DatalogProgram:
    """Parse a full textual Datalog program (facts, rules, queries)."""
    program = _ground_facts(text)
    if program is not None:
        return program
    return _parse_tokens(text)


def _parse_tokens(text: str) -> DatalogProgram:
    """Parse any program with the tokenizer and the recursive-descent parser."""
    parser = _Parser(tokenize(text))
    facts: list[Atom] = []
    rules: list[Rule] = []
    queries: list[Atom] = []
    while parser.cur.kind != "eof":
        kind, node = parser.parse_statement()
        if kind == "fact":
            facts.append(node)
        elif kind == "rule":
            rules.append(node)
        else:
            queries.append(node)
    return DatalogProgram(frozenset(facts), tuple(rules), tuple(queries))


def parse_atom(text: str) -> Atom:
    parser = _Parser(tokenize(text))
    atom = parser.parse_atom()
    if parser.at("."):
        parser.advance()
    if parser.cur.kind != "eof":
        tok = parser.cur
        raise DatalogSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return atom


def parse_rule(text: str) -> Rule:
    parser = _Parser(tokenize(text))
    kind, node = parser.parse_statement()
    if kind != "rule":
        raise DatalogSyntaxError("expected a rule", 1, 1)
    if parser.cur.kind != "eof":
        tok = parser.cur
        raise DatalogSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return node
