"""Parser for LiLa source: Datalog rules and facts interleaved with annotations.

Annotation heads hold URI-like parameters and are scanned as raw text (URIs
contain ``:`` ``/`` ``.`` and ``$config`` placeholders); annotation bodies and
all top-level statements use the Datalog grammar. ``%`` comments apply
everywhere except inside annotation heads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .diagnostics import Diagnostic
from .cdm import RelationDecl
from .datalog.ast import Atom, Rule, Variable
from .datalog.parser import DatalogSyntaxError, tokenize, _Parser
from .patterns import AGGREGATE_SUFFIX, SPLIT_SUFFIX

ANNOTATION_NAMES = ("from", "to", "enrich", "aggregate", "split")

# head parameter counts: (min, max); from/to tolerate an omitted format
_HEAD_ARITY = {
    "from": (1, 2),
    "to": (1, 2),
    "enrich": (2, 2),
    "aggregate": (2, 2),
    "split": (0, 0),
}

_PLACEHOLDER_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


class LilaSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class ConfigResolutionError(Exception):
    pass


@dataclass(frozen=True)
class SourcePos:
    line: int
    col: int


@dataclass(frozen=True)
class Annotation:
    name: str  # from | to | enrich | aggregate | split
    params: tuple[str, ...]
    declarations: tuple[RelationDecl, ...] = ()  # from / enrich bodies
    queries: tuple[Atom, ...] = ()  # aggregate / split bodies
    exposed: tuple[str, ...] = ()  # to bodies; empty means auto-resolve
    pos: SourcePos = field(default=SourcePos(0, 0), compare=False)

    @property
    def uri(self) -> str:
        return self.params[0] if self.params else ""

    def format(self) -> str:
        """Explicit format parameter, or a default derived from the URI suffix."""
        if self.name in ("from", "to", "enrich") and len(self.params) > 1:
            return self.params[1]
        uri = self.uri
        for fmt in ("json", "csv"):
            if uri.endswith("." + fmt):
                return fmt
        return "datalog"


@dataclass(frozen=True)
class LilaProgram:
    statements: tuple = ()  # Annotation | Rule | Atom (inline fact), source order
    warnings: tuple[Diagnostic, ...] = field(default=(), compare=False)

    @property
    def annotations(self) -> tuple[Annotation, ...]:
        return tuple(s for s in self.statements if isinstance(s, Annotation))

    @property
    def rules(self) -> tuple[Rule, ...]:
        return tuple(s for s in self.statements if isinstance(s, Rule))

    @property
    def facts(self) -> tuple[Atom, ...]:
        return tuple(s for s in self.statements if isinstance(s, Atom))


# --- scanning ----------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_trivia(self):
        while not self.eof():
            ch = self.peek()
            if ch in " \t\r\n":
                self.take()
            elif ch == "%":
                while not self.eof() and self.peek() != "\n":
                    self.take()
            else:
                return

    def scan_ident(self) -> str:
        out = []
        while not self.eof() and (self.peek().isalnum() or self.peek() in "_-"):
            out.append(self.take())
        return "".join(out)

    def scan_balanced(self, open_ch: str, close_ch: str) -> tuple[str, SourcePos]:
        """Raw text between delimiters; no comment handling (URIs may hold %)."""
        start = SourcePos(self.line, self.col)
        self.take()  # opening delimiter
        depth = 1
        out = []
        while not self.eof():
            ch = self.peek()
            if ch == open_ch:
                depth += 1
            elif ch == close_ch:
                depth -= 1
                if depth == 0:
                    self.take()
                    return "".join(out), start
            out.append(self.take())
        raise LilaSyntaxError(f"unterminated {open_ch!r} block", start.line, start.col)


def _split_params(raw: str) -> list[str]:
    if not raw.strip():
        return []
    parts = []
    depth = 0
    current = []
    for ch in raw:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return parts


# --- annotation bodies ----------------------------------------------------------


def _parse_declarations(body: str, pos: SourcePos, name: str) -> tuple[RelationDecl, ...]:
    parser = _Parser(tokenize(body, pos.line, pos.col))
    decls = []
    while parser.cur.kind != "eof":
        atom = parser.parse_atom()
        parser.expect(".")
        params = []
        for term in atom.terms:
            if not isinstance(term, Variable):
                raise LilaSyntaxError(
                    f"@{name} declaration {atom} must list parameter names",
                    pos.line, pos.col,
                )
            params.append(term.name)
        if len(set(params)) != len(params):
            raise LilaSyntaxError(
                f"duplicate parameter names in declaration {atom}", pos.line, pos.col
            )
        decls.append(RelationDecl(atom.predicate, tuple(params)))
    if not decls:
        raise LilaSyntaxError(f"@{name} requires at least one relation declaration", pos.line, pos.col)
    return tuple(decls)


def _parse_queries(body: str, pos: SourcePos, name: str) -> tuple[Atom, ...]:
    parser = _Parser(tokenize(body, pos.line, pos.col))
    queries = []
    while parser.cur.kind != "eof":
        parser.expect("?-")
        queries.append(parser.parse_atom())
        parser.expect(".")
    if not queries:
        raise LilaSyntaxError(f"@{name} requires at least one query", pos.line, pos.col)
    return tuple(queries)


def _parse_exposed(body: str, pos: SourcePos) -> tuple[str, ...]:
    tokens = tokenize(body, pos.line, pos.col)
    names = []
    for tok in tokens:
        if tok.kind == "eof":
            break
        if tok.kind == "ident":
            names.append(tok.text)
        elif tok.text != ",":
            raise LilaSyntaxError(
                f"@to body lists relation names, got {tok.text!r}", tok.line, tok.col
            )
    return tuple(names)


# --- parse -----------------------------------------------------------------------


def parse(source: str) -> LilaProgram:
    """Parse LiLa source into an ordered program AST with source positions."""
    scanner = _Scanner(source)
    statements: list = []
    warnings: list[Diagnostic] = []

    try:
        while True:
            scanner.skip_trivia()
            if scanner.eof():
                break
            if scanner.peek() == "@":
                statements.append(_parse_annotation(scanner, warnings))
            else:
                statements.extend(_parse_datalog_statements(scanner))
    except DatalogSyntaxError as exc:
        raise LilaSyntaxError(str(exc).split(": ", 1)[1], exc.line, exc.col) from exc

    return LilaProgram(tuple(statements), tuple(warnings))


def _parse_annotation(scanner: _Scanner, warnings: list[Diagnostic]) -> Annotation:
    pos = SourcePos(scanner.line, scanner.col)
    scanner.take()  # @
    name = scanner.scan_ident()
    if name not in ANNOTATION_NAMES:
        raise LilaSyntaxError(f"unknown annotation @{name}", pos.line, pos.col)
    scanner.skip_trivia()

    if scanner.peek() == "(":
        raw, _ = scanner.scan_balanced("(", ")")
    elif scanner.peek() == "{":
        # brace-delimited head (accepted, normalized to parentheses)
        raw, _ = scanner.scan_balanced("{", "}")
        warnings.append(
            Diagnostic(
                "warning", "brace-head",
                f"@{name} head uses braces; normalized to parentheses",
                pos.line, pos.col,
            )
        )
    else:
        raise LilaSyntaxError(f"@{name} requires a parameter list", scanner.line, scanner.col)

    params = tuple(_split_params(raw))
    lo, hi = _HEAD_ARITY[name]
    if not (lo <= len(params) <= hi):
        expected = str(lo) if lo == hi else f"{lo}..{hi}"
        raise LilaSyntaxError(
            f"@{name} takes {expected} parameter(s), got {len(params)}", pos.line, pos.col
        )
    if name == "from" and len(params) == 1:
        warnings.append(
            Diagnostic(
                "warning", "missing-format",
                f"@from({params[0]}) omits the format; defaulting by URI suffix",
                pos.line, pos.col,
            )
        )

    scanner.skip_trivia()
    body_raw = None
    if scanner.peek() == "{":
        body_raw, body_pos = scanner.scan_balanced("{", "}")

    annotation = Annotation(name, params, pos=pos)
    if name in ("from", "enrich"):
        if body_raw is None:
            raise LilaSyntaxError(f"@{name} requires a declaration body", pos.line, pos.col)
        return replace(annotation, declarations=_parse_declarations(body_raw, body_pos, name))
    if name in ("aggregate", "split"):
        if body_raw is None:
            raise LilaSyntaxError(f"@{name} requires a query body", pos.line, pos.col)
        return replace(annotation, queries=_parse_queries(body_raw, body_pos, name))
    # @to: body optional; empty means "expose the terminal predicates"
    if body_raw is not None:
        return replace(annotation, exposed=_parse_exposed(body_raw, body_pos))
    return annotation


def _parse_datalog_statements(scanner: _Scanner) -> list:
    """Consume Datalog text up to the next annotation (or EOF) and parse it."""
    start_line, start_col = scanner.line, scanner.col
    chunk = []
    while not scanner.eof():
        ch = scanner.peek()
        if ch == "@":
            break
        if ch == "%":
            while not scanner.eof() and scanner.peek() != "\n":
                scanner.take()
            continue
        if ch in "\"'":
            quote = scanner.take()
            chunk.append(quote)
            while not scanner.eof():
                c = scanner.take()
                chunk.append(c)
                if c == "\\" and not scanner.eof():
                    chunk.append(scanner.take())
                elif c == quote:
                    break
            continue
        chunk.append(scanner.take())

    text = "".join(chunk)
    parser = _Parser(tokenize(text, start_line, start_col))
    statements = []
    while parser.cur.kind != "eof":
        first = parser.cur
        kind, node = parser.parse_statement()
        if kind == "query":
            tok = parser.tokens[max(parser.i - 1, 0)]
            raise LilaSyntaxError(
                "queries are only allowed inside annotation bodies", tok.line, tok.col
            )
        if kind == "fact" and not node.is_ground():
            raise LilaSyntaxError(f"fact {node} contains variables", first.line, first.col)
        statements.append(node)
    return statements


# --- config resolution --------------------------------------------------------


def resolve_config(program: LilaProgram, bindings: dict[str, str]) -> LilaProgram:
    """Substitute ``$name`` placeholders in annotation parameters."""

    def subst(param: str) -> str:
        def repl(match: re.Match) -> str:
            name = match.group(1)
            if name not in bindings:
                raise ConfigResolutionError(f"no binding for placeholder ${name}")
            return bindings[name]

        return _PLACEHOLDER_RE.sub(repl, param)

    statements = []
    for stmt in program.statements:
        if isinstance(stmt, Annotation):
            stmt = replace(stmt, params=tuple(subst(p) for p in stmt.params))
        statements.append(stmt)
    return LilaProgram(tuple(statements), program.warnings)


def unresolved_placeholders(program: LilaProgram) -> list[str]:
    names = []
    for ann in program.annotations:
        for param in ann.params:
            names += _PLACEHOLDER_RE.findall(param)
    return names


# --- produced/consumed predicates and validation --------------------------------


def produced_predicates(program: LilaProgram) -> set[str]:
    """Predicates available for consumption anywhere in the program."""
    produced: set[str] = set()
    for rule in program.rules:
        produced.add(rule.head.predicate)
    for f in program.facts:
        produced.add(f.predicate)
    for ann in program.annotations:
        if ann.name in ("from", "enrich"):
            produced |= {d.predicate for d in ann.declarations}
        elif ann.name == "aggregate":
            produced |= {q.predicate + AGGREGATE_SUFFIX for q in ann.queries}
        elif ann.name == "split":
            produced |= {q.predicate + SPLIT_SUFFIX for q in ann.queries}
    return produced


def consumed_predicates(program: LilaProgram) -> set[str]:
    consumed: set[str] = set()
    for rule in program.rules:
        for elem in rule.body:
            if isinstance(elem, Atom):
                consumed.add(elem.predicate)
    for ann in program.annotations:
        if ann.name in ("aggregate", "split"):
            consumed |= {q.predicate for q in ann.queries}
        elif ann.name == "to":
            consumed |= set(ann.exposed)
    return consumed


def auto_exposed(program: LilaProgram) -> tuple[str, ...]:
    """Terminal predicates: produced but consumed by no rule or annotation.

    Used for ``@to`` without a body.
    """
    terminal = produced_predicates(program) - consumed_predicates(program)
    return tuple(sorted(terminal))


def resolved_exposed(program: LilaProgram, ann: Annotation) -> tuple[str, ...]:
    if ann.name != "to":
        raise ValueError("resolved_exposed applies to @to annotations")
    return ann.exposed or auto_exposed(program)


def validate_program(program: LilaProgram) -> list[Diagnostic]:
    """Program-level checks; parse warnings are included in the result."""
    from .datalog.analysis import validate as validate_datalog
    from .datalog.ast import DatalogProgram

    diags: list[Diagnostic] = list(program.warnings)

    froms = [a for a in program.annotations if a.name == "from"]
    tos = [a for a in program.annotations if a.name == "to"]
    if not froms:
        diags.append(Diagnostic("error", "missing-from", "program has no @from annotation"))
    if not tos:
        diags.append(Diagnostic("error", "missing-to", "program has no @to annotation"))

    for ann in program.annotations:
        if ann.name in ("from", "to", "enrich") and ann.format() not in ("json", "csv", "datalog"):
            diags.append(
                Diagnostic(
                    "error", "bad-format",
                    f"@{ann.name}({ann.uri}): unsupported format {ann.format()!r}",
                    ann.pos.line, ann.pos.col,
                )
            )
        if ann.name == "aggregate":
            diags.extend(_check_aggregate_params(ann))

    produced = produced_predicates(program)
    for ann in tos:
        exposed = resolved_exposed(program, ann)
        if not exposed:
            diags.append(
                Diagnostic(
                    "error", "empty-goal",
                    f"@to({ann.uri}) exposes nothing and no terminal predicate exists",
                    ann.pos.line, ann.pos.col,
                )
            )
        if ann.format() == "csv" and len(exposed) > 1:
            diags.append(
                Diagnostic(
                    "error", "csv-multi-predicate",
                    f"@to({ann.uri}) uses CSV but exposes {len(exposed)} predicates; "
                    "CSV serialization takes exactly one",
                    ann.pos.line, ann.pos.col,
                )
            )
        for predicate in exposed:
            if predicate not in produced:
                diags.append(
                    Diagnostic(
                        "error", "unreachable-predicate",
                        f"@to({ann.uri}) exposes '{predicate}' which nothing produces",
                        ann.pos.line, ann.pos.col,
                    )
                )

    # declared relations come first, so their arities are the reference that
    # inline facts, rules and annotation queries are checked against
    declared = tuple(
        Atom(decl.predicate, tuple(Variable(p) for p in decl.params))
        for ann in program.annotations
        for decl in ann.declarations
    )
    queries = tuple(q for a in program.annotations for q in a.queries)
    diags.extend(
        validate_datalog(DatalogProgram(frozenset(program.facts), program.rules, declared + queries))
    )
    return diags


def _check_aggregate_params(ann: Annotation) -> list[Diagnostic]:
    diags = []
    strategy = ann.params[0]
    if strategy != "union":
        diags.append(
            Diagnostic(
                "error", "bad-strategy",
                f"unsupported aggregation strategy {strategy!r} (only 'union')",
                ann.pos.line, ann.pos.col,
            )
        )
    if parse_completion(ann.params[1]) is None:
        diags.append(
            Diagnostic(
                "error", "bad-completion",
                f"cannot parse completion condition {ann.params[1]!r} "
                "(expected completionSize=<n> or completionTime=<seconds>)",
                ann.pos.line, ann.pos.col,
            )
        )
    return diags


def parse_completion(param: str) -> tuple[str, int] | None:
    """Parse ``completionSize=5`` / ``completionTime=3`` (seconds to millis)."""
    if "=" not in param:
        return None
    key, _, value = param.partition("=")
    key = key.strip()
    value = value.strip()
    try:
        if key == "completionSize":
            n = int(value)
            return ("size", n) if n >= 1 else None
        if key == "completionTime":
            seconds = float(value)
            return ("time", int(seconds * 1000)) if seconds > 0 else None
    except ValueError:
        return None
    return None


# --- printing ---------------------------------------------------------------------


def format_program(program: LilaProgram) -> str:
    """Pretty-print a program; reparsing yields a structurally identical AST."""
    lines = []
    for stmt in program.statements:
        if isinstance(stmt, Annotation):
            lines.append(f"@{stmt.name}({','.join(stmt.params)})")
            if stmt.declarations:
                body = " ".join(f"{d}." for d in stmt.declarations)
                lines.append("{" + body + "}")
            elif stmt.queries:
                body = " ".join(f"?-{q}." for q in stmt.queries)
                lines.append("{" + body + "}")
            elif stmt.exposed:
                lines.append("{" + "\n".join(stmt.exposed) + "}")
            lines.append("")
        elif isinstance(stmt, Rule):
            lines.append(str(stmt))
        else:
            lines.append(f"{stmt}.")
    return "\n".join(lines).strip() + "\n"
