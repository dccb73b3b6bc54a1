"""AST for the Datalog dialect used as message content language.

Terms follow the annotation style of the surrounding rule language: any
unquoted identifier is a variable, string constants are quoted, numbers are
integer or decimal constants. Identifiers may contain hyphens (predicates
like ``match-filtered`` are single tokens), so subtraction in arithmetic
expressions requires surrounding whitespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

COMPARISON_OPS = ("<", ">", "<=", ">=", "=")
STRING_OPS = ("equals", "contains", "startswith", "endswith")
ASSIGN_OP = ":="
ARITH_OPS = ("+", "-", "*", "/")
AGGREGATE_FUNCS = ("min", "max")


@dataclass(frozen=True)
class Term:
    """Base class for terms; concrete subclasses hold the data."""


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StringConst(Term):
    value: str

    def __str__(self) -> str:
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'


@dataclass(frozen=True)
class NumberConst(Term):
    # ints are arbitrary precision, decimals are 64-bit floats
    value: Union[int, float]

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Atom:
    predicate: str
    terms: tuple[Term, ...]

    def __post_init__(self):
        # atoms live in large fact sets; cache the hash once
        object.__setattr__(self, "_hash", hash((self.predicate, self.terms)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        return len(self.terms)

    def is_ground(self) -> bool:
        return not any(isinstance(t, Variable) for t in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        return f"{self.predicate}({','.join(str(t) for t in self.terms)})"


@dataclass(frozen=True)
class Arith:
    """Binary arithmetic over terms and nested expressions."""

    op: str  # one of ARITH_OPS
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Aggregate:
    """min/max over one argument position of a predicate, e.g. ``max(p(x))``.

    The pattern must contain exactly one collect variable; the remaining
    arguments act as selection (constants or variables bound elsewhere).
    """

    func: str  # "min" | "max"
    pattern: Atom

    def __str__(self) -> str:
        return f"{self.func}({self.pattern})"


Expr = Union[Term, Arith, Aggregate]


@dataclass(frozen=True)
class BuiltIn:
    """Comparison, assignment or string built-in between two expressions."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        if self.op in STRING_OPS:
            return f"{self.op}({self.left},{self.right})"
        return f"{self.left}{self.op}{self.right}"


BodyElement = Union[Atom, BuiltIn]


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[BodyElement, ...]

    def __post_init__(self):
        # rule tuples key the evaluator's plan cache on every evaluation
        object.__setattr__(self, "_hash", hash((self.head, self.body)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # constants compare by value (2 == 2.0), rules by type as well: x/2
        # truncates and x/2.0 does not. The evaluator's plan cache relies on it.
        if self is other:
            return True
        if other.__class__ is not Rule:
            return NotImplemented
        return (
            self._hash == other._hash
            and (self.head, self.body) == (other.head, other.body)
            and str(self) == str(other)
        )

    def __str__(self) -> str:
        return f"{self.head}:-{','.join(str(b) for b in self.body)}."


@dataclass(frozen=True)
class DatalogProgram:
    facts: frozenset[Atom] = frozenset()
    rules: tuple[Rule, ...] = ()
    queries: tuple[Atom, ...] = ()

    def __str__(self) -> str:
        lines = [f"{a}." for a in sorted(self.facts, key=atom_sort_key)]
        lines += [str(r) for r in self.rules]
        lines += [f"?-{q}." for q in self.queries]
        return "\n".join(lines)


def _term_sort_key(term: Term):
    if isinstance(term, NumberConst):
        return (0, float(term.value), "")
    if isinstance(term, StringConst):
        return (1, 0.0, term.value)
    return (2, 0.0, term.name)  # variables, only relevant for patterns


def atom_sort_key(atom: Atom):
    """Deterministic ordering: predicate, then arity, then term values."""
    return (atom.predicate, atom.arity, tuple(_term_sort_key(t) for t in atom.terms))


def expr_variables(expr: Expr) -> set[str]:
    if isinstance(expr, Variable):
        return {expr.name}
    if isinstance(expr, Arith):
        return expr_variables(expr.left) | expr_variables(expr.right)
    if isinstance(expr, Aggregate):
        return {t.name for t in expr.pattern.terms if isinstance(t, Variable)}
    return set()


def body_atom_variables(rule: Rule) -> set[str]:
    names: set[str] = set()
    for elem in rule.body:
        if isinstance(elem, Atom):
            names |= {t.name for t in elem.terms if isinstance(t, Variable)}
    return names


def builtin_bound_variables(rule: Rule) -> set[str]:
    """Variables that an assignment-style built-in can bind."""
    names: set[str] = set()
    for elem in rule.body:
        if isinstance(elem, BuiltIn) and elem.op in (ASSIGN_OP, "="):
            if isinstance(elem.left, Variable):
                names.add(elem.left.name)
            if elem.op == "=" and isinstance(elem.right, Variable):
                names.add(elem.right.name)
    return names


def normalize_rule(rule: Rule) -> Rule:
    """Resolve the selection shorthand used by annotation-style rules.

    Rules like ``match-filtered(matching,count):-match("true",count).`` leave
    a head variable unbound while the body atom of the same shape carries a
    selection constant at that position. The shorthand is rewritten into an
    explicit join plus equality: the constant is replaced by the head variable
    and ``var = const`` is appended, which preserves the selection.
    """
    head_vars = [t for t in rule.head.terms if isinstance(t, Variable)]
    bound = body_atom_variables(rule) | builtin_bound_variables(rule)
    unbound = [v for v in head_vars if v.name not in bound]
    if not unbound:
        return rule

    body = list(rule.body)
    changed = False
    for var in unbound:
        position = rule.head.terms.index(var)
        for i, elem in enumerate(body):
            if not isinstance(elem, Atom) or elem.arity != rule.head.arity:
                continue
            arg = elem.terms[position]
            if isinstance(arg, Variable):
                continue
            terms = list(elem.terms)
            terms[position] = var
            body[i] = Atom(elem.predicate, tuple(terms))
            body.append(BuiltIn("=", var, arg))
            changed = True
            break
    if not changed:
        return rule
    return Rule(rule.head, tuple(body))
