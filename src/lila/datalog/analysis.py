"""Static checks on Datalog programs and the rule dependency graph."""

from __future__ import annotations

from ..diagnostics import Diagnostic
from .ast import (
    ASSIGN_OP,
    STRING_OPS,
    Aggregate,
    Arith,
    Atom,
    BuiltIn,
    DatalogProgram,
    Expr,
    Rule,
    Variable,
    expr_variables,
)


def _expr_atoms(expr: Expr) -> list[Atom]:
    if isinstance(expr, Aggregate):
        return [expr.pattern]
    if isinstance(expr, Arith):
        return _expr_atoms(expr.left) + _expr_atoms(expr.right)
    return []


def _all_atoms(program: DatalogProgram) -> list[Atom]:
    # queries first: the first atom of a predicate fixes the arity it is checked against
    atoms: list[Atom] = list(program.queries) + list(program.facts)
    for rule in program.rules:
        atoms.append(rule.head)
        for elem in rule.body:
            if isinstance(elem, Atom):
                atoms.append(elem)
            else:
                atoms += _expr_atoms(elem.left) + _expr_atoms(elem.right)
    return atoms


def _check_arities(program: DatalogProgram) -> list[Diagnostic]:
    diags = []
    seen: dict[str, int] = {}
    for atom in _all_atoms(program):
        known = seen.setdefault(atom.predicate, atom.arity)
        if known != atom.arity:
            diags.append(
                Diagnostic(
                    "error",
                    "arity-conflict",
                    f"predicate '{atom.predicate}' used with arity {atom.arity} and {known}",
                )
            )
    return diags


def _check_rule(rule: Rule) -> list[Diagnostic]:
    diags = []
    if not rule.body:
        diags.append(Diagnostic("error", "empty-body", f"rule {rule} has no body"))
        return diags

    # simulate left-to-right evaluation to find binding problems
    bound: set[str] = set()
    for elem in rule.body:
        if isinstance(elem, Atom):
            bound |= {t.name for t in elem.terms if isinstance(t, Variable)}
            continue
        left_names = expr_variables(elem.left)
        right_names = expr_variables(elem.right)
        if elem.op == ASSIGN_OP or elem.op == "=":
            binder = None
            if isinstance(elem.left, Variable) and elem.left.name not in bound:
                binder = elem.left.name
                needed = right_names
            elif elem.op == "=" and isinstance(elem.right, Variable) and elem.right.name not in bound:
                binder = elem.right.name
                needed = left_names
            else:
                needed = left_names | right_names
            unbound = needed - bound
            if unbound and not any(
                isinstance(e, Aggregate) for e in (elem.left, elem.right)
            ):
                diags.append(
                    Diagnostic(
                        "error",
                        "unbound-builtin",
                        f"variable(s) {sorted(unbound)} unbound in built-in '{elem}' of rule {rule}",
                    )
                )
            if binder:
                bound.add(binder)
        elif elem.op in STRING_OPS or elem.op in ("<", ">", "<=", ">="):
            unbound = (left_names | right_names) - bound
            if unbound:
                diags.append(
                    Diagnostic(
                        "error",
                        "unbound-builtin",
                        f"variable(s) {sorted(unbound)} unbound in built-in '{elem}' of rule {rule}",
                    )
                )

    head_vars = {t.name for t in rule.head.terms if isinstance(t, Variable)}
    unrestricted = head_vars - bound
    for name in sorted(unrestricted):
        diags.append(
            Diagnostic(
                "error",
                "range-restriction",
                f"head variable '{name}' of rule {rule} is not bound by the body",
            )
        )
    return diags


def validate(program: DatalogProgram) -> list[Diagnostic]:
    """Report arity conflicts, range-restriction and built-in binding problems."""
    diags = _check_arities(program)
    for fact in program.facts:
        if not fact.is_ground():
            diags.append(
                Diagnostic("error", "non-ground-fact", f"fact {fact} contains variables")
            )
    for rule in program.rules:
        diags.extend(_check_rule(rule))
    return diags


def rule_dependency_graph(rules: list[Rule] | tuple[Rule, ...]) -> dict[str, set[str]]:
    """Directed graph over predicates: head predicate -> body predicates.

    Cycles (recursion) are permitted; every referenced predicate appears as a
    node key.
    """
    graph: dict[str, set[str]] = {}
    for rule in rules:
        succs = graph.setdefault(rule.head.predicate, set())
        for elem in rule.body:
            if isinstance(elem, Atom):
                succs.add(elem.predicate)
                graph.setdefault(elem.predicate, set())
            elif isinstance(elem, BuiltIn):
                for atom in _expr_atoms(elem.left) + _expr_atoms(elem.right):
                    succs.add(atom.predicate)
                    graph.setdefault(atom.predicate, set())
    return graph
