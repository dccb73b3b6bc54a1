"""Independent oracles used by the test suite.

The brute-force Datalog oracle deliberately avoids the library's
unification/evaluation machinery: it enumerates all ground instantiations over
the program's constant domain and checks body membership directly. The naive
evaluator covers built-ins; it takes their semantics from the library but does
its own joins and ``min``/``max``.
"""

from __future__ import annotations

import itertools

from lila.datalog.ast import (
    Aggregate,
    Arith,
    Atom,
    BuiltIn,
    DatalogProgram,
    NumberConst,
    Rule,
    StringConst,
    Term,
    Variable,
)
from lila.datalog.evaluate import EvaluationError, _eval_builtin, _ground_head, _match_atom


def _constants(program: DatalogProgram) -> list[Term]:
    consts: set[Term] = set()
    for fact in program.facts:
        consts |= set(fact.terms)
    for rule in program.rules:
        for atom in (rule.head, *rule.body):
            if isinstance(atom, Atom):
                consts |= {t for t in atom.terms if not isinstance(t, Variable)}
    return sorted(consts, key=str)


def _variables(rule: Rule) -> list[str]:
    names: list[str] = []
    for atom in (rule.head, *rule.body):
        for t in atom.terms:
            if isinstance(t, Variable) and t.name not in names:
                names.append(t.name)
    return names


def _substitute(atom: Atom, binding: dict[str, Term]) -> Atom:
    return Atom(
        atom.predicate,
        tuple(binding[t.name] if isinstance(t, Variable) else t for t in atom.terms),
    )


def brute_force_evaluate(program: DatalogProgram) -> frozenset[Atom]:
    """Ground-instantiation fixpoint for built-in-free positive programs."""
    facts = set(program.facts)
    consts = _constants(program)
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            names = _variables(rule)
            for combo in itertools.product(consts, repeat=len(names)):
                binding = dict(zip(names, combo))
                if all(_substitute(b, binding) in facts for b in rule.body):
                    head = _substitute(rule.head, binding)
                    if head not in facts:
                        facts.add(head)
                        changed = True
    return frozenset(facts)


def nested_loop_join(r: list[tuple], s: list[tuple]) -> set[tuple]:
    """Join r(x, y) with s(y, z) on the shared middle column."""
    return {(x, y, z) for (x, y) in r for (y2, z) in s if y == y2}


def nested_loop_project(r: list[tuple], positions: list[int]) -> set[tuple]:
    return {tuple(row[i] for i in positions) for row in r}


def nested_loop_union(r: list[tuple], s: list[tuple]) -> set[tuple]:
    return set(r) | set(s)


def nested_loop_select(r: list[tuple], position: int, predicate) -> set[tuple]:
    return {row for row in r if predicate(row[position])}


def _resolve_aggregates(expr, subst, by_predicate):
    """``expr`` with each min/max replaced by its value over ``by_predicate``.

    None when a pattern matches no fact, which drops the row.
    """
    if isinstance(expr, Aggregate):
        pattern = expr.pattern
        free = [i for i, t in enumerate(pattern.terms) if isinstance(t, Variable) and t.name not in subst]
        if len(free) != 1:
            raise EvaluationError(f"{expr.func} pattern {pattern} needs exactly one free variable")
        values = [
            fact.terms[free[0]].value
            for fact in by_predicate.get(pattern.predicate, ())
            if _match_atom(pattern, fact, subst) is not None
        ]
        if not values:
            return None
        value = max(values) if expr.func == "max" else min(values)
        return NumberConst(value) if isinstance(value, (int, float)) else StringConst(value)
    if isinstance(expr, Arith):
        left = _resolve_aggregates(expr.left, subst, by_predicate)
        right = _resolve_aggregates(expr.right, subst, by_predicate)
        return None if left is None or right is None else Arith(expr.op, left, right)
    return expr


def _naive_builtin(builtin: BuiltIn, subst, by_predicate, rule: Rule):
    left = _resolve_aggregates(builtin.left, subst, by_predicate)
    right = _resolve_aggregates(builtin.right, subst, by_predicate)
    if left is None or right is None:
        return None
    return _eval_builtin(BuiltIn(builtin.op, left, right), subst, None, rule)


def naive_evaluate(program: DatalogProgram, max_iterations: int = 10_000) -> frozenset[Atom]:
    """Naive fixpoint: every round fires every rule over all facts by nested loops.

    This was the library's evaluator before stratified semi-naive evaluation.
    It takes only the semantics of comparisons, assignments and string
    built-ins from the library; joins and ``min``/``max`` are scans here.
    ``min``/``max`` read the relation of the round, so results agree with
    ``evaluate`` only while aggregates read predicates that no rule derives.
    """
    facts = set(program.facts)
    for _ in range(max_iterations):
        by_predicate: dict[str, list[Atom]] = {}
        for fact in facts:
            by_predicate.setdefault(fact.predicate, []).append(fact)
        new_facts: set[Atom] = set()
        for rule in program.rules:
            substs: list[dict] = [{}]
            for elem in rule.body:
                if isinstance(elem, Atom):
                    substs = [
                        m
                        for s in substs
                        for fact in by_predicate.get(elem.predicate, ())
                        if (m := _match_atom(elem, fact, s)) is not None
                    ]
                else:
                    substs = [
                        m for s in substs if (m := _naive_builtin(elem, s, by_predicate, rule)) is not None
                    ]
            new_facts |= {_ground_head(rule.head, s, rule) for s in substs}
        if new_facts <= facts:
            return frozenset(facts)
        facts |= new_facts
    raise EvaluationError(f"no fixpoint after {max_iterations} iterations")
