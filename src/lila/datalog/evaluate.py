"""Stratified semi-naive bottom-up evaluation of positive Datalog with built-ins.

The rules are split into strata, the strongly connected components of the
predicate dependency graph (aggregate patterns included), and evaluated in
dependency order. A non-recursive stratum fires each rule once. A recursive
stratum fires its rules once over all facts, then runs semi-naive rounds:
each round fires a rule once per body atom of the stratum, reading that atom
from the facts the previous round derived (the delta) and every other atom
from all facts, until a round derives nothing new.

Facts are kept per relation (predicate and arity). Each lookup goes through a
hash index on its bound argument positions, built on first use and extended
as facts arrive. A rule is compiled once into a join plan that keeps the body
order as written; a ``var = constant`` built-in that directly follows the
atoms binding ``var`` also becomes part of that atom's index key (the
built-in still runs). Plans and strata are cached per rule tuple.

``min``/``max`` over a predicate of a lower stratum read its complete
relation, so they yield the final value only. An aggregate over a predicate
of its own stratum sees the relation as it grows: its rule is re-fired in
full every round, and the values it yields on the way are kept, since
positive Datalog retracts nothing. Apart from that case the result is the
least model. The only source of non-termination is arithmetic in assignment
built-ins, which is guarded by an iteration cap counting the rounds of all
strata.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional

import networkx as nx

from .analysis import _expr_atoms, rule_dependency_graph
from .ast import (
    ASSIGN_OP,
    STRING_OPS,
    Aggregate,
    Atom,
    BuiltIn,
    DatalogProgram,
    Expr,
    NumberConst,
    Rule,
    StringConst,
    Term,
    Variable,
)

DEFAULT_MAX_ITERATIONS = 10_000
_PLAN_CACHE_SIZE = 256

Subst = dict[str, Term]
Relation = tuple[str, int]  # predicate, arity


class EvaluationError(Exception):
    pass


class _RowFail(Exception):
    """Internal: the current substitution does not satisfy a built-in."""


class _Store:
    """Facts per relation, with hash indexes on bound argument positions.

    An index maps the bound terms of a fact to the facts that carry them: the
    bare term for one position, a tuple in position order for several.
    """

    __slots__ = ("rows", "indexes")

    def __init__(self, facts: Iterable[Atom]):
        self.rows: dict[Relation, list[Atom]] = {}
        self.indexes: dict[Relation, dict[tuple[int, ...], tuple[Callable, dict]]] = {}
        self.add(facts)

    def add(self, facts: Iterable[Atom]) -> None:
        for fact in facts:
            rel = (fact.predicate, len(fact.terms))
            self.rows.setdefault(rel, []).append(fact)
            indexes = self.indexes.get(rel)
            if indexes:
                for key, index in indexes.values():
                    index.setdefault(key(fact.terms), []).append(fact)

    def index(self, rel: Relation, positions: tuple[int, ...]) -> dict:
        by_positions = self.indexes.get(rel)
        if by_positions is None:
            by_positions = self.indexes[rel] = {}
        entry = by_positions.get(positions)
        if entry is None:
            key = itemgetter(*positions)
            index: dict = {}
            for fact in self.rows.get(rel, ()):
                index.setdefault(key(fact.terms), []).append(fact)
            entry = by_positions[positions] = (key, index)
        return entry[1]

    def lookup(self, rel: Relation, positions: tuple[int, ...], key) -> list[Atom]:
        if not positions:
            return self.rows.get(rel, ())
        return self.index(rel, positions).get(key, ())


def _match_atom(pattern: Atom, fact: Atom, subst: Subst) -> Optional[Subst]:
    if pattern.arity != fact.arity:
        return None
    out = subst
    copied = False
    for p, f in zip(pattern.terms, fact.terms):
        if isinstance(p, Variable):
            bound = out.get(p.name)
            if bound is None:
                if not copied:
                    out = dict(out)
                    copied = True
                out[p.name] = f
            elif bound != f:
                return None
        elif p != f:
            return None
    return out if copied else dict(out)


def _const_value(term: Term):
    if isinstance(term, NumberConst):
        return term.value
    if isinstance(term, StringConst):
        return term.value
    raise EvaluationError(f"expected constant, got variable {term}")


def _to_term(value) -> Term:
    if isinstance(value, (int, float)):
        return NumberConst(value)
    return StringConst(value)


def _int_div(a, b):
    # integer division truncates toward zero (minute sampling relies on it)
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def _eval_aggregate(agg: Aggregate, subst: Subst, store: _Store):
    pattern = agg.pattern
    positions = []
    key = []
    collect_pos = None
    for i, t in enumerate(pattern.terms):
        if isinstance(t, Variable) and t.name not in subst:
            if collect_pos is not None:
                raise EvaluationError(
                    f"{agg.func} pattern {pattern} has more than one free variable"
                )
            collect_pos = i
        else:
            positions.append(i)
            key.append(subst[t.name] if isinstance(t, Variable) else t)
    if collect_pos is None:
        raise EvaluationError(f"{agg.func} pattern {pattern} has no free variable")
    facts = store.lookup(
        (pattern.predicate, len(pattern.terms)),
        tuple(positions),
        key[0] if len(key) == 1 else tuple(key),
    )
    if not facts:
        raise _RowFail()
    values = [_const_value(fact.terms[collect_pos]) for fact in facts]
    return max(values) if agg.func == "max" else min(values)


def _eval_expr(expr: Expr, subst: Subst, store: _Store, rule: Rule):
    if isinstance(expr, Variable):
        bound = subst.get(expr.name)
        if bound is None:
            raise EvaluationError(
                f"unbound variable '{expr.name}' in built-in of rule {rule}"
            )
        return _const_value(bound)
    if isinstance(expr, (NumberConst, StringConst)):
        return _const_value(expr)
    if isinstance(expr, Aggregate):
        return _eval_aggregate(expr, subst, store)
    left = _eval_expr(expr.left, subst, store, rule)
    right = _eval_expr(expr.right, subst, store, rule)
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise EvaluationError(f"non-numeric operand in arithmetic of rule {rule}")
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if right == 0:
        raise EvaluationError(f"division by zero in rule {rule}")
    if isinstance(left, int) and isinstance(right, int):
        return _int_div(left, right)
    return left / right


def _numeric_pair(left, right, op: str, rule: Rule):
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    raise EvaluationError(f"comparison '{op}' requires numeric operands in rule {rule}")


def _eval_builtin(builtin: BuiltIn, subst: Subst, store: _Store, rule: Rule) -> Optional[Subst]:
    op = builtin.op
    try:
        if op in STRING_OPS:
            left = _eval_expr(builtin.left, subst, store, rule)
            right = _eval_expr(builtin.right, subst, store, rule)
            if op == "equals":
                ok = left == right
            else:
                l, r = str(left), str(right)
                ok = {"contains": r in l, "startswith": l.startswith(r), "endswith": l.endswith(r)}[op]
            return subst if ok else None

        if op in ("=", ASSIGN_OP):
            left_var = builtin.left if isinstance(builtin.left, Variable) else None
            right_var = builtin.right if isinstance(builtin.right, Variable) else None
            left_unbound = left_var is not None and left_var.name not in subst
            right_unbound = right_var is not None and right_var.name not in subst
            if op == "=" and right_unbound and not left_unbound:
                value = _eval_expr(builtin.left, subst, store, rule)
                out = dict(subst)
                out[right_var.name] = _to_term(value)
                return out
            if left_unbound:
                value = _eval_expr(builtin.right, subst, store, rule)
                out = dict(subst)
                out[left_var.name] = _to_term(value)
                return out
            # both sides bound (or expressions): comparison semantics
            left = _eval_expr(builtin.left, subst, store, rule)
            right = _eval_expr(builtin.right, subst, store, rule)
            return subst if left == right else None

        left = _eval_expr(builtin.left, subst, store, rule)
        right = _eval_expr(builtin.right, subst, store, rule)
        left, right = _numeric_pair(left, right, op, rule)
        ok = {"<": left < right, ">": left > right, "<=": left <= right, ">=": left >= right}[op]
        return subst if ok else None
    except _RowFail:
        return None


def _ground_head(head: Atom, subst: Subst, rule: Rule) -> Atom:
    terms = []
    for t in head.terms:
        if isinstance(t, Variable):
            bound = subst.get(t.name)
            if bound is None:
                raise EvaluationError(
                    f"head variable '{t.name}' unbound when deriving {head} in rule {rule}"
                )
            terms.append(bound)
        else:
            terms.append(t)
    return Atom(head.predicate, tuple(terms))


# --- compiled plans -----------------------------------------------------------


@dataclass(frozen=True)
class _Join:
    """One body atom: look up its relation on the bound positions, bind the rest."""

    rel: Relation
    positions: tuple[int, ...]
    const_key: object  # the index key when every bound position is a constant
    key: Optional[Callable[[Subst], object]]  # else builds the key from a row
    binds: tuple[tuple[str, int], ...]  # first occurrence of each new variable
    checks: tuple[tuple[int, int], ...]  # later occurrences must equal the first


@dataclass(frozen=True)
class _Plan:
    rule: Rule
    steps: tuple  # _Join or BuiltIn, in body order
    head_terms: Callable[[Subst], tuple[Term, ...]]
    delta_steps: tuple[int, ...]  # indexes of the joins over the rule's own stratum
    refire: bool  # an aggregate reads the rule's own stratum


@dataclass(frozen=True)
class _Stratum:
    plans: tuple[_Plan, ...]
    recursive: bool


def _selections(rule: Rule) -> dict[int, dict[int, Term]]:
    """Constants that ``var = constant`` built-ins select at body atoms.

    A selection is pushed into the atom that first binds ``var`` when only
    atoms stand between them, so no built-in sees a row the lookup now skips.
    """
    first_binder: dict[str, tuple[int, int]] = {}
    pushed: dict[int, dict[int, Term]] = {}
    atoms_only = True
    for i, elem in enumerate(rule.body):
        if isinstance(elem, Atom):
            for pos, t in enumerate(elem.terms):
                if isinstance(t, Variable) and t.name not in first_binder:
                    first_binder[t.name] = (i, pos)
            continue
        if atoms_only and elem.op in ("=", ASSIGN_OP):
            var, const = elem.left, elem.right
            if not isinstance(var, Variable):
                var, const = const, var
            if (
                isinstance(var, Variable)
                and isinstance(const, (NumberConst, StringConst))
                and var.name in first_binder
            ):
                at, pos = first_binder[var.name]
                pushed.setdefault(at, {})[pos] = const
                continue
        atoms_only = False
    return pushed


def _key_builder(parts: list) -> tuple[object, Optional[Callable[[Subst], object]]]:
    """parts: per bound position, a variable name or a constant term."""
    names = [p for p in parts if isinstance(p, str)]
    if not names:
        return (parts[0] if len(parts) == 1 else tuple(parts)), None
    if len(names) == len(parts):
        return None, itemgetter(*names)
    template = tuple((isinstance(p, str), p) for p in parts)
    return None, lambda s: tuple(s[p] if is_var else p for is_var, p in template)


def _terms_builder(terms: tuple[Term, ...]) -> Callable[[Subst], tuple[Term, ...]]:
    """Grounds a head from a row; raises KeyError for an unbound variable."""
    if all(isinstance(t, Variable) for t in terms):
        if len(terms) == 1:
            name = terms[0].name
            return lambda s: (s[name],)
        if terms:
            return itemgetter(*(t.name for t in terms))
    template = tuple((isinstance(t, Variable), t.name if isinstance(t, Variable) else t) for t in terms)
    return lambda s: tuple(s[v] if is_var else v for is_var, v in template)


def _compile_join(atom: Atom, bound: set[str], pushed: dict[int, Term]) -> _Join:
    positions, parts, binds, checks = [], [], [], []
    first: dict[str, int] = {}
    for pos, t in enumerate(atom.terms):
        if isinstance(t, Variable):
            if t.name in bound:
                positions.append(pos)
                parts.append(t.name)
            elif t.name in first:
                checks.append((first[t.name], pos))
            else:
                first[t.name] = pos
                binds.append((t.name, pos))
                if pos in pushed:
                    positions.append(pos)
                    parts.append(pushed[pos])
        else:
            positions.append(pos)
            parts.append(t)
    const_key, key = _key_builder(parts) if parts else (None, None)
    return _Join(
        (atom.predicate, atom.arity), tuple(positions), const_key, key, tuple(binds), tuple(checks)
    )


def _compile_rule(rule: Rule, stratum: frozenset[str]) -> _Plan:
    pushed = _selections(rule)
    bound: set[str] = set()
    steps, delta_steps = [], []
    refire = False
    for i, elem in enumerate(rule.body):
        if isinstance(elem, Atom):
            join = _compile_join(elem, bound, pushed.get(i, {}))
            bound |= {name for name, _ in join.binds}
            if elem.predicate in stratum:
                delta_steps.append(i)
            steps.append(join)
            continue
        steps.append(elem)
        refire |= any(
            a.predicate in stratum for a in _expr_atoms(elem.left) + _expr_atoms(elem.right)
        )
        # mirrors the binding rules of _eval_builtin
        if elem.op in ("=", ASSIGN_OP):
            if isinstance(elem.left, Variable) and elem.left.name not in bound:
                bound.add(elem.left.name)
            elif elem.op == "=" and isinstance(elem.right, Variable):
                bound.add(elem.right.name)
    return _Plan(rule, tuple(steps), _terms_builder(rule.head.terms), tuple(delta_steps), refire)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _compile(rules: tuple[Rule, ...]) -> tuple[_Stratum, ...]:
    """Strata in dependency order, each with the join plans of its rules.

    Plans carry their rules' constants, so the cache relies on ``Rule``
    equality telling ``2`` from ``2.0``. Concurrent callers share the
    cache; plans are immutable, so two callers that miss at once just
    compile the same plans twice.
    """
    graph = nx.DiGraph()
    for head, body in sorted(rule_dependency_graph(rules).items()):
        graph.add_node(head)
        graph.add_edges_from((head, pred) for pred in sorted(body))
    condensed = nx.condensation(graph)
    strata = []
    for component in reversed(list(nx.topological_sort(condensed))):
        members = frozenset(condensed.nodes[component]["members"])
        plans = tuple(_compile_rule(r, members) for r in rules if r.head.predicate in members)
        if not plans:
            continue
        recursive = len(members) > 1 or any(graph.has_edge(p, p) for p in members)
        strata.append(_Stratum(plans, recursive))
    return tuple(strata)


# --- execution ----------------------------------------------------------------


def _join(step: _Join, rows: list[Subst], store: _Store) -> list[Subst]:
    key = step.key
    if key is None:
        matches = store.lookup(step.rel, step.positions, step.const_key)
        if not matches:
            return []
    else:
        index = store.index(step.rel, step.positions)
    binds, checks = step.binds, step.checks
    out = []
    for s in rows:
        for fact in matches if key is None else index.get(key(s), ()):
            terms = fact.terms
            if checks and any(terms[a] != terms[b] for a, b in checks):
                continue
            if binds:
                row = dict(s)
                for name, pos in binds:
                    row[name] = terms[pos]
                out.append(row)
            else:
                out.append(s)
    return out


def _fire(plan: _Plan, store: _Store, delta: Optional[_Store] = None, at: int = -1) -> list[Atom]:
    rows: list[Subst] = [{}]
    rule = plan.rule
    for i, step in enumerate(plan.steps):
        if type(step) is _Join:
            rows = _join(step, rows, delta if i == at else store)
        else:
            rows = [s2 for s in rows if (s2 := _eval_builtin(step, s, store, rule)) is not None]
        if not rows:
            return rows
    head = rule.head
    try:
        return [Atom(head.predicate, plan.head_terms(s)) for s in rows]
    except KeyError:
        for s in rows:
            _ground_head(head, s, rule)  # raises for the unbound head variable
        raise


def evaluate(
    program: DatalogProgram, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> frozenset[Atom]:
    """Compute the fixpoint stratum by stratum and return the full fact set (EDB and IDB)."""
    facts = set(program.facts)
    if not program.rules:
        return frozenset(facts)
    store = _Store(facts)
    iterations = 0
    last_productive: Rule | None = None
    strata = _compile(tuple(program.rules))
    for stratum in strata:
        delta = None  # the first round fires every rule over all facts
        while True:
            iterations += 1
            if iterations > max_iterations:
                raise EvaluationError(
                    f"evaluation did not reach a fixpoint after {max_iterations} iterations; "
                    f"last productive rule: {last_productive}"
                )
            new_facts: set[Atom] = set()
            for plan in stratum.plans:
                if delta is None or plan.refire:
                    derived = _fire(plan, store)
                else:
                    derived = [f for at in plan.delta_steps for f in _fire(plan, store, delta, at)]
                fresh = {f for f in derived if f not in facts}
                if fresh:
                    new_facts |= fresh
                    last_productive = plan.rule
            facts |= new_facts
            again = stratum.recursive and new_facts
            if again or stratum is not strata[-1]:  # else no lookup reads them
                store.add(new_facts)
            if not again:
                break
            delta = _Store(new_facts)
    return frozenset(facts)


def query(
    program: DatalogProgram, goal: Atom, max_iterations: int = DEFAULT_MAX_ITERATIONS
) -> frozenset[Atom]:
    """Evaluate the program and return the facts unifying with ``goal``."""
    return answers(evaluate(program, max_iterations), goal)


def answers(facts: frozenset[Atom], goal: Atom) -> frozenset[Atom]:
    """The facts unifying with ``goal``.

    Constants in the goal select; variables project (repeated variables must
    match equal values).
    """
    return frozenset(
        f
        for f in facts
        if f.predicate == goal.predicate and _match_atom(goal, f, {}) is not None
    )
