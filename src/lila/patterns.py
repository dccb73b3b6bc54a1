"""Integration patterns whose content functions are evaluated as Datalog (ILP).

Each operation takes CDM messages and pattern configuration (queries,
rules, completion conditions) and delegates the content decision to Datalog
evaluation. These are the functions the runtime's route-graph nodes call,
one per semantic: ``mt_ilp`` (content filter, translator), ``sc_ilp``
(splitter), ``crc_ilp``/``cpc_ilp``/``as_ilp`` (aggregator correlation,
completion and strategy), ``merge_messages`` (join aggregator) and
``ep_ilp`` (enricher). Every operation is pure; aggregator
collections live in the runtime. The drop-empty message filter is a
predicate check in the runtime's ``messageFilter`` node.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .cdm import Message, MessageHeader, MetaFact, merge_meta
from .datalog.ast import (
    Aggregate,
    Arith,
    Atom,
    BuiltIn,
    DatalogProgram,
    Rule,
    Variable,
)
from .datalog.evaluate import answers, evaluate

logger = logging.getLogger(__name__)

AGGREGATE_SUFFIX = "-aggregate"
SPLIT_SUFFIX = "-split"


class PatternConfigError(Exception):
    pass


class AggregationError(Exception):
    pass


class EnrichmentError(Exception):
    pass


@dataclass(frozen=True)
class AggregatorConfig:
    completion_size: int | None = None
    completion_time_ms: int | None = None
    correlation_queries: tuple[Atom, ...] = ()

    def __post_init__(self):
        size_set = self.completion_size is not None
        time_set = self.completion_time_ms is not None
        if size_set == time_set:
            raise PatternConfigError("exactly one completion condition must be set")
        if size_set and self.completion_size < 1:
            raise PatternConfigError("completionSize must be >= 1")
        if time_set and self.completion_time_ms <= 0:
            raise PatternConfigError("completionTime must be > 0")


@dataclass(frozen=True)
class SplitConfig:
    split_queries: tuple[Atom, ...]

    def __post_init__(self):
        if not self.split_queries:
            raise PatternConfigError("splitter needs at least one query")


@dataclass(frozen=True)
class EnrichData:
    program: DatalogProgram
    meta_facts: frozenset[MetaFact] = frozenset()


def _references_meta(rules: tuple[Rule, ...], goals: tuple[Atom, ...]) -> bool:
    for goal in goals:
        if goal.predicate == "meta":
            return True
    for rule in rules:
        for elem in rule.body:
            if isinstance(elem, Atom) and elem.predicate == "meta":
                return True
    return False


def _eval_program(message: Message, rules: tuple[Rule, ...], goals: tuple[Atom, ...]) -> DatalogProgram:
    """Body plus condition rules; meta-facts are mirrored into the body only
    when a rule or goal references the ``meta`` predicate."""
    facts = set(message.body.facts)
    if _references_meta(message.body.rules + rules, goals):
        facts |= {m.as_atom() for m in message.header.meta_facts}
    return DatalogProgram(frozenset(facts), message.body.rules + rules)


def _rename_expr(expr, suffix: str):
    if isinstance(expr, Aggregate):
        pattern = Atom(expr.pattern.predicate + suffix, expr.pattern.terms)
        return Aggregate(expr.func, pattern)
    if isinstance(expr, Arith):
        return Arith(expr.op, _rename_expr(expr.left, suffix), _rename_expr(expr.right, suffix))
    return expr


def rename_predicates(message: Message, suffix: str) -> Message:
    """Rename every body predicate (and its meta-facts) with the suffix.

    Supporting rules are rewritten through: heads, body atoms and predicate
    references inside min/max built-ins all move to the suffixed names.
    """
    facts = frozenset(Atom(a.predicate + suffix, a.terms) for a in message.body.facts)

    def rename_element(elem):
        if isinstance(elem, Atom):
            return Atom(elem.predicate + suffix, elem.terms)
        return BuiltIn(elem.op, _rename_expr(elem.left, suffix), _rename_expr(elem.right, suffix))

    rules = tuple(
        Rule(
            Atom(r.head.predicate + suffix, r.head.terms),
            tuple(rename_element(b) for b in r.body),
        )
        for r in message.body.rules
    )
    meta = frozenset(
        MetaFact(m.predicate + suffix, m.parameter_name, m.position)
        for m in message.header.meta_facts
    )
    return Message(
        MessageHeader(meta, message.header.properties),
        DatalogProgram(facts, rules),
    )


def _goal_answers(message: Message, goals: tuple[Atom, ...]) -> list[frozenset[Atom]]:
    """Each goal's answers, from one evaluation of the message over all goals."""
    facts = evaluate(_eval_program(message, (), goals))
    return [answers(facts, goal) for goal in goals]


def sc_ilp(message: Message, split: SplitConfig) -> list[Message]:
    """Split condition: each query with a non-empty result leaves as a single
    message with the ``-split`` suffix applied; header properties are copied
    to every part."""
    out = []
    for result in _goal_answers(message, split.split_queries):
        if not result:
            continue
        predicates = {a.predicate for a in result}
        meta = frozenset(m for m in message.header.meta_facts if m.predicate in predicates)
        part = Message(MessageHeader(meta, message.header.properties), DatalogProgram(result))
        out.append(rename_predicates(part, SPLIT_SUFFIX))
    return out


def crc_ilp(message: Message, cfg: AggregatorConfig) -> tuple[bool, ...]:
    """Correlation key: boolean vector of per-query non-emptiness."""
    return tuple(bool(result) for result in _goal_answers(message, cfg.correlation_queries))


def cpc_ilp(collection: list[Message], cfg: AggregatorConfig, elapsed_ms: int) -> bool:
    """Completion condition over a collection: size reached or time elapsed."""
    if cfg.completion_size is not None:
        return len(collection) >= cfg.completion_size
    return elapsed_ms >= cfg.completion_time_ms


def merge_messages(collection: list[Message]) -> Message:
    """Union of bodies and meta-facts; properties merge first-writer-wins."""
    if not collection:
        raise AggregationError("cannot aggregate an empty collection")
    facts: set[Atom] = set()
    rules: list[Rule] = []
    meta: frozenset[MetaFact] = frozenset()
    properties: dict[str, str] = {}
    for msg in collection:
        facts |= msg.body.facts
        for rule in msg.body.rules:
            if rule not in rules:
                rules.append(rule)
        try:
            meta = merge_meta(meta, msg.header.meta_facts, "aggregation")
        except Exception as exc:
            raise AggregationError(str(exc)) from exc
        for key, value in msg.header.properties:
            if key in properties and properties[key] != value:
                logger.warning(
                    "property %r conflicts during aggregation (%r vs %r); keeping first",
                    key, properties[key], value,
                )
                continue
            properties.setdefault(key, value)
    return Message(
        MessageHeader(meta, tuple(properties.items())),
        DatalogProgram(frozenset(facts), tuple(rules)),
    )


def as_ilp(collection: list[Message]) -> Message:
    """Aggregation strategy: union of all bodies, predicates suffixed
    ``-aggregate`` so downstream rules can tell pre from post aggregation."""
    return rename_predicates(merge_messages(collection), AGGREGATE_SUFFIX)


def _head_meta(rules: tuple[Rule, ...], exposed: list[str]) -> frozenset[MetaFact]:
    # parameter names come from the head variables of the mapping rules
    meta = set()
    seen = set()
    for rule in rules:
        if rule.head.predicate not in exposed or rule.head.predicate in seen:
            continue
        seen.add(rule.head.predicate)
        for i, term in enumerate(rule.head.terms):
            name = term.name if isinstance(term, Variable) else f"arg{i + 1}"
            meta.add(MetaFact(rule.head.predicate, name, i + 1))
    return frozenset(meta)


def mt_ilp(message: Message, mapping: tuple[Rule, ...], exposed: list[str]) -> Message:
    """Message translator / content filter: evaluate the mapping over the body
    and keep only the exposed predicates; the result may be empty."""
    program = _eval_program(message, mapping, ())
    derived = evaluate(program)
    exposed_set = set(exposed)
    facts = frozenset(a for a in derived if a.predicate in exposed_set)
    head_meta = _head_meta(mapping, exposed)
    mapped = {m.predicate for m in head_meta}
    carried = frozenset(
        m
        for m in message.header.meta_facts
        if m.predicate in exposed_set and m.predicate not in mapped
    )
    return Message(
        MessageHeader(head_meta | carried, message.header.properties),
        DatalogProgram(facts),
    )


def ep_ilp(message: Message, data: EnrichData) -> Message:
    """Content enricher: union the enrichment program into the message body."""
    try:
        meta = merge_meta(message.header.meta_facts, data.meta_facts, "enrichment")
    except Exception as exc:
        raise EnrichmentError(str(exc)) from exc
    rules = message.body.rules + tuple(
        r for r in data.program.rules if r not in message.body.rules
    )
    return Message(
        MessageHeader(meta, message.header.properties),
        DatalogProgram(message.body.facts | data.program.facts, rules),
    )
