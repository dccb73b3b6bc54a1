"""LiLa dependency graph: processors, annotation nodes, data-dependency edges.

Processors group all rules producing one predicate; mutually recursive rule
groups are collapsed into a single processor so the node-level graph stays
acyclic (rule-level cycles live inside processors). Enrichers and inline
facts are placed per the language rules: interposed after an existing
producer of their relation, otherwise wired directly before their consumers.
Aggregator and splitter nodes produce their queried relations under the
``-aggregate`` / ``-split`` suffix from the moment they are built, so a
single wiring pass binds downstream consumers to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import networkx as nx

from .diagnostics import Diagnostic
from .datalog.ast import Atom, Rule
from .parser import Annotation, LilaProgram, parse_completion, resolved_exposed
from .patterns import AGGREGATE_SUFFIX, SPLIT_SUFFIX, AggregatorConfig

# predicates readable without a producer (mirrored from the message header)
AMBIENT_PREDICATES = frozenset({"meta"})


class LdgError(Exception):
    pass


class CycleError(LdgError):
    pass


class UnresolvedDependencyError(LdgError):
    pass


class SuffixAmbiguityError(LdgError):
    pass


@dataclass(frozen=True)
class LdgNode:
    id: str
    kind: str  # processor|factSource|routingGoal|enricher|aggregator|splitter|inlineFacts
    produced: frozenset[str]
    consumed: frozenset[str]
    rules: tuple[Rule, ...] = ()
    annotation: Annotation | None = None
    facts: tuple[Atom, ...] = ()

    def label(self) -> str:
        if self.kind == "factSource":
            return f"@from({self.annotation.uri})"
        if self.kind == "routingGoal":
            return f"@to({self.annotation.uri})"
        if self.kind == "enricher":
            return f"@enrich({self.annotation.uri})"
        if self.kind == "aggregator":
            return f"@aggregate({','.join(self.annotation.params)})"
        if self.kind == "splitter":
            return "@split"
        if self.kind == "inlineFacts":
            return f"facts:{','.join(sorted(self.produced))}"
        return ",".join(sorted(self.produced))


@dataclass(frozen=True)
class Ldg:
    nodes: tuple[LdgNode, ...]
    edges: frozenset[tuple[str, str]]
    warnings: tuple[Diagnostic, ...] = field(default=(), compare=False)

    def to_networkx(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        graph.add_nodes_from(n.id for n in self.nodes)
        graph.add_edges_from(self.edges)
        return graph


# --- node construction -----------------------------------------------------------


def _fresh_id(base: str, taken: set[str]) -> str:
    candidate = base
    k = 2
    while candidate in taken:
        candidate = f"{base}#{k}"
        k += 1
    taken.add(candidate)
    return candidate


def _processor_nodes(program: LilaProgram, taken: set[str]) -> list[LdgNode]:
    groups: dict[str, list[Rule]] = {}
    for rule in program.rules:
        groups.setdefault(rule.head.predicate, []).append(rule)
    if not groups:
        return []

    # collapse mutually recursive groups so the node-level graph stays acyclic
    dep = nx.DiGraph()
    dep.add_nodes_from(groups)
    for head, rules in groups.items():
        for rule in rules:
            for elem in rule.body:
                if isinstance(elem, Atom) and elem.predicate in groups:
                    dep.add_edge(head, elem.predicate)

    nodes = []
    for component in nx.strongly_connected_components(dep):
        heads = sorted(component)
        rules = tuple(r for r in program.rules if r.head.predicate in component)
        produced = frozenset(heads)
        consumed = frozenset(
            elem.predicate
            for rule in rules
            for elem in rule.body
            if isinstance(elem, Atom) and elem.predicate not in produced
        )
        nodes.append(
            LdgNode(
                id=_fresh_id("proc:" + "+".join(heads), taken),
                kind="processor",
                produced=produced,
                consumed=consumed,
                rules=rules,
            )
        )
    return nodes


def _annotation_node(
    ann: Annotation, program: LilaProgram, taken: set[str], index: dict[str, int]
) -> LdgNode:
    if ann.name == "from":
        return LdgNode(
            id=_fresh_id(f"from:{ann.uri}", taken),
            kind="factSource",
            produced=frozenset(d.predicate for d in ann.declarations),
            consumed=frozenset(),
            annotation=ann,
        )
    if ann.name == "to":
        return LdgNode(
            id=_fresh_id(f"to:{ann.uri}", taken),
            kind="routingGoal",
            produced=frozenset(),
            consumed=frozenset(resolved_exposed(program, ann)),
            annotation=ann,
        )
    if ann.name == "enrich":
        return LdgNode(
            id=_fresh_id(f"enrich:{ann.uri}", taken),
            kind="enricher",
            produced=frozenset(d.predicate for d in ann.declarations),
            consumed=frozenset(),
            annotation=ann,
        )
    # aggregators and splitters emit their queried relations under a suffix;
    # downstream consumers reference the suffixed names in source
    kind, suffix = (
        ("aggregator", AGGREGATE_SUFFIX) if ann.name == "aggregate" else ("splitter", SPLIT_SUFFIX)
    )
    i = index[ann.name] = index.get(ann.name, 0) + 1
    queried = frozenset(q.predicate for q in ann.queries)
    return LdgNode(
        id=_fresh_id(f"{ann.name}:{i}", taken),
        kind=kind,
        produced=frozenset(p + suffix for p in queried),
        consumed=queried,
        annotation=ann,
    )


def _build_nodes(program: LilaProgram) -> tuple[LdgNode, ...]:
    taken: set[str] = set()
    index: dict[str, int] = {}
    nodes = _processor_nodes(program, taken)
    for ann in program.annotations:
        nodes.append(_annotation_node(ann, program, taken, index))
    facts_by_pred: dict[str, list[Atom]] = {}
    for fact in program.facts:
        facts_by_pred.setdefault(fact.predicate, []).append(fact)
    for pred in sorted(facts_by_pred):
        nodes.append(
            LdgNode(
                id=_fresh_id(f"facts:{pred}", taken),
                kind="inlineFacts",
                produced=frozenset({pred}),
                consumed=frozenset(),
                facts=tuple(facts_by_pred[pred]),
            )
        )
    return tuple(sorted(nodes, key=lambda n: n.id))


# --- wiring ------------------------------------------------------------------------


def _wire(nodes: tuple[LdgNode, ...]):
    """Compute data-dependency edges from produced/consumed sets.

    Enricher and inlineFacts nodes interpose after existing producers of
    their relation (chained deterministically if several), else they act as
    the relation's provider directly.
    """
    by_id = {n.id: n for n in nodes}
    base_producers: dict[str, list[str]] = {}
    interposers: dict[str, list[str]] = {}
    for node in nodes:
        for pred in node.produced:
            bucket = interposers if node.kind in ("enricher", "inlineFacts") else base_producers
            bucket.setdefault(pred, []).append(node.id)

    edges: set[tuple[str, str]] = set()
    provider_of: dict[str, list[str]] = {}
    chain_members: dict[str, set[str]] = {}
    for pred in set(base_producers) | set(interposers):
        base = sorted(base_producers.get(pred, []))
        chain = sorted(interposers.get(pred, []))
        if not chain:
            provider_of[pred] = base
            continue
        chain_members[pred] = set(chain)
        if base:
            for producer in base:
                edges.add((producer, chain[0]))
            by_id[chain[0]] = replace(by_id[chain[0]], consumed=by_id[chain[0]].consumed | {pred})
        for prev, nxt in zip(chain, chain[1:]):
            edges.add((prev, nxt))
            by_id[nxt] = replace(by_id[nxt], consumed=by_id[nxt].consumed | {pred})
        provider_of[pred] = [chain[-1]]

    unresolved: list[str] = []
    for node in nodes:
        for pred in by_id[node.id].consumed:
            if pred in AMBIENT_PREDICATES or node.id in chain_members.get(pred, ()):
                continue
            providers = provider_of.get(pred, [])
            if not providers:
                unresolved.append(f"'{pred}' consumed by {node.id} is never produced")
            for provider in providers:
                if provider != node.id:
                    edges.add((provider, node.id))
    if unresolved:
        raise UnresolvedDependencyError("; ".join(sorted(unresolved)))

    wired = tuple(sorted(by_id.values(), key=lambda n: n.id))
    return wired, frozenset(edges)


def _check_acyclic(nodes: tuple[LdgNode, ...], edges: frozenset[tuple[str, str]]):
    graph = nx.DiGraph()
    graph.add_nodes_from(n.id for n in nodes)
    graph.add_edges_from(edges)
    if nx.is_directed_acyclic_graph(graph):
        return
    cycle = nx.find_cycle(graph)
    path = " -> ".join(src for src, _ in cycle) + f" -> {cycle[0][0]}"
    raise CycleError(f"node-level cycle in dependency graph: {path}")


def _check_suffix_ambiguity(nodes, edges):
    graph = nx.DiGraph()
    graph.add_nodes_from(n.id for n in nodes)
    graph.add_edges_from(edges)
    by_id = {n.id: n for n in nodes}
    for node in nodes:
        if node.kind not in ("aggregator", "splitter"):
            continue
        suffix = AGGREGATE_SUFFIX if node.kind == "aggregator" else SPLIT_SUFFIX
        for descendant in nx.descendants(graph, node.id):
            overlap = by_id[descendant].consumed & node.consumed
            if overlap:
                pred = sorted(overlap)[0]
                raise SuffixAmbiguityError(
                    f"{descendant} lies downstream of {node.id} but references '{pred}'; "
                    f"use '{pred}{suffix}' for the post-{node.kind} relation"
                )


def build_ldg(program: LilaProgram) -> Ldg:
    """Build the dependency graph for a validated program.

    Aggregator and splitter nodes carry their suffixed output names from
    construction, so one wiring pass binds downstream consumers to them.
    Raises CycleError / UnresolvedDependencyError / SuffixAmbiguityError on
    structural problems.
    """
    wired, edges = _wire(_build_nodes(program))
    if any(n.kind in ("aggregator", "splitter") for n in wired):
        _check_suffix_ambiguity(wired, edges)
    _check_acyclic(wired, edges)
    return Ldg(wired, edges)


def prune_unused(ldg: Ldg) -> Ldg:
    """Drop nodes with no path to any routing goal, reporting each removal."""
    graph = ldg.to_networkx()
    keep: set[str] = set()
    for node in ldg.nodes:
        if node.kind == "routingGoal":
            keep.add(node.id)
            keep |= nx.ancestors(graph, node.id)
    removed = [n for n in ldg.nodes if n.id not in keep]
    if not removed:
        return ldg
    warnings = list(ldg.warnings)
    for node in removed:
        warnings.append(
            Diagnostic(
                "warning",
                "unused-node",
                f"{node.id} does not reach any routing goal and was pruned",
            )
        )
    nodes = tuple(n for n in ldg.nodes if n.id in keep)
    edges = frozenset((s, d) for s, d in ldg.edges if s in keep and d in keep)
    return Ldg(nodes, edges, tuple(warnings))


def aggregator_config(node: LdgNode):
    """AggregatorConfig for an aggregator node (annotation params + queries)."""
    if node.annotation.params[0] != "union":
        raise LdgError(f"unsupported aggregation strategy in {node.id}")
    completion = parse_completion(node.annotation.params[1])
    if completion is None:
        raise LdgError(f"invalid completion condition in {node.id}")
    kind, value = completion
    return AggregatorConfig(
        completion_size=value if kind == "size" else None,
        completion_time_ms=value if kind == "time" else None,
        correlation_queries=node.annotation.queries,
    )


def export_ldg_dot(ldg: Ldg) -> str:
    """Deterministic DOT rendering of the dependency graph."""
    ordered = sorted(ldg.nodes, key=lambda n: n.id)
    dot_id = {node.id: f"n{i}" for i, node in enumerate(ordered)}
    lines = ["digraph ldg {"]
    for node in ordered:
        shape = "box" if node.kind == "processor" else "ellipse"
        lines.append(f'  {dot_id[node.id]} [label="{node.label()}", shape={shape}];')
    for src, dst in sorted(ldg.edges):
        lines.append(f"  {dot_id[src]} -> {dot_id[dst]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
