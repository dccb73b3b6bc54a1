"""Rule-based pattern detection on the LDG and transformation to the Route Graph.

``synthesize_routes`` is the one path from a dependency graph to a route
graph. Its builder detects each pattern site on the LDG and rewrites it in
place, in this order:

  1. enricher expansion: every ``@enrich`` becomes its own route headed by a
     direct channel; each consumer gets an enricher-call node that invokes
     that route request/reply and takes its reply, the consumer's message
     with the resource's facts added. Inline fact nodes become local
     enricher calls without a route.
  2. join router: nodes still fed by more than one channel get a from-direct
     plus a join aggregator that unions its inputs (completionSize = in-degree).
  3. multicast: nodes feeding more than one channel get a multicast node
     referencing the successors' direct channels; successors become routes.

Remaining linear chains are concatenated into routes. The route graph stores
only its routes: pipeline edges and channel links are derived from them.
Cross-route data flow happens only on to-direct/from-direct pairs; multicast
targets and enricher calls reference channels through their configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import networkx as nx

from .cdm import RelationDecl
from .datalog.ast import Atom, Rule
from .diagnostics import Diagnostic
from .ldg import Ldg, LdgNode, aggregator_config

ENTRY_KINDS = ("fromEndpoint", "fromDirect")


class SynthesisError(Exception):
    pass


@dataclass(frozen=True)
class PatternConfig:
    """ILP content carried from detection to execution; fields used per kind."""

    uri: str = ""
    format: str = ""
    direction: str = ""  # formatConverter: "in" | "out"
    relations: tuple[RelationDecl, ...] = ()
    exposed: tuple[str, ...] = ()
    rules: tuple[Rule, ...] = ()
    channel: str = ""  # fromDirect/toDirect/enricherCall target
    targets: tuple[str, ...] = ()  # multicast recipient list
    completion_size: int | None = None
    completion_time_ms: int | None = None
    correlation: str = ""  # joinAggregator: "trace"; aggregator: "queries"
    queries: tuple[Atom, ...] = ()
    facts: tuple[Atom, ...] = ()


@dataclass(frozen=True)
class RgNode:
    id: str
    kind: str
    route_id: str
    config: PatternConfig

    def label(self) -> str:
        cfg = self.config
        if self.kind == "fromEndpoint":
            return f"from({cfg.uri})"
        if self.kind == "toEndpoint":
            return f"to({cfg.uri})"
        if self.kind == "fromDirect":
            return f"from({cfg.channel})"
        if self.kind == "toDirect":
            return f"to({cfg.channel})"
        if self.kind == "multicast":
            return f"multicast({','.join(cfg.targets)})"
        if self.kind == "joinAggregator":
            return f"join-aggregate(size={cfg.completion_size},union)"
        if self.kind == "aggregator":
            completion = (
                f"completionSize={cfg.completion_size}"
                if cfg.completion_size is not None
                else f"completionTime={cfg.completion_time_ms}ms"
            )
            return f"aggregate(union,{completion})"
        if self.kind == "splitter":
            return f"split({','.join(q.predicate for q in cfg.queries)})"
        if self.kind == "contentFilter":
            return f"filter[{','.join(cfg.exposed)}]"
        if self.kind == "translator":
            return f"translate[{','.join(cfg.exposed)}]"
        if self.kind == "messageFilter":
            return f"drop-empty[{','.join(cfg.exposed)}]"
        if self.kind == "formatConverter":
            src, dst = (cfg.format, "datalog") if cfg.direction == "in" else ("datalog", cfg.format)
            return f"convert({src}->{dst})"
        if self.kind == "enricherCall":
            target = cfg.channel or cfg.uri or "facts:" + ",".join(
                sorted({f.predicate for f in cfg.facts})
            )
            return f"enrich({target})"
        return self.kind

    def referenced_channels(self) -> tuple[str, ...]:
        """Direct channels this node sends to, reads from or calls."""
        if self.kind in ("toDirect", "fromDirect"):
            return (self.config.channel,)
        if self.kind == "multicast":
            return self.config.targets
        if self.kind == "enricherCall" and self.config.channel:
            return (self.config.channel,)
        return ()


@dataclass(frozen=True)
class Route:
    id: str
    nodes: tuple[RgNode, ...]

    @property
    def entry(self) -> RgNode:
        return self.nodes[0]


@dataclass(frozen=True)
class RouteGraph:
    """Routes of pipeline-connected nodes; edges and links derive from them.

    ``edges`` are the in-route pipeline connections: each pair of
    consecutive nodes of a route. ``links`` carry the message flow between
    routes: each to-direct node is linked to the from-direct entry of the
    route consuming its channel. Multicast targets and enricher calls
    reference channels through their node configuration.
    """

    routes: tuple[Route, ...]
    warnings: tuple[Diagnostic, ...] = field(default=(), compare=False)

    @property
    def nodes(self) -> tuple[RgNode, ...]:
        return tuple(n for r in self.routes for n in r.nodes)

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            (a.id, b.id) for r in self.routes for a, b in zip(r.nodes, r.nodes[1:])
        )

    @property
    def links(self) -> frozenset[tuple[str, str]]:
        entries = self._entries()
        return frozenset(
            (n.id, entries[n.config.channel].id) for n in self.nodes if n.kind == "toDirect"
        )

    def _entries(self) -> dict[str, RgNode]:
        """Direct channel name -> the from-direct entry consuming it."""
        return {
            r.entry.config.channel: r.entry for r in self.routes if r.entry.kind == "fromDirect"
        }

    def channels(self) -> dict[str, str]:
        """Direct channel name -> id of the consuming route."""
        return {channel: entry.route_id for channel, entry in self._entries().items()}

    def nodes_of_kind(self, kind: str) -> list[RgNode]:
        return [n for n in self.nodes if n.kind == kind]

    def channel_references(self) -> list[tuple[str, str]]:
        """All cross-route flows: direct links plus multicast/enrich targets."""
        entries = self._entries()
        return sorted(
            (node.id, entries[channel].id)
            for node in self.nodes
            if node.kind != "fromDirect"
            for channel in node.referenced_channels()
        )


# --- fragment construction -----------------------------------------------------------


class _Proto(NamedTuple):
    """Route-graph node before id/route assignment."""

    kind: str
    config: PatternConfig


def _channel_base(node: LdgNode) -> str:
    preds = node.produced or node.consumed
    return "direct:" + (sorted(preds)[0] if preds else node.id)


def _join_fragment(channel: str, in_degree: int, correlation: str) -> list[_Proto]:
    return [
        _Proto("fromDirect", PatternConfig(channel=channel)),
        _Proto(
            "joinAggregator", PatternConfig(completion_size=in_degree, correlation=correlation)
        ),
    ]


# --- the builder ----------------------------------------------------------------------


class _Builder:
    def __init__(self, ldg: Ldg, site_order=sorted):
        self.site_order = site_order  # match-site processing order (confluence tests)
        self.ldg = ldg
        self.nodes: dict[str, LdgNode] = {n.id: n for n in ldg.nodes}
        self.edges: set[tuple[str, str]] = set(ldg.edges)
        self.segments: dict[str, list[_Proto]] = {
            n.id: self._segment_for(n) for n in ldg.nodes if n.kind not in ("enricher", "inlineFacts")
        }
        self.heads: dict[str, str] = {}  # graph node id -> channel
        self.taken_channels: set[str] = set()
        self.extra_routes: list[tuple[str, list[_Proto]]] = []  # enricher routes
        self.covered: set[tuple[str, str]] = set()  # edges realized by multicast
        self.warnings: list[Diagnostic] = list(ldg.warnings)

    # -- segments --

    def _segment_for(self, node: LdgNode) -> list[_Proto]:
        if node.kind == "factSource":
            ann = node.annotation
            fmt = ann.format()
            seg = [
                _Proto(
                    "fromEndpoint",
                    PatternConfig(uri=ann.uri, format=fmt, relations=ann.declarations),
                )
            ]
            if fmt != "datalog":
                seg.append(
                    _Proto(
                        "formatConverter",
                        PatternConfig(format=fmt, direction="in", relations=ann.declarations),
                    )
                )
            return seg
        if node.kind == "routingGoal":
            ann = node.annotation
            fmt = ann.format()
            exposed = tuple(sorted(node.consumed))
            seg = [_Proto("messageFilter", PatternConfig(exposed=exposed))]
            if fmt != "datalog":
                seg.append(
                    _Proto(
                        "formatConverter",
                        PatternConfig(format=fmt, direction="out", exposed=exposed),
                    )
                )
            seg.append(_Proto("toEndpoint", PatternConfig(uri=ann.uri, format=fmt, exposed=exposed)))
            return seg
        if node.kind == "processor":
            body_preds = {
                elem.predicate
                for rule in node.rules
                for elem in rule.body
                if isinstance(elem, Atom)
            }
            kind = "translator" if len(body_preds) > 1 else "contentFilter"
            return [
                _Proto(kind, PatternConfig(rules=node.rules, exposed=tuple(sorted(node.produced))))
            ]
        if node.kind == "aggregator":
            cfg = aggregator_config(node)
            return [
                _Proto(
                    "aggregator",
                    PatternConfig(
                        completion_size=cfg.completion_size,
                        completion_time_ms=cfg.completion_time_ms,
                        queries=node.annotation.queries,
                        correlation="queries",
                    ),
                ),
            ]
        if node.kind == "splitter":
            return [_Proto("splitter", PatternConfig(queries=node.annotation.queries))]
        raise SynthesisError(f"no segment for node kind {node.kind}")

    # -- channels --

    def _alloc_channel(self, base: str) -> str:
        name = base
        k = 2
        while name in self.taken_channels:
            name = f"{base}-{k}"
            k += 1
        self.taken_channels.add(name)
        return name

    def _make_head(self, node_id: str) -> str:
        if node_id in self.heads:
            return self.heads[node_id]
        channel = self._alloc_channel(_channel_base(self.nodes[node_id]))
        self.heads[node_id] = channel
        return channel

    # -- pass 0: enrichers and inline facts --

    def expand_enrichers(self) -> None:
        special = self.site_order(
            n.id for n in self.ldg.nodes if n.kind in ("enricher", "inlineFacts")
        )
        for node_id in special:
            node = self.nodes[node_id]
            preds = sorted(src for src, dst in self.edges if dst == node_id)
            succs = sorted(dst for src, dst in self.edges if src == node_id)
            if not succs:
                self.warnings.append(
                    Diagnostic(
                        "warning", "enricher-unused",
                        f"{node_id} has no consumers; its route is pruned",
                    )
                )
                self._remove_node(node_id)
                continue

            if node.kind == "enricher":
                ann = node.annotation
                channel = self._alloc_channel(_channel_base(node))
                reader = _Proto(
                    "enricherCall",
                    PatternConfig(uri=ann.uri, format=ann.format(), relations=ann.declarations),
                )
                self.extra_routes.append(
                    (channel, [_Proto("fromDirect", PatternConfig(channel=channel)), reader])
                )
                call_config = PatternConfig(channel=channel)
            else:
                call_config = PatternConfig(facts=node.facts)

            if preds:
                # relation produced elsewhere: enrich directly after the producer
                for p in preds:
                    self.segments[p].append(_Proto("enricherCall", call_config))
                for p in preds:
                    for s in succs:
                        self.edges.add((p, s))
            else:
                # no producer: enrich directly before each consumer
                for s in succs:
                    self.segments[s].insert(0, _Proto("enricherCall", call_config))
            self._remove_node(node_id)

    def _remove_node(self, node_id: str) -> None:
        self.nodes.pop(node_id)
        self.segments.pop(node_id, None)
        self.edges = {(s, d) for s, d in self.edges if s != node_id and d != node_id}

    # -- pass 1: join router --

    def _root_sources(self) -> dict[str, frozenset[str]]:
        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges)
        roots: dict[str, frozenset[str]] = {}
        for node_id, node in self.nodes.items():
            if node.kind == "factSource":
                roots[node_id] = frozenset({node_id})
        for node_id in nx.topological_sort(graph):
            if node_id in roots:
                continue
            merged: set[str] = set()
            for pred in graph.predecessors(node_id):
                merged |= roots.get(pred, frozenset())
            roots[node_id] = frozenset(merged)
        return roots

    def insert_join_routers(self) -> None:
        """Insert from-direct + join aggregator at every multi-channel node.

        Branches fanned out from the same sources re-join per source payload
        (trace correlation); joins across distinct sources pair messages by
        arrival, the plain completion-size join.
        """
        in_edges: dict[str, list[str]] = {}
        for src, dst in self.edges:
            in_edges.setdefault(dst, []).append(src)
        roots = self._root_sources()
        for node_id in self.site_order(n for n, preds in in_edges.items() if len(preds) > 1):
            preds = in_edges[node_id]
            branch_roots = {roots.get(p, frozenset()) for p in preds}
            correlation = "trace" if len(branch_roots) == 1 else "arrival"
            channel = self._make_head(node_id)
            fragment = _join_fragment(channel, len(preds), correlation)
            self.segments[node_id] = fragment + self.segments[node_id]

    # -- pass 2: multicast --

    def insert_multicasts(self) -> None:
        out: dict[str, list[str]] = {}
        for src, dst in self.edges:
            out.setdefault(src, []).append(dst)
        for node_id in self.site_order(n for n, succs in out.items() if len(succs) > 1):
            succs = sorted(out[node_id])
            for succ in succs:
                if succ not in self.heads:
                    channel = self._make_head(succ)
                    self.segments[succ].insert(
                        0, _Proto("fromDirect", PatternConfig(channel=channel))
                    )
            targets = tuple(sorted(self.heads[s] for s in succs))
            self.segments[node_id].append(_Proto("multicast", PatternConfig(targets=targets)))
            self.covered |= {(node_id, s) for s in succs}

    # -- edge resolution and assembly --

    def resolve_edges(self) -> tuple[dict[str, str], dict[str, str]]:
        chain_next: dict[str, str] = {}
        chain_prev: dict[str, str] = {}
        for src, dst in sorted(self.edges - self.covered):
            if dst in self.heads:
                self.segments[src].append(
                    _Proto("toDirect", PatternConfig(channel=self.heads[dst]))
                )
            else:
                if src in chain_next or dst in chain_prev:
                    raise SynthesisError(
                        f"internal: ambiguous chaining at {src} -> {dst}"
                    )
                chain_next[src] = dst
                chain_prev[dst] = src
        return chain_next, chain_prev

    def assemble(self) -> RouteGraph:
        # join sites were prefixed with fromDirect before multicast targets,
        # so every segment starts a route iff it begins with an entry node
        chain_next, chain_prev = self.resolve_edges()

        roots = []
        for node_id, segment in self.segments.items():
            if node_id in chain_prev:
                continue
            if not segment:
                raise SynthesisError(f"internal: empty segment for {node_id}")
            entry_kind = segment[0].kind
            if entry_kind not in ENTRY_KINDS:
                raise SynthesisError(
                    f"route starting at {node_id} has no consumer entry ({entry_kind})"
                )
            roots.append(node_id)

        ordered_routes: list[tuple[tuple, list[_Proto]]] = []
        for root in roots:
            protos: list[_Proto] = []
            walk: str | None = root
            while walk is not None:
                protos.extend(self.segments[walk])
                walk = chain_next.get(walk)
            head = protos[0]
            if head.kind == "fromEndpoint":
                key = (0, self.nodes[root].annotation.pos.line, head.config.uri)
            else:
                key = (1, 0, head.config.channel)
            ordered_routes.append((key, protos))
        for channel, protos in self.extra_routes:
            ordered_routes.append(((1, 0, channel), protos))
        ordered_routes.sort(key=lambda item: item[0])

        routes = []
        for r_index, (_, protos) in enumerate(ordered_routes, start=1):
            route_id = f"r{r_index}"
            nodes = tuple(
                RgNode(f"{route_id}n{n_index}", proto.kind, route_id, proto.config)
                for n_index, proto in enumerate(protos)
            )
            routes.append(Route(route_id, nodes))
        return RouteGraph(tuple(routes), tuple(self.warnings))


def synthesize_routes(ldg: Ldg) -> RouteGraph:
    """Transform a dependency graph into an executable route graph."""
    builder = _Builder(ldg)
    builder.expand_enrichers()
    builder.insert_join_routers()
    builder.insert_multicasts()
    rg = builder.assemble()
    check_route_graph(rg)
    return rg


# --- invariants -------------------------------------------------------------------------


def check_channels(rg: RouteGraph) -> None:
    """Every direct channel a node references has a consuming route."""
    channels = rg.channels()
    for node in rg.nodes:
        for channel in node.referenced_channels():
            if channel not in channels:
                raise SynthesisError(f"{node.id} references undeclared channel {channel!r}")


def check_route_graph(rg: RouteGraph) -> None:
    """Invariants a graph assembled from routes can break; a violation means
    a synthesis bug. Pipeline degrees, route membership of edges and the
    to-direct/from-direct pairing of links hold by construction."""
    check_channels(rg)
    # the full message flow (pipeline, direct links, channel references) is acyclic
    graph = nx.DiGraph()
    graph.add_nodes_from(n.id for n in rg.nodes)
    graph.add_edges_from(rg.edges)
    graph.add_edges_from(rg.channel_references())
    if not nx.is_directed_acyclic_graph(graph):
        raise SynthesisError("route graph contains a cycle")


# --- exports ---------------------------------------------------------------------------


def export_rg_dot(rg: RouteGraph) -> str:
    """Deterministic DOT: routes as clusters, channel references dashed."""
    lines = ["digraph rg {", "  rankdir=LR;"]
    for route in rg.routes:
        lines.append(f"  subgraph cluster_{route.id} {{")
        lines.append(f'    label="{route.id}";')
        for node in route.nodes:
            lines.append(f'    {node.id} [label="{node.label()}", shape=box];')
        lines.append("  }")
    for src, dst in sorted(rg.edges):
        lines.append(f"  {src} -> {dst};")
    for src, dst in rg.channel_references():
        lines.append(f"  {src} -> {dst} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _config_json(cfg: PatternConfig) -> dict:
    out = {}
    for key, value in (
        ("uri", cfg.uri),
        ("format", cfg.format),
        ("direction", cfg.direction),
        ("channel", cfg.channel),
        ("correlation", cfg.correlation),
    ):
        if value:
            out[key] = value
    if cfg.relations:
        out["relations"] = [str(d) for d in cfg.relations]
    if cfg.exposed:
        out["exposed"] = list(cfg.exposed)
    if cfg.rules:
        out["rules"] = [str(r) for r in cfg.rules]
    if cfg.targets:
        out["targets"] = list(cfg.targets)
    if cfg.queries:
        out["queries"] = [str(q) for q in cfg.queries]
    if cfg.facts:
        out["facts"] = [f"{a}." for a in cfg.facts]
    if cfg.completion_size is not None:
        out["completionSize"] = cfg.completion_size
    if cfg.completion_time_ms is not None:
        out["completionTimeMs"] = cfg.completion_time_ms
    return out


def rg_to_json(rg: RouteGraph) -> str:
    """Deterministic JSON document: node list, edge list, route partition."""
    doc = {
        "routes": [
            {"id": r.id, "nodes": [n.id for n in r.nodes]} for r in rg.routes
        ],
        "nodes": [
            {"id": n.id, "kind": n.kind, "route": n.route_id, "config": _config_json(n.config)}
            for n in rg.nodes
        ],
        "edges": sorted([src, dst] for src, dst in rg.edges),
        "links": sorted([src, dst] for src, dst in rg.links),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
