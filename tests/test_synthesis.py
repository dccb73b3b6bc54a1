"""Pattern detection, LDG-to-RG transformation, route structure, exports."""

from __future__ import annotations

import dataclasses
import json

import networkx as nx
import pytest

from lila.ldg import build_ldg, prune_unused
from lila.parser import parse
from lila.synthesis import (
    PatternConfig,
    RgNode,
    Route,
    RouteGraph,
    SynthesisError,
    check_route_graph,
    export_rg_dot,
    rg_to_json,
    synthesize_routes,
)

from .conftest import CORPUS, GOLDENS, SYNTHETIC, read_corpus


def rg_for(source: str) -> RouteGraph:
    return synthesize_routes(prune_unused(build_ldg(parse(source))))


def route_kinds(rg: RouteGraph) -> list[list[str]]:
    return [[n.kind for n in r.nodes] for r in rg.routes]


def route_of(rg: RouteGraph, node: RgNode) -> Route:
    return next(r for r in rg.routes if r.id == node.route_id)


def neighbours(rg: RouteGraph, node: RgNode) -> tuple[RgNode, RgNode]:
    """The nodes right before and right after ``node`` in its route."""
    nodes = route_of(rg, node).nodes
    i = nodes.index(node)
    return nodes[i - 1], nodes[i + 1]


# --- pattern sites, as synthesized -------------------------------------------


def test_detect_join_router_on_soccer(soccer_source):
    rg = rg_for(soccer_source)
    # the enricher feeds both consumers, but its edges make no join site:
    # each consumer calls the enricher route right before its translator
    assert rg.nodes_of_kind("joinAggregator") == []
    translators = {n.config.exposed: n for n in rg.nodes_of_kind("translator")}
    for exposed in (("gByP",), ("pAtB",)):
        before, _ = neighbours(rg, translators[exposed])
        assert before.kind == "enricherCall"


def test_detect_join_router_on_extended(soccer_extended_source):
    rg = rg_for(soccer_extended_source)
    [join] = rg.nodes_of_kind("joinAggregator")
    route = route_of(rg, join)
    assert route.entry.kind == "fromDirect"
    assert route.nodes[1] == join
    # both branches reach the join through multicasts, not through to-direct links
    by_id = {n.id: n for n in rg.nodes}
    feeders = [src for src, dst in rg.channel_references() if dst == route.entry.id]
    assert len(feeders) == 2
    assert all(by_id[f].kind == "multicast" for f in feeders)
    assert rg.links == frozenset()


def test_detect_join_router_linear_chain():
    rg = rg_for(read_corpus("synthetic/minimal.lila"))
    assert rg.nodes_of_kind("joinAggregator") == []
    assert rg.nodes_of_kind("fromDirect") == []
    assert rg.links == frozenset()
    assert rg.channel_references() == []


def test_detect_multicast_on_soccer(soccer_source):
    rg = rg_for(soccer_source)
    # enricher fan-out is not a multicast site
    [multicast] = rg.nodes_of_kind("multicast")
    route = route_of(rg, multicast)
    assert route.entry.config.uri == "file:gameEvents.json"
    assert route.nodes[-1] == multicast
    assert multicast.config.targets == ("direct:br", "direct:g")
    assert "direct:pInfo" in rg.channels()


def test_detect_multicast_on_extended(soccer_extended_source):
    rg = rg_for(soccer_extended_source)
    hosts = []
    for multicast in rg.nodes_of_kind("multicast"):
        route = route_of(rg, multicast)
        assert route.nodes[-1] == multicast
        assert len(multicast.config.targets) == 2
        assert set(multicast.config.targets) <= set(rg.channels())
        host = route.entry if route.entry.kind == "fromEndpoint" else route.nodes[-2]
        hosts.append(host.label())
    assert sorted(hosts) == [
        "from(file:gameEvents.json)",
        "from(file:playerPosition.json)",
        "translate[gByP]",
    ]


def test_detect_multicast_linear_chain():
    for name in ("message_filter.lila", "content_filter.lila"):
        rg = rg_for(read_corpus(name))
        assert len(rg.routes) == 1
        assert rg.nodes_of_kind("multicast") == []


def assert_join_site(rg: RouteGraph, in_degree: int) -> None:
    """One join aggregator right after a from-direct, fed by in_degree to-directs."""
    [join] = rg.nodes_of_kind("joinAggregator")
    route = route_of(rg, join)
    assert [n.kind for n in route.nodes[:2]] == ["fromDirect", "joinAggregator"]
    assert join.config.completion_size == in_degree
    by_id = {n.id: n for n in rg.nodes}
    feeders = [by_id[src] for src, dst in rg.links if dst == route.entry.id]
    assert len(feeders) == in_degree
    assert all(f.kind == "toDirect" for f in feeders)
    assert {f.config.channel for f in feeders} == {route.entry.config.channel}


def test_transform_join_router_fragment_degree_two():
    assert_join_site(rg_for(read_corpus("synthetic/two_source_join.lila")), 2)


def test_transform_join_router_fragment_degree_three():
    source = (
        "@from(file:a.json,json)\n{a(k).}\n"
        "@from(file:b.json,json)\n{b(k).}\n"
        "@from(file:c.json,json)\n{c(k).}\n"
        "j(k):-a(k),b(k),c(k).\n"
        "@to(file:o.json,json)\n{j}"
    )
    assert_join_site(rg_for(source), 3)


def multicast_target_routes(rg: RouteGraph, multicast: RgNode) -> list[Route]:
    entries = {r.entry.id: r for r in rg.routes}
    return [entries[dst] for src, dst in rg.channel_references() if src == multicast.id]


def test_transform_multicast_fragment():
    rg = rg_for(read_corpus("synthetic/diamond.lila"))
    [multicast] = rg.nodes_of_kind("multicast")
    assert multicast.config.targets == ("direct:a", "direct:b")
    # each target heads its own route
    targets = multicast_target_routes(rg, multicast)
    assert [r.entry.kind for r in targets] == ["fromDirect", "fromDirect"]
    assert tuple(r.entry.config.channel for r in targets) == multicast.config.targets


def test_transform_multicast_four_targets():
    source = (
        "@from(file:x.json,json)\n{r(k).}\n"
        + "".join(f"o{i}(k):-r(k).\n" for i in range(4))
        + "@to(file:o.json,json)\n{o0\no1\no2\no3}"
    )
    rg = rg_for(source)
    [multicast] = rg.nodes_of_kind("multicast")
    assert len(multicast.config.targets) == 4
    targets = multicast_target_routes(rg, multicast)
    assert sorted(r.nodes[1].config.exposed for r in targets) == [
        ("o0",), ("o1",), ("o2",), ("o3",),
    ]


# --- full synthesis ----------------------------------------------------------------


def test_soccer_yields_four_routes(soccer_source):
    rg = rg_for(soccer_source)
    assert len(rg.routes) == 4
    assert len(rg.nodes_of_kind("multicast")) == 1
    enricher_routes = [
        r for r in rg.routes if any(n.kind == "enricherCall" and n.config.uri for n in r.nodes)
    ]
    assert len(enricher_routes) == 1


def test_soccer_enrich_calls_share_one_enricher_route(soccer_source):
    rg = rg_for(soccer_source)
    callers = [n for n in rg.nodes_of_kind("enricherCall") if n.config.channel]
    assert len(callers) == 2
    assert {c.config.channel for c in callers} == {"direct:pInfo"}


def test_extended_join_immediately_before_pos_filter(soccer_extended_source):
    rg = rg_for(soccer_extended_source)
    join_route = [
        r for r in rg.routes if any(n.kind == "joinAggregator" for n in r.nodes)
    ][0]
    kinds = [n.kind for n in join_route.nodes]
    assert kinds[:3] == ["fromDirect", "joinAggregator", "translator"]
    join = join_route.nodes[1]
    assert join.config.completion_size == 2
    translator = join_route.nodes[2]
    assert translator.config.exposed == ("posAtShotOnGoal",)


def test_extended_multicast_after_position_source_and_gByP(soccer_extended_source):
    rg = rg_for(soccer_extended_source)
    multicasts = rg.nodes_of_kind("multicast")
    assert len(multicasts) == 3
    for route in rg.routes:
        labels = [n.label() for n in route.nodes]
        if labels[0] == "from(file:playerPosition.json)":
            assert route.nodes[-1].kind == "multicast"
        if any(n.kind == "translator" and n.config.exposed == ("gByP",) for n in route.nodes):
            assert route.nodes[-1].kind == "multicast"


def test_minimal_program_single_route():
    rg = rg_for(read_corpus("synthetic/minimal.lila"))
    assert route_kinds(rg) == [
        ["fromEndpoint", "formatConverter", "messageFilter", "formatConverter", "toEndpoint"]
    ]


def test_join_correlation_modes():
    # same-source branches re-join per trace; cross-source joins pair by arrival
    diamond = rg_for(read_corpus("synthetic/diamond.lila"))
    [join] = diamond.nodes_of_kind("joinAggregator")
    assert join.config.correlation == "trace"
    cross = rg_for(read_corpus("synthetic/two_source_join.lila"))
    [join] = cross.nodes_of_kind("joinAggregator")
    assert join.config.correlation == "arrival"


def test_splitter_and_aggregator_apply_their_own_suffixes():
    # sc_ilp and as_ilp rename the predicates; no separate translator node
    rg = rg_for(read_corpus("synthetic/gather.lila"))
    [route] = rg.routes
    kinds = [n.kind for n in route.nodes]
    assert kinds == [
        "fromEndpoint",
        "splitter",
        "aggregator",
        "messageFilter",
        "toEndpoint",
    ]


def test_routing_goal_gets_empty_message_filter():
    rg = rg_for(read_corpus("synthetic/minimal.lila"))
    [mf] = rg.nodes_of_kind("messageFilter")
    assert mf.config.exposed == ("r",)


def test_datalog_endpoints_skip_format_converters():
    rg = rg_for(read_corpus("message_filter.lila"))
    assert rg.nodes_of_kind("formatConverter") == []


def test_enricher_without_consumers_is_pruned_with_warning():
    source = (
        "@from(file:x.json,json)\n{r(v).}\n"
        "@enrich(side.json,json)\n{unused(v).}\n"
        "@to(file:y.json,json)\n{r}"
    )
    # prune removes the enricher before synthesis; synthesizing the unpruned
    # graph warns and drops the enricher route
    rg = synthesize_routes(build_ldg(parse(source)))
    assert any(w.code == "enricher-unused" for w in rg.warnings)
    assert all(n.kind != "enricherCall" for n in rg.nodes)


# --- invariants -------------------------------------------------------------------


ALL_CORPUS = [p.read_text() for p in SYNTHETIC] + [
    read_corpus("soccer_events.lila"),
    read_corpus("soccer_extended.lila"),
    read_corpus("message_filter.lila"),
    read_corpus("content_filter.lila"),
]


@pytest.mark.parametrize("index", range(len(ALL_CORPUS)))
def test_degree_bounds_and_acyclicity(index):
    rg = rg_for(ALL_CORPUS[index])
    check_route_graph(rg)  # raises on violation
    in_deg: dict[str, int] = {}
    out_deg: dict[str, int] = {}
    for src, dst in rg.edges:
        out_deg[src] = out_deg.get(src, 0) + 1
        in_deg[dst] = in_deg.get(dst, 0) + 1
    for node in rg.nodes:
        if node.kind != "multicast":
            assert in_deg.get(node.id, 0) <= 1
            assert out_deg.get(node.id, 0) <= 1
    by_id = {n.id: n for n in rg.nodes}
    for src, dst in rg.links:
        assert by_id[src].kind == "toDirect"
        assert by_id[dst].kind == "fromDirect"
    graph = nx.DiGraph()
    graph.add_nodes_from(by_id)
    graph.add_edges_from(rg.edges)
    graph.add_edges_from(rg.channel_references())
    assert nx.is_directed_acyclic_graph(graph)


def test_every_ldg_node_lands_in_exactly_one_route(soccer_extended_source):
    ldg = prune_unused(build_ldg(parse(soccer_extended_source)))
    rg = synthesize_routes(ldg)
    # each processor/source/goal contributes its characteristic node once
    translators = [
        tuple(n.config.exposed)
        for n in rg.nodes
        if n.kind in ("contentFilter", "translator")
    ]
    assert sorted(translators) == [
        ("g",), ("gByP",), ("p",), ("pAtB",), ("pPosPerMinute",), ("posAtShotOnGoal",),
    ]
    sources = [n.config.uri for n in rg.nodes_of_kind("fromEndpoint")]
    assert len(sources) == 2
    goals = [n.config.uri for n in rg.nodes_of_kind("toEndpoint")]
    assert len(goals) == 4


def test_confluence_of_disjoint_sites():
    # two independent join sites; processing order must not matter
    source = (
        "@from(file:a.json,json)\n{a(k).}\n"
        "@from(file:b.json,json)\n{b(k).}\n"
        "@from(file:c.json,json)\n{c(k).}\n"
        "@from(file:d.json,json)\n{d(k).}\n"
        "j1(k):-a(k),b(k).\n"
        "j2(k):-c(k),d(k).\n"
        "@to(file:o1.json,json)\n{j1}\n"
        "@to(file:o2.json,json)\n{j2}"
    )
    from lila.synthesis import _Builder

    ldg = prune_unused(build_ldg(parse(source)))

    def build_with(order):
        builder = _Builder(ldg, site_order=order)
        builder.expand_enrichers()
        builder.insert_join_routers()
        builder.insert_multicasts()
        rg = builder.assemble()
        check_route_graph(rg)
        return rg

    forward = build_with(sorted)
    backward = build_with(lambda it: sorted(it, reverse=True))
    assert rg_to_json(forward) == rg_to_json(backward)


def test_synthesis_is_deterministic(soccer_extended_source):
    a = rg_for(soccer_extended_source)
    b = rg_for(soccer_extended_source)
    assert rg_to_json(a) == rg_to_json(b)
    assert export_rg_dot(a) == export_rg_dot(b)


# --- exports ----------------------------------------------------------------------


def test_rg_dot_golden_soccer(soccer_source, goldens):
    dot = export_rg_dot(rg_for(soccer_source))
    assert dot == (goldens / "soccer_events_rg.dot").read_text()


def test_rg_dot_golden_extended(soccer_extended_source, goldens):
    dot = export_rg_dot(rg_for(soccer_extended_source))
    assert dot == (goldens / "soccer_extended_rg.dot").read_text()


def test_rg_dot_cluster_count(soccer_source):
    dot = export_rg_dot(rg_for(soccer_source))
    assert dot.count("subgraph cluster_") == 4


def test_rg_dot_single_route_no_dashed():
    dot = export_rg_dot(rg_for(read_corpus("synthetic/minimal.lila")))
    assert dot.count("subgraph cluster_") == 1
    assert "dashed" not in dot


def test_rg_json_document_shape(soccer_source):
    doc = json.loads(rg_to_json(rg_for(soccer_source)))
    assert {r["id"] for r in doc["routes"]} == {"r1", "r2", "r3", "r4"}
    kinds = {n["id"]: n["kind"] for n in doc["nodes"]}
    assert kinds["r1n2"] == "multicast"
    assert all(isinstance(e, list) and len(e) == 2 for e in doc["edges"])


# --- enricher expansion ------------------------------------------------------


def test_enricher_transform_shared_route_two_callers(soccer_source):
    rg = rg_for(soccer_source)
    [route] = [r for r in rg.routes if r.entry.config.channel == "direct:pInfo"]
    assert [n.kind for n in route.nodes] == ["fromDirect", "enricherCall"]
    assert route.nodes[1].config.uri == "playerInfo.json"
    # one call per consumer, each taking the called route's reply
    callers = [n for n in rg.nodes_of_kind("enricherCall") if n.config.channel]
    assert sorted(neighbours(rg, c)[1].config.exposed for c in callers) == [("gByP",), ("pAtB",)]
    assert sorted(src for src, dst in rg.channel_references() if dst == route.entry.id) == sorted(
        c.id for c in callers
    )


def test_enricher_transform_after_producer():
    rg = rg_for(read_corpus("synthetic/enrich_after_producer.lila"))
    [call] = [n for n in rg.nodes_of_kind("enricherCall") if n.config.channel]
    before, after = neighbours(rg, call)
    assert before.config.exposed == ("prod",)
    assert after.config.exposed == ("pick",)


def test_enricher_transform_before_single_consumer():
    rg = rg_for(read_corpus("synthetic/enrich_single.lila"))
    [call] = [n for n in rg.nodes_of_kind("enricherCall") if n.config.channel]
    before, after = neighbours(rg, call)
    assert before.kind == "formatConverter"
    assert after.config.exposed == ("detail",)


# --- route-graph goldens: one rg_to_json document per corpus program --------------


CORPUS_PROGRAMS = sorted(
    p.relative_to(CORPUS).with_suffix("").as_posix() for p in CORPUS.rglob("*.lila")
)


def rg_json(name: str) -> str:
    return rg_to_json(rg_for((CORPUS / f"{name}.lila").read_text()))


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_rg_json_golden(name):
    assert rg_json(name) == (GOLDENS / f"{name}_rg.json").read_text()


# --- checks on hand-made graphs --------------------------------------------------


def test_check_route_graph_rejects_undeclared_multicast_target():
    rg = rg_for(read_corpus("synthetic/diamond.lila"))
    routes = []
    for route in rg.routes:
        nodes = tuple(
            dataclasses.replace(n, config=PatternConfig(targets=("direct:a", "direct:ghost")))
            if n.kind == "multicast"
            else n
            for n in route.nodes
        )
        routes.append(Route(route.id, nodes))
    with pytest.raises(SynthesisError, match="undeclared channel 'direct:ghost'"):
        check_route_graph(RouteGraph(tuple(routes)))


def test_check_route_graph_rejects_cycle():
    # r1 feeds r2 and r2 feeds r1 back over direct channels
    def route(route_id, consumes, sends):
        return Route(
            route_id,
            (
                RgNode(f"{route_id}n0", "fromDirect", route_id, PatternConfig(channel=consumes)),
                RgNode(f"{route_id}n1", "toDirect", route_id, PatternConfig(channel=sends)),
            ),
        )

    rg = RouteGraph((route("r1", "direct:a", "direct:b"), route("r2", "direct:b", "direct:a")))
    assert rg.links == {("r1n1", "r2n0"), ("r2n1", "r1n0")}
    with pytest.raises(SynthesisError, match="cycle"):
        check_route_graph(rg)


if __name__ == "__main__":
    # python -m tests.test_synthesis NAME...: write the route-graph goldens of the
    # named corpus programs (NAME as in CORPUS_PROGRAMS, e.g. synthetic/gather)
    import sys

    for name in sys.argv[1:]:
        (GOLDENS / f"{name}_rg.json").write_text(rg_json(name))
