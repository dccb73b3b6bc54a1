"""Pattern detection, LDG-to-RG transformation, route structure, exports."""

from __future__ import annotations

import json

import networkx as nx
import pytest

from lila.ldg import build_ldg, prune_unused
from lila.parser import parse
from lila.synthesis import (
    RouteGraph,
    SynthesisError,
    check_route_graph,
    detect_join_router,
    detect_multicast,
    export_rg_dot,
    rg_to_json,
    synthesize_routes,
    transform_join_router,
    transform_multicast,
)

from .conftest import SYNTHETIC, read_corpus


def rg_for(source: str) -> RouteGraph:
    return synthesize_routes(prune_unused(build_ldg(parse(source))))


def route_kinds(rg: RouteGraph) -> list[list[str]]:
    return [[n.kind for n in r.nodes] for r in rg.routes]


# --- detection ---------------------------------------------------------------


def test_detect_join_router_on_soccer(soccer_source):
    ldg = build_ldg(parse(soccer_source))
    # raw detection counts the enricher edges: both consumers are join sites
    assert detect_join_router(ldg) == ["proc:gByP", "proc:pAtB"]


def test_detect_join_router_on_extended(soccer_extended_source):
    ldg = build_ldg(parse(soccer_extended_source))
    assert "proc:posAtShotOnGoal" in detect_join_router(ldg)


def test_detect_join_router_linear_chain():
    ldg = build_ldg(parse(read_corpus("synthetic/minimal.lila")))
    assert detect_join_router(ldg) == []


def test_detect_multicast_on_soccer(soccer_source):
    ldg = build_ldg(parse(soccer_source))
    # enricher fan-out is not a multicast site
    assert detect_multicast(ldg) == ["from:file:gameEvents.json"]


def test_detect_multicast_on_extended(soccer_extended_source):
    ldg = build_ldg(parse(soccer_extended_source))
    assert detect_multicast(ldg) == [
        "from:file:gameEvents.json",
        "from:file:playerPosition.json",
        "proc:gByP",
    ]


def test_detect_multicast_linear_chain():
    ldg = build_ldg(parse(read_corpus("synthetic/minimal.lila")))
    assert detect_multicast(ldg) == []


# --- transformation fragments ----------------------------------------------------


def test_transform_join_router_fragment_degree_two():
    ldg = build_ldg(parse(read_corpus("synthetic/two_source_join.lila")))
    fragment = transform_join_router(ldg, "proc:j")
    kinds = [kind for kind, _ in fragment]
    assert kinds == ["fromDirect", "joinAggregator", "toDirect", "toDirect"]
    join_cfg = fragment[1][1]
    assert join_cfg.completion_size == 2
    assert join_cfg.num_msgs_to_agg == 2
    assert join_cfg.strategy == "union"


def test_transform_join_router_fragment_degree_three():
    source = (
        "@from(file:a.json,json)\n{a(k).}\n"
        "@from(file:b.json,json)\n{b(k).}\n"
        "@from(file:c.json,json)\n{c(k).}\n"
        "j(k):-a(k),b(k),c(k).\n"
        "@to(file:o.json,json)\n{j}"
    )
    ldg = build_ldg(parse(source))
    fragment = transform_join_router(ldg, "proc:j")
    assert fragment[1][1].completion_size == 3
    assert [k for k, _ in fragment].count("toDirect") == 3


def test_transform_join_router_rejects_linear_site():
    ldg = build_ldg(parse(read_corpus("synthetic/minimal.lila")))
    with pytest.raises(SynthesisError):
        transform_join_router(ldg, "to:file:out.json")


def test_transform_multicast_fragment():
    ldg = build_ldg(parse(read_corpus("synthetic/diamond.lila")))
    fragment = transform_multicast(ldg, "from:file:in.json")
    assert [k for k, _ in fragment] == ["multicast", "fromDirect", "fromDirect"]
    assert fragment[0][1].targets == ("direct:a", "direct:b")


def test_transform_multicast_four_targets():
    source = (
        "@from(file:x.json,json)\n{r(k).}\n"
        + "".join(f"o{i}(k):-r(k).\n" for i in range(4))
        + "@to(file:o.json,json)\n{o0\no1\no2\no3}"
    )
    ldg = build_ldg(parse(source))
    fragment = transform_multicast(ldg, "from:file:x.json")
    assert len(fragment[0][1].targets) == 4


def test_transform_multicast_rejects_linear_site():
    ldg = build_ldg(parse(read_corpus("synthetic/minimal.lila")))
    with pytest.raises(SynthesisError):
        transform_multicast(ldg, "from:file:in.json")


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
        builder.transform_join_sites()
        builder.transform_multicast_sites()
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


# --- enricher detect+transform -------------------------------------------------


def test_enricher_transform_shared_route_two_callers(soccer_source):
    from lila.synthesis import detect_and_transform_enricher

    ldg = build_ldg(parse(soccer_source))
    routes, calls, warnings = detect_and_transform_enricher(ldg)
    [(channel, fragment)] = routes
    assert channel == "direct:pInfo"
    assert [k for k, _ in fragment] == ["fromDirect", "enricherCall"]
    assert fragment[1][1].uri == "playerInfo.json"
    # one call per consumer, both merging via the union strategy
    assert sorted(host for host, _ in calls) == ["proc:gByP", "proc:pAtB"]
    assert all(cfg.strategy == "union" and cfg.channel == channel for _, cfg in calls)


def test_enricher_transform_after_producer():
    from lila.synthesis import detect_and_transform_enricher

    ldg = build_ldg(parse(read_corpus("synthetic/enrich_after_producer.lila")))
    _, calls, _ = detect_and_transform_enricher(ldg)
    assert [host for host, _ in calls] == ["proc:prod"]


def test_enricher_transform_before_single_consumer():
    from lila.synthesis import detect_and_transform_enricher

    ldg = build_ldg(parse(read_corpus("synthetic/enrich_single.lila")))
    _, calls, _ = detect_and_transform_enricher(ldg)
    assert [host for host, _ in calls] == ["proc:detail"]


def test_rg_json_golden_soccer(soccer_source, goldens):
    doc = rg_to_json(rg_for(soccer_source))
    assert doc == (goldens / "soccer_events_rg.json").read_text()
