"""Dependency graph construction, suffixed outputs, pruning, DOT export."""

from __future__ import annotations

import networkx as nx
import pytest

from lila.ldg import (
    CycleError,
    LdgError,
    SuffixAmbiguityError,
    UnresolvedDependencyError,
    aggregator_config,
    build_ldg,
    export_ldg_dot,
    prune_unused,
)
from lila.parser import parse

from .conftest import SYNTHETIC, read_corpus


def ldg_for(source: str):
    return build_ldg(parse(source))


def node_of(ldg, node_id: str):
    [node] = [n for n in ldg.nodes if n.id == node_id]
    return node


def kinds(ldg) -> dict[str, str]:
    return {n.id: n.kind for n in ldg.nodes}


# --- soccer scenario ---------------------------------------------------------


def test_soccer_ldg_structure(soccer_source):
    ldg = ldg_for(soccer_source)
    assert kinds(ldg) == {
        "from:file:gameEvents.json": "factSource",
        "proc:g": "processor",
        "proc:br": "processor",
        "proc:gByP": "processor",
        "proc:pAtB": "processor",
        "enrich:playerInfo.json": "enricher",
        "to:twitter:$config": "routingGoal",
        "to:file:playersAtBall.json": "routingGoal",
    }
    assert ldg.edges == frozenset(
        {
            ("from:file:gameEvents.json", "proc:g"),
            ("from:file:gameEvents.json", "proc:br"),
            ("proc:g", "proc:gByP"),
            ("proc:br", "proc:pAtB"),
            ("enrich:playerInfo.json", "proc:gByP"),
            ("enrich:playerInfo.json", "proc:pAtB"),
            ("proc:gByP", "to:twitter:$config"),
            ("proc:pAtB", "to:file:playersAtBall.json"),
        }
    )


def test_soccer_extended_ldg(soccer_extended_source):
    ldg = ldg_for(soccer_extended_source)
    # the join node is fed by both the gByP processor and the position source
    assert sorted(src for src, dst in ldg.edges if dst == "proc:posAtShotOnGoal") == [
        "from:file:playerPosition.json",
        "proc:gByP",
    ]
    # arcs of the published dependency graph
    expected = {
        ("from:file:gameEvents.json", "proc:g"),
        ("from:file:gameEvents.json", "proc:p"),
        ("from:file:playerPosition.json", "proc:posAtShotOnGoal"),
        ("from:file:playerPosition.json", "proc:pPosPerMinute"),
        ("proc:g", "proc:gByP"),
        ("proc:p", "proc:pAtB"),
        ("enrich:playerInfo.json", "proc:gByP"),
        ("enrich:playerInfo.json", "proc:pAtB"),
        ("proc:gByP", "proc:posAtShotOnGoal"),
        ("proc:gByP", "to:twitter:$config"),
        ("proc:pAtB", "to:file:playersAtBall.json"),
        ("proc:posAtShotOnGoal", "to:file:positionAtShotOnGoal"),
        ("proc:pPosPerMinute", "to:jdbc:soccerDatabase"),
    }
    assert ldg.edges == frozenset(expected)


def test_recursive_rule_stays_inside_processor(soccer_extended_source):
    ldg = ldg_for(soccer_extended_source)
    node = node_of(ldg, "proc:pPosPerMinute")
    assert len(node.rules) == 2
    assert "pPosPerMinute" not in node.consumed  # no self edge


def test_minimal_chain():
    ldg = ldg_for(read_corpus("synthetic/minimal.lila"))
    assert [n.kind for n in ldg.nodes] == ["factSource", "routingGoal"]
    assert len(ldg.edges) == 1


def test_mutually_recursive_groups_collapse():
    source = (
        "@from(file:x.json,json)\n{seed(v).}\n"
        "a(v):-seed(v).\na(v):-b(v).\nb(v):-a(v).\n"
        "@to(file:y.json,json)\n{a}"
    )
    ldg = ldg_for(source)
    merged = node_of(ldg, "proc:a+b")
    assert merged.produced == {"a", "b"}
    assert nx.is_directed_acyclic_graph(ldg.to_networkx())


def test_cycle_through_annotation_is_error():
    source = (
        "@from(file:x.dl,datalog)\n{seed(v).}\n"
        "a(v):-seed(v).\na(v):-a-split(v).\n"
        "@split()\n{?-a(v).}\n"
        "@to(file:y.dl)\n{a-split}"
    )
    with pytest.raises(CycleError):
        ldg_for(source)


def test_unresolved_dependency_is_error():
    source = "@from(file:x.json,json)\n{r(v).}\nout(v):-ghost(v).\n@to(file:y.json,json)\n{out}"
    with pytest.raises(UnresolvedDependencyError, match="ghost"):
        ldg_for(source)


# --- inline facts and enricher placement ------------------------------------------


def test_inline_facts_without_producer_feed_consumers():
    ldg = ldg_for(read_corpus("synthetic/inline_facts.lila"))
    assert ("facts:limit", "proc:ok") in ldg.edges


def test_inline_facts_interpose_after_producer():
    source = (
        "@from(file:x.json,json)\n{src(v).}\n"
        "lim(v):-src(v).\n"
        "lim(99).\n"
        "use(v):-lim(v).\n"
        "@to(file:y.json,json)\n{use}"
    )
    ldg = ldg_for(source)
    assert ("proc:lim", "facts:lim") in ldg.edges
    assert ("facts:lim", "proc:use") in ldg.edges
    assert ("proc:lim", "proc:use") not in ldg.edges


def test_enricher_interposes_after_producer():
    ldg = ldg_for(read_corpus("synthetic/enrich_after_producer.lila"))
    assert ("proc:prod", "enrich:extra.json") in ldg.edges
    assert ("enrich:extra.json", "proc:pick") in ldg.edges
    assert ("proc:prod", "proc:pick") not in ldg.edges


def test_enricher_without_producer_feeds_consumer_directly():
    ldg = ldg_for(read_corpus("synthetic/enrich_single.lila"))
    assert ("enrich:products.json", "proc:detail") in ldg.edges


# --- suffixed outputs ---------------------------------------------------------------


def test_suffix_rewriting_binds_downstream_consumer():
    ldg = ldg_for(read_corpus("synthetic/splitter.lila"))
    splitter = node_of(ldg, "split:1")
    # built with the suffixed names: consumes the raw relations, emits the split ones
    assert splitter.consumed == {"a", "b"}
    assert splitter.produced == {"a-split", "b-split"}
    assert ("split:1", "proc:keep") in ldg.edges


def test_upstream_reference_binds_before_aggregator():
    source = (
        "@from(file:x.dl,datalog)\n{a(v).}\n"
        "pre(v):-a(v).\n"
        "@aggregate(union,completionSize=2)\n{?-a(v).}\n"
        "post(v):-a-aggregate(v).\n"
        "@to(file:y.json,json)\n{pre\npost}"
    )
    ldg = ldg_for(source)
    assert ("from:file:x.dl", "proc:pre") in ldg.edges
    assert ("aggregate:1", "proc:post") in ldg.edges
    assert ("aggregate:1", "proc:pre") not in ldg.edges


def test_aggregator_config_rejects_unvalidated_strategy():
    source = (
        "@from(file:x.dl,datalog)\n{a(v).}\n"
        "@aggregate(intersect,completionSize=2)\n{?-a(v).}\n"
        "@to(file:y.dl)\n{a-aggregate}"
    )
    node = node_of(ldg_for(source), "aggregate:1")
    with pytest.raises(LdgError, match="strategy"):
        aggregator_config(node)


def test_downstream_raw_reference_is_ambiguity_error():
    source = (
        "@from(file:x.dl,datalog)\n{a(v).}\n"
        "@split()\n{?-a(v).}\n"
        "b(v):-a-split(v).\n"
        "c(v):-b(v),a(v).\n"
        "@to(file:y.json,json)\n{c}"
    )
    with pytest.raises(SuffixAmbiguityError, match="a-split"):
        ldg_for(source)


# --- pruning -------------------------------------------------------------------------


def test_prune_removes_dead_processor():
    source = (
        "@from(file:x.json,json)\n{r(v).}\n"
        "used(v):-r(v).\ndead(v):-r(v).\n"
        "@to(file:y.json,json)\n{used}"
    )
    pruned = prune_unused(ldg_for(source))
    assert "proc:dead" not in {n.id for n in pruned.nodes}
    assert any(w.code == "unused-node" for w in pruned.warnings)


def test_prune_transitive_chain():
    source = (
        "@from(file:x.json,json)\n{r(v).}\n"
        "used(v):-r(v).\ndead1(v):-r(v).\ndead2(v):-dead1(v).\n"
        "@to(file:y.json,json)\n{used}"
    )
    pruned = prune_unused(ldg_for(source))
    ids = {n.id for n in pruned.nodes}
    assert "proc:dead1" not in ids and "proc:dead2" not in ids


def test_prune_identity_when_all_reachable(soccer_source):
    ldg = ldg_for(soccer_source)
    assert prune_unused(ldg) == ldg


def test_prune_idempotent():
    source = (
        "@from(file:x.json,json)\n{r(v).}\n"
        "used(v):-r(v).\ndead(v):-r(v).\n"
        "@to(file:y.json,json)\n{used}"
    )
    once = prune_unused(ldg_for(source))
    assert prune_unused(once) == once


# --- invariants -----------------------------------------------------------------------


@pytest.mark.parametrize("path", SYNTHETIC, ids=lambda p: p.stem)
def test_edge_soundness_and_acyclicity(path):
    ldg = ldg_for(path.read_text())
    by_id = {n.id: n for n in ldg.nodes}
    for src, dst in ldg.edges:
        assert by_id[src].produced & by_id[dst].consumed, (src, dst)
    assert nx.is_directed_acyclic_graph(ldg.to_networkx())


def test_edge_completeness_without_interposers(soccer_extended_source):
    # every produced/consumed intersection yields an edge when no
    # enricher/inlineFacts interposition rebinds the consumers
    ldg = ldg_for(read_corpus("synthetic/two_source_join.lila"))
    by_id = {n.id: n for n in ldg.nodes}
    for u in ldg.nodes:
        for v in ldg.nodes:
            if u.id != v.id and u.produced & v.consumed:
                assert (u.id, v.id) in ldg.edges


def test_build_is_deterministic(soccer_extended_source):
    a = ldg_for(soccer_extended_source)
    b = ldg_for(soccer_extended_source)
    assert a == b
    assert export_ldg_dot(a) == export_ldg_dot(b)


# --- DOT export -----------------------------------------------------------------------


def test_dot_export_soccer(soccer_source, goldens):
    dot = export_ldg_dot(ldg_for(soccer_source))
    golden = (goldens / "soccer_events_ldg.dot").read_text()
    assert dot == golden


def test_dot_export_empty_graph():
    from lila.ldg import Ldg

    assert export_ldg_dot(Ldg((), frozenset())) == "digraph ldg {\n}\n"


def test_dot_export_extended_matches_arcs(soccer_extended_source):
    ldg = ldg_for(soccer_extended_source)
    dot = export_ldg_dot(ldg)
    assert dot.count(" -> ") == len(ldg.edges) == 13
