"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and budget is asserted inside the test itself.
"""

from __future__ import annotations

import json
import random
import time

import networkx as nx

from lila import compile_source
from lila.bench import (
    BenchScenario,
    baseline_content_filter,
    gen_multi_fact_message,
    gen_single_fact_messages,
    run_bench,
)
from lila.cdm import FormatSpec, RelationDecl, from_cdm, to_cdm
from lila.datalog import DatalogProgram, evaluate
from lila.ldg import build_ldg, prune_unused
from lila.parser import parse
from lila.patterns import (
    AggregatorConfig,
    SplitConfig,
    as_ilp,
    cpc_ilp,
    sc_ilp,
)
from lila.runtime import Engine, RunOptions
from lila.synthesis import check_route_graph, export_rg_dot, synthesize_routes

from .conftest import SYNTHETIC, read_corpus, write_soccer_fixtures
from .generators import random_flat_record, random_lila_program, random_program
from .oracles import brute_force_evaluate


def _report(number: int, description: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS - {description}")


def test_criterion_01_motivating_example_end_to_end(tmp_path, soccer_source):
    started = time.monotonic()
    write_soccer_fixtures(tmp_path)
    rg = compile_source(soccer_source, {"config": "playerFeed"})
    engine = Engine(rg, RunOptions(base_dir=tmp_path))
    engine.run_batch()

    # hand-computed evaluation of the program's rules over the fixtures:
    # only the Goal event joins player 7, only the BallReception joins player 9
    [tweet] = engine.mock_sink("twitter:playerFeed")
    assert json.loads(tweet) == [{"period": 1, "time": 10, "firstN": "A", "lastN": "B"}]
    assert json.loads((tmp_path / "playersAtBall.json").read_text()) == [
        {"period": 1, "time": 20, "firstN": "C", "lastN": "D"}
    ]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"motivating example end-to-end in {elapsed * 1000:.0f} ms")


def test_criterion_02_route_structure_goldens(goldens, soccer_source, soccer_extended_source):
    rg = synthesize_routes(prune_unused(build_ldg(parse(soccer_source))))
    assert len(rg.routes) == 4
    assert len(rg.nodes_of_kind("multicast")) == 1
    enricher_routes = [
        r for r in rg.routes
        if r.entry.kind == "fromDirect"
        and any(n.kind == "enricherCall" and n.config.uri for n in r.nodes)
    ]
    assert len(enricher_routes) == 1
    assert export_rg_dot(rg) == (goldens / "soccer_events_rg.dot").read_text()

    extended = synthesize_routes(prune_unused(build_ldg(parse(soccer_extended_source))))
    join_routes = [
        r for r in extended.routes if any(n.kind == "joinAggregator" for n in r.nodes)
    ]
    [join_route] = join_routes
    kinds = [n.kind for n in join_route.nodes[:3]]
    assert kinds == ["fromDirect", "joinAggregator", "translator"]
    assert join_route.nodes[1].config.completion_size == 2
    assert join_route.nodes[2].config.exposed == ("posAtShotOnGoal",)
    multicast_hosts = set()
    for route in extended.routes:
        for node in route.nodes:
            if node.kind == "multicast":
                multicast_hosts.add(route.nodes[0].label())
    assert "from(file:playerPosition.json)" in multicast_hosts
    gByP_routes = [
        r for r in extended.routes
        if any(n.config.exposed == ("gByP",) and n.kind == "translator" for n in r.nodes)
    ]
    assert gByP_routes[0].nodes[-1].kind == "multicast"
    assert export_rg_dot(extended) == (goldens / "soccer_extended_rg.dot").read_text()
    _report(2, "route graphs match the byte-frozen DOT goldens (4 routes; join size=2)")


def test_criterion_03_datalog_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20260809)
    matches = 0
    for _ in range(500):
        program = random_program(rng)
        assert evaluate(program) == brute_force_evaluate(program)
        matches += 1
    elapsed = time.monotonic() - started
    assert matches == 500
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(3, f"500/500 random programs match the brute-force oracle in {elapsed:.1f}s")


def test_criterion_04_cdm_roundtrip():
    rng = random.Random(42)
    passed = 0
    for case in range(200):
        keys = [f"k{i}" for i in range(rng.randint(1, 4))]
        decl = RelationDecl("rel", tuple(keys))
        records = []
        seen = set()
        for _ in range(rng.randint(0, 10)):
            record = random_flat_record(rng, keys)
            signature = tuple(sorted((k, repr(v)) for k, v in record.items()))
            if signature not in seen:  # set semantics: duplicates cannot roundtrip
                seen.add(signature)
                records.append(record)
        if case % 2 == 0:
            payload = json.dumps(records).encode()
            spec = FormatSpec("json", (decl,))
            back = json.loads(from_cdm(to_cdm(payload, spec), spec, ["rel"]))
            assert sorted(
                tuple(sorted((k, repr(v)) for k, v in r.items())) for r in back
            ) == sorted(
                tuple(sorted((k, repr(v)) for k, v in r.items())) for r in records
            )
        else:
            header = ",".join(keys)
            rows = [",".join(str(r[k]) for k in keys) for r in records]
            payload = ("\n".join([header] + rows) + "\n").encode()
            spec = FormatSpec("csv", (decl,))
            message = to_cdm(payload, spec)
            again = to_cdm(from_cdm(message, spec, ["rel"]), spec)
            assert again.body.facts == message.body.facts
        passed += 1
    assert passed == 200
    _report(4, "200/200 JSON and CSV payloads roundtrip through the CDM")


def test_criterion_05_filter_selectivity():
    messages = gen_single_fact_messages(10_000)
    rg = compile_source(read_corpus("message_filter.lila"))
    engine = Engine(
        rg, RunOptions(capture_only=True, inject=tuple(messages))
    )
    report = engine.run_batch()
    assert report.consumed == 10_000
    assert report.produced == 5_000
    assert report.dropped == 5_000
    assert report.conserved()
    _report(5, "10,000 alternating messages: exactly 5,000 delivered, 5,000 dropped")


def test_criterion_06_content_filter_equivalence():
    rg = compile_source(read_corpus("content_filter.lila"))
    for f in (2, 100, 5000):
        message = gen_multi_fact_message(f)
        engine = Engine(
            rg, RunOptions(capture_only=True, inject=(message,))
        )
        engine.run_batch()
        ilp_outputs = [facts for bucket in engine.sink_facts.values() for facts in bucket]
        baseline_outputs = baseline_content_filter([message])
        assert sorted(sorted(str(a) for a in fs) for fs in ilp_outputs) == sorted(
            sorted(str(a) for a in fs) for fs in baseline_outputs
        ), f"mismatch at f={f}"
        if f == 2:
            [facts] = ilp_outputs
            assert {str(a) for a in facts} == {'match-filtered("true",1)'}
    _report(6, "content filter equals the imperative baseline for f in {2, 100, 5000}")


def test_criterion_07_scaling_linearity():
    started = time.monotonic()
    band = (1.5, 3.0)
    ratios = {}
    for name in ("filter", "content-filter"):
        scenario = BenchScenario(name, (1000, 2000, 4000, 8000), repetitions=9)
        result = run_bench(scenario)
        ratios[name] = result.ratios("ilp")
        for ratio in ratios[name]:
            assert band[0] <= ratio <= band[1], f"{name}: ratio {ratio:.2f} outside {band}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    pretty = {k: [f"{r:.2f}" for r in v] for k, v in ratios.items()}
    _report(7, f"doubling ratios within [1.5, 3.0]: {pretty} ({elapsed:.0f}s)")


def test_criterion_08_rewrite_invariants():
    sources = [p.read_text() for p in SYNTHETIC] + [
        read_corpus("soccer_events.lila"),
        read_corpus("soccer_extended.lila"),
        read_corpus("message_filter.lila"),
        read_corpus("content_filter.lila"),
    ]
    assert len(sources) == 14
    for source in sources:
        rg = synthesize_routes(prune_unused(build_ldg(parse(source))))
        check_route_graph(rg)
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
            assert by_id[src].kind == "toDirect" and by_id[dst].kind == "fromDirect"
        graph = nx.DiGraph()
        graph.add_nodes_from(by_id)
        graph.add_edges_from(rg.edges)
        graph.add_edges_from(rg.channel_references())
        assert nx.is_directed_acyclic_graph(graph)
    _report(8, "14/14 corpus programs satisfy degree, pairing and acyclicity invariants")


def test_criterion_09_splitter_aggregator_duality(tmp_path):
    # pattern-level duality with the completion gate at size 2
    from lila.datalog import parse_atom

    source_message = to_cdm(b"a(1). b(2).", FormatSpec(
        "datalog", (RelationDecl("a", ("x",)), RelationDecl("b", ("y",)))
    ))
    split = SplitConfig((parse_atom("a(x)"), parse_atom("b(x)")))
    parts = sc_ilp(source_message, split)
    assert len(parts) == 2
    cfg = AggregatorConfig(completion_size=2)
    assert cpc_ilp(parts, cfg, elapsed_ms=0) is True
    combined = as_ilp(parts)
    assert {str(a) for a in combined.body.facts} == {
        "a-split-aggregate(1)",
        "b-split-aggregate(2)",
    }

    # the synthesized gather route produces the same double-suffixed facts
    (tmp_path / "in.dl").write_text("a(1). b(2).")
    rg = compile_source(read_corpus("synthetic/gather.lila"))
    engine = Engine(rg, RunOptions(base_dir=tmp_path, capture_only=True))
    engine.run_batch()
    delivered = set()
    for bucket in engine.sink_facts.values():
        for facts in bucket:
            delivered |= {str(a) for a in facts}
    assert delivered == {"a-split-aggregate(1)", "b-split-aggregate(2)"}
    _report(9, "split {a,b} then aggregate(size=2) yields the -split-aggregate body")


def test_criterion_10_semantics_preservation(tmp_path):
    started = time.monotonic()
    passed = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        source, fixtures = random_lila_program(rng)
        program = parse(source)
        base = tmp_path / f"case{seed}"
        base.mkdir()
        for name, content in fixtures.items():
            (base / name).write_text(content)

        rg = synthesize_routes(prune_unused(build_ldg(program)))
        engine = Engine(rg, RunOptions(base_dir=base, capture_only=True))
        engine.run_batch()

        # monolithic reference: all converted source facts plus every rule,
        # evaluated once, projected per routing goal
        all_facts = set()
        for ann in program.annotations:
            if ann.name != "from":
                continue
            payload = (base / ann.uri.removeprefix("file:")).read_bytes()
            converted = to_cdm(payload, FormatSpec(ann.format(), ann.declarations))
            all_facts |= converted.body.facts
        monolith = evaluate(DatalogProgram(frozenset(all_facts), program.rules))

        for ann in program.annotations:
            if ann.name != "to":
                continue
            exposed = set(ann.exposed)
            expected = {str(a) for a in monolith if a.predicate in exposed}
            delivered = set()
            for facts in engine.sink_facts.get(ann.uri, []):
                delivered |= {str(a) for a in facts}
            assert delivered == expected, f"seed {seed}, goal {ann.uri}"
        passed += 1
    elapsed = time.monotonic() - started
    assert passed == 20
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(10, f"20/20 synthesized pipelines equal the monolithic evaluation ({elapsed:.1f}s)")
