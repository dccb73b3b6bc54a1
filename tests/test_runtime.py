"""Engine execution: endpoints, channels, aggregation state, error handling."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import lila.runtime
from lila import compile_source
from lila.cdm import MetaFact, message
from lila.datalog import parse_atom, parse_rule
from lila.runtime import (
    EndpointUri,
    Engine,
    RunOptions,
    WiringError,
)

from .conftest import read_corpus, write_soccer_fixtures


def engine_for(source: str, base, bindings=None, **options) -> Engine:
    rg = compile_source(source, bindings)
    opts = RunOptions(base_dir=base, **options)
    return Engine(rg, opts)


def sink_records(path) -> list[dict]:
    return json.loads(path.read_text())


# --- endpoint URIs -----------------------------------------------------------


def test_endpoint_uri_schemes():
    assert EndpointUri.parse("file:data/x.json").scheme == "file"
    assert EndpointUri.parse("direct:g").scheme == "direct"
    assert EndpointUri.parse("mock:tweets").scheme == "mock"


def test_external_transports_become_mock_sinks():
    uri = EndpointUri.parse("twitter:mock:tweets")
    assert uri.scheme == "mock"
    assert EndpointUri.parse("jdbc:soccerDatabase").scheme == "mock"


def test_bare_filename_is_file_scheme():
    assert EndpointUri.parse("playerInfo.json").scheme == "file"


# --- direct channels -----------------------------------------------------------


def test_engine_rejects_reference_to_undeclared_channel(tmp_path):
    import dataclasses

    rg = compile_source(read_corpus("synthetic/diamond.lila"))
    # corrupt one multicast target
    bad_routes = []
    for route in rg.routes:
        nodes = []
        for node in route.nodes:
            if node.kind == "multicast":
                cfg = dataclasses.replace(node.config, targets=("direct:ghost",))
                node = dataclasses.replace(node, config=cfg)
            nodes.append(node)
        bad_routes.append(dataclasses.replace(route, nodes=tuple(nodes)))
    bad = dataclasses.replace(rg, routes=tuple(bad_routes))
    with pytest.raises(WiringError, match="ghost"):
        Engine(bad, RunOptions(base_dir=tmp_path))


def test_direct_channels_deliver_in_source_order(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    goals = [(10, 7), (20, 9), (30, 7)]
    (tmp_path / "gameEvents.json").write_text(json.dumps([
        {"period": 1, "time": t, "eventCode": "Goal", "pId": p} for t, p in goals
    ]))
    engine = engine_for(
        soccer_source, tmp_path, {"config": "playerFeed"}, split_elements=True
    )
    report = engine.run_batch()
    tweets = [json.loads(t) for t in engine.mock_sink("twitter:playerFeed")]
    assert [[row["time"] for row in tweet] for tweet in tweets] == [[10], [20], [30]]
    assert (report.consumed, report.produced, report.dropped) == (3, 3, 3)
    assert report.conserved()


# --- soccer scenario end to end ---------------------------------------------------


def test_soccer_end_to_end(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    engine = engine_for(soccer_source, tmp_path, {"config": "playerFeed"})
    report = engine.run_batch()
    [tweet] = engine.mock_sink("twitter:playerFeed")
    assert json.loads(tweet) == [{"period": 1, "time": 10, "firstN": "A", "lastN": "B"}]
    assert sink_records(tmp_path / "playersAtBall.json") == [
        {"period": 1, "time": 20, "firstN": "C", "lastN": "D"}
    ]
    assert report.consumed == 1 and report.produced == 2
    assert report.conserved()


def test_soccer_empty_input_produces_nothing(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    (tmp_path / "gameEvents.json").write_text("[]")
    engine = engine_for(soccer_source, tmp_path, {"config": "playerFeed"})
    report = engine.run_batch()
    assert report.produced == 0
    assert report.dropped == 2  # both branches filtered as empty
    assert not (tmp_path / "playersAtBall.json").exists()
    assert report.conserved()


def test_soccer_split_elements_mode(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    engine = engine_for(
        soccer_source, tmp_path, {"config": "playerFeed"}, split_elements=True
    )
    report = engine.run_batch()
    assert report.consumed == 2
    assert report.produced == 2
    assert report.dropped == 2  # each event is empty on the opposite branch
    assert report.conserved()
    [tweet] = engine.mock_sink("twitter:playerFeed")
    assert json.loads(tweet) == [{"period": 1, "time": 10, "firstN": "A", "lastN": "B"}]


def test_enrichment_resource_is_converted_once_per_run(tmp_path, soccer_source, monkeypatch):
    write_soccer_fixtures(tmp_path)
    events = [{"period": 1, "time": t, "eventCode": c, "pId": 7}
              for t, c in [(10, "Goal"), (20, "BallReception"), (30, "Goal")]]
    (tmp_path / "gameEvents.json").write_text(json.dumps(events))
    resource = (tmp_path / "playerInfo.json").read_bytes()
    payloads = []

    def counting(payload, spec):
        payloads.append(payload)
        return to_cdm(payload, spec)

    to_cdm = lila.runtime.to_cdm
    monkeypatch.setattr(lila.runtime, "to_cdm", counting)
    engine = engine_for(soccer_source, tmp_path, {"config": "playerFeed"}, split_elements=True)
    report = engine.run_batch()
    assert report.produced == 3 and report.errored == 0
    # six enricher calls, one per event and branch, share one conversion
    assert sum(p == resource for p in payloads) == 1


def test_missing_source_file_warns_and_consumes_nothing(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    (tmp_path / "gameEvents.json").unlink()
    engine = engine_for(soccer_source, tmp_path, {"config": "playerFeed"})
    report = engine.run_batch()
    assert report.consumed == 0
    assert any("gameEvents.json" in w for w in report.warnings)


# --- determinism ----------------------------------------------------------------------


def _run_soccer(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    engine = engine_for(
        soccer_source, tmp_path, {"config": "playerFeed"}, capture_only=True
    )
    engine.run_batch()
    return {
        uri: sorted(sorted(str(a) for a in facts) for facts in buckets)
        for uri, buckets in engine.sink_facts.items()
    }


def test_batch_mode_deterministic(tmp_path, soccer_source):
    first = _run_soccer(tmp_path / "a", soccer_source)
    second = _run_soccer(tmp_path / "b", soccer_source)
    assert first == second


def test_multi_payload_directory_counts(tmp_path):
    base = tmp_path / "in"
    base.mkdir()
    source = read_corpus("message_filter.lila")
    inbox = base / "data" / "testMessageFilter"
    inbox.mkdir(parents=True)
    for i in range(30):
        value = "true" if i % 2 == 0 else "false"
        (inbox / f"{i:03d}.dl").write_text(f'match("{value}").')
    engine = engine_for(source, base, capture_only=True)
    report = engine.run_batch()
    assert (report.consumed, report.produced, report.dropped) == (30, 15, 15)


# --- joins and aggregation -----------------------------------------------------------


def test_cross_source_join(tmp_path):
    (tmp_path / "left.json").write_text(json.dumps([{"k": 1, "v": "x"}]))
    (tmp_path / "right.json").write_text(json.dumps([{"k": 1, "w": "y"}]))
    engine = engine_for(read_corpus("synthetic/two_source_join.lila"), tmp_path)
    report = engine.run_batch()
    assert sink_records(tmp_path / "joined.json") == [{"k": 1, "v": "x", "w": "y"}]
    assert report.merged == 1
    assert report.conserved()


def test_diamond_join_per_trace(tmp_path):
    payload = [{"kind": "a", "v": 1}, {"kind": "b", "v": 2}]
    (tmp_path / "in.json").write_text(json.dumps(payload))
    engine = engine_for(read_corpus("synthetic/diamond.lila"), tmp_path)
    report = engine.run_batch()
    assert sink_records(tmp_path / "out.json") == [{"x": 1, "y": 2}]
    assert report.conserved()


def test_join_completion_size_exactness(tmp_path):
    # a join of in-degree 2 emits exactly one aggregate per two correlated inputs
    payload = [{"kind": "a", "v": 1}, {"kind": "b", "v": 2}]
    (tmp_path / "in.json").write_text(json.dumps(payload))
    engine = engine_for(read_corpus("synthetic/diamond.lila"), tmp_path)
    report = engine.run_batch()
    joins = [n for n in engine.rg.nodes if n.kind == "joinAggregator"]
    [join] = joins
    counters = report.per_node[join.id]
    assert counters["consumed"] == 2
    assert counters["produced"] == 1


def test_splitter_gather_double_suffix(tmp_path):
    (tmp_path / "in.dl").write_text("a(1). b(2).")
    engine = engine_for(read_corpus("synthetic/gather.lila"), tmp_path, capture_only=True)
    engine.run_batch()
    collected = set()
    for bucket in engine.sink_facts.values():
        for facts in bucket:
            collected |= {str(a) for a in facts}
    assert collected == {"a-split-aggregate(1)", "b-split-aggregate(2)"}


def test_file_sinks_keep_no_delivered_facts(tmp_path):
    # only captured sinks keep their facts, so a file sink's state stays bounded
    (tmp_path / "in.dl").write_text("a(1). b(2).")
    engine = engine_for(read_corpus("synthetic/gather.lila"), tmp_path)
    report = engine.run_batch()
    assert report.produced == 2
    assert engine.sink_facts == {}


def test_time_based_aggregation_flushes_in_batch(tmp_path):
    (tmp_path / "events.dl").write_text("ev(1). ev(2).")
    engine = engine_for(read_corpus("synthetic/aggregate_time.lila"), tmp_path)
    report = engine.run_batch()
    assert sink_records(tmp_path / "out.json") == [{"k": 1}, {"k": 2}]
    assert report.conserved()


def test_incomplete_size_collection_dropped_with_warning(tmp_path):
    source = (
        "@from(file:in.dl,datalog)\n{a(v).}\n"
        "@aggregate(union,completionSize=5)\n{?-a(v).}\n"
        "passthrough(v):-a-aggregate(v).\n"
        "@to(file:out.json,json)\n{passthrough}"
    )
    (tmp_path / "in.dl").write_text("a(1).")
    engine = engine_for(source, tmp_path)
    report = engine.run_batch()
    assert report.produced == 0
    assert report.dropped == 1
    assert any("incomplete collection" in w for w in report.warnings)
    assert report.conserved()


def test_aggregator_correlates_by_query_vector(tmp_path):
    # messages with different vectors land in different collections
    source = (
        "@from(file:inbox,datalog)\n{a(v). b(v).}\n"
        "@aggregate(union,completionSize=2)\n{?-a(v). ?-b(v).}\n"
        "outA(v):-a-aggregate(v).\noutB(v):-b-aggregate(v).\n"
        "@to(file:out.dl,datalog)\n{outA\noutB}"
    )
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    (inbox / "1.dl").write_text("a(1).")
    (inbox / "2.dl").write_text("b(9).")
    (inbox / "3.dl").write_text("a(2).")
    (inbox / "4.dl").write_text("b(8).")
    engine = engine_for(source, tmp_path)
    engine.run_batch()
    outs = sorted((tmp_path / "out.dl").parent.glob("out*.dl"))
    texts = [p.read_text() for p in outs]
    assert any("outA(1)" in t and "outA(2)" in t for t in texts)
    assert any("outB(8)" in t and "outB(9)" in t for t in texts)


# --- error handling ---------------------------------------------------------------------


def test_poisoned_exchange_goes_to_dead_letter(tmp_path):
    source = (
        "@from(file:inbox,datalog)\n{n(v).}\n"
        "bad(y):-n(v),y:=v/0.\n"
        "good(v):-n(v),v>0.\n"
        "@to(file:out.json,json)\n{good}\n"
        "@to(file:bad.json,json)\n{bad}"
    )
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    (inbox / "1.dl").write_text("n(1).")
    (inbox / "2.dl").write_text("n(2).")
    engine = engine_for(source, tmp_path)
    report = engine.run_batch()
    dead = list((tmp_path / ".deadletter").glob("*.json"))
    assert report.errored >= 1
    assert len(dead) == report.errored
    doc = json.loads(dead[0].read_text())
    assert "division by zero" in doc["error"]
    # the engine kept running: the good branch still produced output
    assert report.produced >= 1


def test_failing_splitter_part_keeps_its_sibling(tmp_path):
    # the a-part divides by zero; the b-part still reaches the sink
    source = (
        "@from(file:in.dl,datalog)\n{a(v). b(v).}\n"
        "@split()\n{?-a(v). ?-b(v).}\n"
        "out(y):-a-split(v),y:=10/v.\nout(y):-b-split(v),y:=10/v.\n"
        "@to(file:out.dl,datalog)\n{out}"
    )
    (tmp_path / "in.dl").write_text("a(0). b(5).")
    report = engine_for(source, tmp_path).run_batch()
    assert (report.produced, report.errored) == (1, 1)
    assert report.conserved()
    assert (tmp_path / "out.dl").read_text() == "out(2).\n"


def test_sweep_time_merge_failure_goes_to_dead_letter(tmp_path):
    # the two messages name position 1 of ev differently, so their union fails
    # when the end-of-batch sweep completes the time-based collection
    engine = engine_for(
        read_corpus("synthetic/aggregate_time.lila"), tmp_path,
        inject=(
            message(facts={parse_atom("ev(1)")}, meta={MetaFact("ev", "k", 1)}),
            message(facts={parse_atom("ev(2)")}, meta={MetaFact("ev", "other", 1)}),
        ),
    )
    report = engine.run_batch()
    assert (report.consumed, report.errored, report.merged, report.produced) == (2, 1, 1, 0)
    assert report.conserved()
    [aggregator] = engine.rg.nodes_of_kind("aggregator")
    [dead] = (tmp_path / ".deadletter").glob("*.json")
    doc = json.loads(dead.read_text())
    assert doc["node"] == aggregator.id and "conflicting meta-facts" in doc["error"]


def test_dead_letters_of_one_trace_do_not_overwrite_each_other(tmp_path):
    # both multicast copies of the one payload fail, each at its own node
    source = (
        "@from(file:in.dl,datalog)\n{n(v).}\n"
        "bad(y):-n(v),y:=v/0.\n"
        "worse(y):-n(v),y:=10/(v - v).\n"
        "@to(file:bad.json,json)\n{bad}\n"
        "@to(file:worse.json,json)\n{worse}"
    )
    (tmp_path / "in.dl").write_text("n(1).")
    report = engine_for(source, tmp_path).run_batch()
    assert report.errored == 2
    dead = sorted((tmp_path / ".deadletter").glob("*.json"))
    assert [p.name for p in dead] == ["t000001-2.json", "t000001.json"]
    nodes = {json.loads(p.read_text())["node"] for p in dead}
    assert len(nodes) == 2
    assert report.conserved()


def test_dead_letter_without_a_file_is_reported_as_a_warning():
    poisoned = message(
        facts={parse_atom("match(1)")},
        rules=(parse_rule("boom(y):-match(x),y:=x/0."),),
    )
    engine = Engine(
        compile_source(read_corpus("message_filter.lila")),
        RunOptions(capture_only=True, inject=(poisoned, message(facts={parse_atom('match("true")')}))),
    )
    report = engine.run_batch()
    assert (report.errored, report.produced) == (1, 1)
    [warning] = [w for w in report.warnings if "failed at" in w]
    assert "t000001" in warning and "division by zero" in warning
    [filter_node] = engine.rg.nodes_of_kind("contentFilter")
    assert filter_node.id in warning
    assert report.conserved()


def test_non_ground_datalog_payload_goes_to_dead_letter(tmp_path):
    # a variable in a payload fact is not data: the exchange is dead-lettered
    source = (
        "@from(file:inbox,datalog)\n{match(m).}\n"
        "out(m):-match(m).\n"
        "@to(file:out.dl,datalog)\n{out}"
    )
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    (inbox / "0.dl").write_text("match(x).")
    engine = engine_for(source, tmp_path)
    report = engine.run_batch()
    assert (report.consumed, report.errored, report.produced) == (1, 1, 0)
    assert not (tmp_path / "out.dl").exists()
    [dead] = (tmp_path / ".deadletter").glob("*.json")
    assert "not ground" in json.loads(dead.read_text())["error"]
    assert report.conserved()


def test_malformed_datalog_payload_goes_to_dead_letter(tmp_path):
    inbox = tmp_path / "data" / "testMessageFilter"
    inbox.mkdir(parents=True)
    (inbox / "0.dl").write_text("match(")
    (inbox / "1.dl").write_text('match("true").')
    engine = engine_for(read_corpus("message_filter.lila"), tmp_path)
    report = engine.run_batch()
    assert (report.consumed, report.errored, report.produced) == (2, 1, 1)
    [dead] = (tmp_path / ".deadletter").glob("*.json")
    doc = json.loads(dead.read_text())
    assert doc["raw"] == "match(" and "malformed datalog" in doc["error"]
    assert report.conserved()


def test_split_elements_keeps_a_non_array_payload_whole(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    (tmp_path / "gameEvents.json").write_text("{not json")
    engine = engine_for(
        soccer_source, tmp_path, {"config": "playerFeed"}, split_elements=True
    )
    report = engine.run_batch()
    # the converter rejects the whole payload instead of the run crashing
    assert (report.consumed, report.errored) == (1, 1)
    assert report.conserved()


def test_unconserved_run_reports_a_warning(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    engine = engine_for(soccer_source, tmp_path, {"config": "playerFeed"})
    engine.report.replicated += 1  # a message the counters never account for
    report = engine.run_batch()
    assert not report.conserved()
    assert any("not conserved" in w for w in report.warnings)


def test_path_escape_is_rejected(tmp_path):
    source = "@from(file:../outside.json,json)\n{r(v).}\n@to(file:o.json,json)\n{r}"
    engine = engine_for(source, tmp_path)
    report = engine.run_batch()
    # the source read fails per-endpoint; nothing is consumed
    assert report.consumed == 0


# --- message injection (used by the benchmark) ------------------------------------------


def test_inject_prebuilt_messages(tmp_path):
    msgs = [
        message(facts={parse_atom(f'match("{"true" if i % 2 == 0 else "false"}")')})
        for i in range(10)
    ]
    engine = engine_for(
        read_corpus("message_filter.lila"), tmp_path,
        capture_only=True, inject=tuple(msgs),
    )
    report = engine.run_batch()
    assert report.consumed == 10
    assert report.produced == 5
    assert report.dropped == 5
    assert report.conserved()


# --- multicast copy semantics --------------------------------------------------------------


def test_multicast_copies_are_independent(tmp_path):
    payload = [{"kind": "a", "v": 1}]
    (tmp_path / "in.json").write_text(json.dumps(payload))
    engine = engine_for(read_corpus("synthetic/diamond.lila"), tmp_path)
    engine.run_batch()
    # branch b saw the full source body even though branch a projected it away
    b_filter = [n for n in engine.rg.nodes if n.config.exposed == ("b",)]
    assert b_filter, "branch filter present"


def test_replicated_counter_tracks_fanout(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    engine = engine_for(soccer_source, tmp_path, {"config": "playerFeed"})
    report = engine.run_batch()
    assert report.replicated == 1  # one multicast with two targets


# --- watch mode -------------------------------------------------------------------------------


def test_watch_mode_consumes_new_files(tmp_path):
    source = read_corpus("message_filter.lila")
    inbox = tmp_path / "data" / "testMessageFilter"
    inbox.mkdir(parents=True)
    (inbox / "0.dl").write_text('match("true").')
    engine = engine_for(
        source, tmp_path,
        capture_only=True, watch_poll_ms=20, watch_duration_ms=700,
    )
    stop = threading.Event()
    worker = threading.Thread(target=engine.run_watch, args=(stop,))
    worker.start()
    time.sleep(0.25)
    (inbox / "1.dl").write_text('match("true").')
    time.sleep(0.3)
    stop.set()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert engine.report.consumed == 2
    assert engine.report.produced == 2


def test_watch_state_forgets_deleted_files_and_rereads_rewritten_ones(tmp_path):
    inbox = tmp_path / "data" / "testMessageFilter"
    inbox.mkdir(parents=True)
    for i in range(3):
        (inbox / f"{i}.dl").write_text('match("true").')
    engine = engine_for(read_corpus("message_filter.lila"), tmp_path, capture_only=True)
    [route_id] = [r.id for r in engine.rg.routes if r.entry.kind == "fromEndpoint"]
    engine._poll_sources()
    engine._poll_sources()  # unchanged files are consumed once
    engine._drain()
    assert engine.report.consumed == 3
    (inbox / "0.dl").unlink()
    (inbox / "1.dl").unlink()
    rewritten = inbox / "2.dl"
    rewritten.write_text('match("true"). match("false").')
    stat = rewritten.stat()
    os.utime(rewritten, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
    engine._poll_sources()
    engine._drain()
    assert set(engine._watched[route_id]) == {rewritten}
    assert engine.report.consumed == 4
    assert engine.report.produced == 4


def _touch_later(path) -> None:
    # a stamp that surely differs, whatever the filesystem's time granularity
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))


def test_watch_rereads_a_rewritten_enrichment_resource(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    engine = engine_for(soccer_source, tmp_path, {"config": "feed"}, capture_only=True)
    engine._poll_sources()
    engine._drain()
    players, events = tmp_path / "playerInfo.json", tmp_path / "gameEvents.json"
    players.write_text(json.dumps([{"pId": 7, "firstN": "E", "lastN": "F"}]))
    events.write_text(json.dumps([{"period": 2, "time": 5, "eventCode": "Goal", "pId": 7}]))
    _touch_later(players)
    _touch_later(events)
    engine._poll_sources()
    engine._drain()
    assert [json.loads(p) for p in engine.mock_sink("twitter:feed")] == [
        [{"period": 1, "time": 10, "firstN": "A", "lastN": "B"}],
        [{"period": 2, "time": 5, "firstN": "E", "lastN": "F"}],
    ]
    assert engine.report.errored == 0 and engine.report.conserved()


def test_failed_enrichment_is_not_kept(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    players = tmp_path / "playerInfo.json"
    text = players.read_text()
    players.write_text(text[: len(text) // 2])
    engine = engine_for(soccer_source, tmp_path, {"config": "feed"}, capture_only=True)
    engine._poll_sources()
    engine._drain()
    assert engine.report.errored == 2  # each branch's call fails on its own
    players.write_text(text)
    _touch_later(tmp_path / "gameEvents.json")
    engine._poll_sources()
    engine._drain()
    assert engine.report.errored == 2 and engine.report.produced == 2


def test_default_base_dir_is_the_working_directory_at_construction(tmp_path, monkeypatch):
    inbox = tmp_path / "first" / "data" / "testMessageFilter"
    inbox.mkdir(parents=True)
    (inbox / "0.dl").write_text('match("true").')
    (tmp_path / "second").mkdir()
    monkeypatch.chdir(tmp_path / "first")
    engine = Engine(compile_source(read_corpus("message_filter.lila")), RunOptions(capture_only=True))
    monkeypatch.chdir(tmp_path / "second")
    assert engine.run_batch().produced == 1


def test_file_sink_indexes_multiple_payloads(tmp_path):
    (tmp_path / "in.dl").write_text("a(1). b(2).")
    engine = engine_for(read_corpus("synthetic/gather.lila"), tmp_path)
    engine.run_batch()
    assert (tmp_path / "out.dl").read_text().strip() == "a-split-aggregate(1)."
    assert (tmp_path / "out-2.dl").read_text().strip() == "b-split-aggregate(2)."


def test_extensionless_file_sink_writes_directory(tmp_path):
    source = (
        "@from(file:in.dl,datalog)\n{a(v).}\n"
        "keep(v):-a(v).\n"
        "@to(file:outbox)\n{keep}"
    )
    (tmp_path / "in.dl").write_text("a(1).")
    engine = engine_for(source, tmp_path)
    engine.run_batch()
    [only] = sorted((tmp_path / "outbox").iterdir())
    assert only.name == "00000.dl"
    assert only.read_text().strip() == "keep(1)."


def test_csv_source_to_csv_sink(tmp_path):
    source = (
        "@from(file:in.csv,csv)\n{m(name,score).}\n"
        "top(name,score):-m(name,score),score>10.\n"
        "@to(file:out.csv,csv)\n{top}"
    )
    (tmp_path / "in.csv").write_text("name,score\nalpha,20\nbeta,5\n")
    engine = engine_for(source, tmp_path)
    report = engine.run_batch()
    assert (tmp_path / "out.csv").read_text() == "name,score\nalpha,20\n"
    assert report.produced == 1


def test_watch_sweep_completes_time_aggregation_without_new_message(tmp_path):
    (tmp_path / "events.dl").write_text("ev(1).")
    engine = engine_for(
        read_corpus("synthetic/aggregate_time.lila"), tmp_path,
        capture_only=True, watch_poll_ms=20,
    )
    stop = threading.Event()
    worker = threading.Thread(target=engine.run_watch, args=(stop,))
    worker.start()
    deadline = time.monotonic() + 5
    try:
        # completionTime is 200 ms; the sweep after a poll must emit the
        # aggregate while the watch loop is still running, without a triggering
        # message
        while time.monotonic() < deadline and engine.report.produced == 0:
            time.sleep(0.05)
        assert engine.report.produced == 1
    finally:
        stop.set()
        worker.join(timeout=5)
    assert not worker.is_alive()


def test_source_endpoint_counters_are_symmetric(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    engine = engine_for(soccer_source, tmp_path, {"config": "playerFeed"})
    report = engine.run_batch()
    [source] = [n for n in engine.rg.nodes if n.kind == "fromEndpoint"]
    assert report.per_node[source.id]["consumed"] == 1
    assert report.per_node[source.id]["produced"] == 1


def test_dead_letter_contains_original_payload(tmp_path):
    source = (
        "@from(file:in.json,json)\n{n(v).}\n"
        "bad(y):-n(v),y:=v/0.\n"
        "@to(file:out.json,json)\n{bad}"
    )
    (tmp_path / "in.json").write_text('[{"v": 3}]')
    engine = engine_for(source, tmp_path)
    report = engine.run_batch()
    assert report.errored == 1
    [dead] = (tmp_path / ".deadletter").glob("*.json")
    doc = json.loads(dead.read_text())
    assert "n(3)" in doc["body"]
    assert doc["node"].startswith("r1")


def test_extended_scenario_minute_sampling_and_position_join(tmp_path, soccer_extended_source):
    # documents the observed := then = behavior: positions sample at minute
    # granularity (600 ticks) and the shot position joins across two sources
    (tmp_path / "gameEvents.json").write_text(json.dumps([
        {"period": 1, "time": 600, "eventCode": "Goal", "pId": 7},
        {"period": 1, "time": 20, "eventCode": "BallReception", "pId": 9},
    ]))
    (tmp_path / "playerInfo.json").write_text(json.dumps([
        {"pId": 7, "firstN": "A", "lastN": "B"},
        {"pId": 9, "firstN": "C", "lastN": "D"},
    ]))
    (tmp_path / "playerPosition.json").write_text(json.dumps([
        {"period": 1, "time": 600, "playerId": 7, "posX": 1, "posY": 2},
        {"period": 1, "time": 1200, "playerId": 7, "posX": 3, "posY": 4},
        {"period": 1, "time": 1250, "playerId": 9, "posX": 5, "posY": 6},
    ]))
    engine = engine_for(soccer_extended_source, tmp_path, {"config": "feed"})
    report = engine.run_batch()
    # hand-sampled: 600//600 = minute 1 seeds the recursion, both 1200//600
    # and 1250//600 land in minute 2
    [rows] = engine.mock_sink("jdbc:soccerDatabase")
    assert rows.decode().splitlines() == [
        "pPosPerMinute(1,1,7,1,2).",
        "pPosPerMinute(1,2,7,3,4).",
        "pPosPerMinute(1,2,9,5,6).",
    ]
    [shot] = sorted((tmp_path / "positionAtShotOnGoal").iterdir())
    assert shot.read_text().strip() == 'posAtShotOnGoal(1,600,"A","B",1,2).'
    assert report.conserved()


def test_mock_sink_empty_when_nothing_produced(tmp_path, soccer_source):
    write_soccer_fixtures(tmp_path)
    (tmp_path / "gameEvents.json").write_text("[]")
    engine = engine_for(soccer_source, tmp_path, {"config": "feed"})
    engine.run_batch()
    assert engine.mock_sink("twitter:feed") == []
