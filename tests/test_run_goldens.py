"""Run goldens: what the engine delivers for each run scenario, byte for byte.

Each golden under ``tests/goldens/runs/`` holds the run report (without its
wall time), every sink file and mock payload, and each dead letter's trace
id, node, error and hop node ids (hop timestamps vary from run to run).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lila import compile_source
from lila.runtime import Engine, RunOptions

from .conftest import GOLDENS, read_corpus, write_soccer_fixtures

RUN_GOLDENS = GOLDENS / "runs"


def _soccer(base: Path):
    write_soccer_fixtures(base)
    return read_corpus("soccer_events.lila"), {"config": "playerFeed"}, {}


def _soccer_split(base: Path):
    source, bindings, _ = _soccer(base)
    events = [
        (10, "Goal", 7), (20, "BallReception", 9), (30, "Goal", 9),
        (40, "BallReception", 7), (50, "Goal", 7),
    ]
    (base / "gameEvents.json").write_text(json.dumps([
        {"period": 1, "time": t, "eventCode": code, "pId": p} for t, code, p in events
    ]))
    return source, bindings, {"split_elements": True}


def _soccer_extended(base: Path):
    (base / "gameEvents.json").write_text(json.dumps([
        {"period": 1, "time": 600, "eventCode": "Goal", "pId": 7},
        {"period": 1, "time": 20, "eventCode": "BallReception", "pId": 9},
    ]))
    (base / "playerInfo.json").write_text(json.dumps([
        {"pId": 7, "firstN": "A", "lastN": "B"},
        {"pId": 9, "firstN": "C", "lastN": "D"},
    ]))
    (base / "playerPosition.json").write_text(json.dumps([
        {"period": 1, "time": 600, "playerId": 7, "posX": 1, "posY": 2},
        {"period": 1, "time": 1200, "playerId": 7, "posX": 3, "posY": 4},
        {"period": 1, "time": 1250, "playerId": 9, "posX": 5, "posY": 6},
    ]))
    return read_corpus("soccer_extended.lila"), {"config": "feed"}, {}


def _diamond(base: Path):
    (base / "in.json").write_text(json.dumps([{"kind": "a", "v": 1}, {"kind": "b", "v": 2}]))
    return read_corpus("synthetic/diamond.lila"), None, {}


def _two_source_join(base: Path):
    (base / "left.json").write_text(json.dumps([{"k": 1, "v": "x"}]))
    (base / "right.json").write_text(json.dumps([{"k": 1, "w": "y"}]))
    return read_corpus("synthetic/two_source_join.lila"), None, {}


def _gather(base: Path):
    (base / "in.dl").write_text("a(1). b(2).")
    return read_corpus("synthetic/gather.lila"), None, {}


def _aggregate_time(base: Path):
    (base / "events.dl").write_text("ev(1). ev(2).")
    return read_corpus("synthetic/aggregate_time.lila"), None, {}


def _aggregate_query_vector(base: Path):
    source = (
        "@from(file:inbox,datalog)\n{a(v). b(v).}\n"
        "@aggregate(union,completionSize=2)\n{?-a(v). ?-b(v).}\n"
        "outA(v):-a-aggregate(v).\noutB(v):-b-aggregate(v).\n"
        "@to(file:out.dl,datalog)\n{outA\noutB}"
    )
    inbox = base / "inbox"
    inbox.mkdir()
    for name, text in [("1", "a(1)."), ("2", "b(9)."), ("3", "a(2)."), ("4", "b(8).")]:
        (inbox / f"{name}.dl").write_text(text)
    return source, None, {}


def _message_filter_malformed(base: Path):
    inbox = base / "data" / "testMessageFilter"
    inbox.mkdir(parents=True)
    (inbox / "0.dl").write_text('match("true").')
    (inbox / "1.dl").write_text("match(")
    (inbox / "2.dl").write_text('match("false").')
    (inbox / "3.dl").write_text('match("true"). other(1).')
    return read_corpus("message_filter.lila"), None, {}


def _divide_by_zero(base: Path):
    source = (
        "@from(file:inbox,datalog)\n{n(v).}\n"
        "bad(y):-n(v),y:=v/0.\n"
        "good(v):-n(v),v>0.\n"
        "@to(file:out.json,json)\n{good}\n"
        "@to(file:bad.json,json)\n{bad}"
    )
    inbox = base / "inbox"
    inbox.mkdir()
    (inbox / "1.dl").write_text("n(1).")
    (inbox / "2.dl").write_text("n(2).")
    return source, None, {}


def _inline_facts(base: Path):
    # the inline fact limit(5) reaches the rule through an enricher call
    (base / "in.json").write_text(json.dumps([{"k": 3}, {"k": 7}]))
    return read_corpus("synthetic/inline_facts.lila"), None, {}


def _enrich_after_producer(base: Path):
    (base / "in.json").write_text(json.dumps([{"k": 1, "name": "a"}, {"k": 2, "name": "b"}]))
    (base / "extra.json").write_text(json.dumps([{"k": 9, "name": "z"}]))
    return read_corpus("synthetic/enrich_after_producer.lila"), None, {}


def _soccer_enrichment_malformed(base: Path):
    # each event's enricher call fails on the truncated resource inside the
    # called route; both copies of both events are dead-lettered there
    source, bindings, _ = _soccer(base)
    text = (base / "playerInfo.json").read_text()
    (base / "playerInfo.json").write_text(text[: len(text) // 2])
    return source, bindings, {"split_elements": True}


def _splitter(base: Path, payloads: list[str]):
    source = (
        "@from(file:inbox,datalog)\n{a(v). b(v).}\n"
        "@split()\n{?-a(v). ?-b(v).}\n"
        "out(y):-a-split(v),y:=10/v.\nout(y):-b-split(v),y:=10/v.\n"
        "@to(file:out.dl,datalog)\n{out}"
    )
    inbox = base / "inbox"
    inbox.mkdir()
    for seq, text in enumerate(payloads, 1):
        (inbox / f"{seq}.dl").write_text(text)
    return source, None, {}


def _splitter_order(base: Path):
    # every part of every payload reaches the sink, in payload then part order
    return _splitter(base, ["a(1). b(2).", "a(5). b(10).", "a(2). b(1)."])


def _splitter_failing_part(base: Path):
    # the middle payload's a-part divides by zero; its b-part and the others go on
    return _splitter(base, ["a(1). b(2).", "a(0). b(5).", "a(2). b(1)."])


SCENARIOS = {
    "soccer_events": _soccer,
    "soccer_events_split": _soccer_split,
    "soccer_extended": _soccer_extended,
    "diamond": _diamond,
    "two_source_join": _two_source_join,
    "gather": _gather,
    "aggregate_time": _aggregate_time,
    "aggregate_query_vector": _aggregate_query_vector,
    "message_filter_malformed": _message_filter_malformed,
    "divide_by_zero": _divide_by_zero,
    "splitter_order": _splitter_order,
    "splitter_failing_part": _splitter_failing_part,
    "inline_facts": _inline_facts,
    "enrich_after_producer": _enrich_after_producer,
    "soccer_enrichment_malformed": _soccer_enrichment_malformed,
}


def run_scenario(name: str, base: Path) -> str:
    """Run one scenario in an empty directory; returns its golden document."""
    source, bindings, options = SCENARIOS[name](base)
    inputs = {p for p in base.rglob("*") if p.is_file()}
    engine = Engine(compile_source(source, bindings), RunOptions(base_dir=base, **options))
    report = json.loads(engine.run_batch().to_json())
    del report["wallMs"]
    dead_dir = base / ".deadletter"
    files = {
        p.relative_to(base).as_posix(): p.read_text()
        for p in sorted(base.rglob("*"))
        if p.is_file() and p not in inputs and dead_dir not in p.parents
    }
    dead_letters = []
    for path in sorted(dead_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        dead_letters.append({
            "traceId": doc["traceId"],
            "node": doc["node"],
            "error": doc["error"],
            "hops": [node_id for node_id, _ in doc["hops"]],
        })
    doc = {
        "report": report,
        "files": files,
        "mock": {uri: [p.decode() for p in payloads] for uri, payloads in engine.mock_sinks.items()},
        "deadLetters": dead_letters,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_golden(name, tmp_path):
    assert run_scenario(name, tmp_path) == (RUN_GOLDENS / f"{name}.json").read_text()


if __name__ == "__main__":
    # python -m tests.test_run_goldens NAME...: write the goldens of the named scenarios
    import sys
    import tempfile

    for name in sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            (RUN_GOLDENS / f"{name}.json").write_text(run_scenario(name, Path(tmp)))
