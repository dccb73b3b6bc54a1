"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run
from spans import Boundary, Span, Tracer, layer_totals, self_times
from workloads import WORKLOADS, count_failures, sink_payloads

sys.path.insert(0, str(run.ROOT / "src"))


def _place(inputs, base: Path) -> None:
    for rel, data in inputs.files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generators_repeat_for_a_seed(name):
    workload = WORKLOADS[name]
    assert workload.batch(7) == workload.batch(7)
    assert workload.messages(7) == workload.messages(7)
    if name != "filter-stream":  # its probes are one fixed matching message
        assert workload.messages(7) != workload.messages(8)
    assert workload.batch(7).files != workload.batch(8).files


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_check_rejects_a_corrupted_sink_file(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.messages(3)[0]
    _place(inputs, tmp_path)
    mock = workload.baseline(tmp_path)
    captured = lambda uri: mock.get(uri, [])  # noqa: E731
    assert count_failures(workload.sinks, inputs.expected, tmp_path, captured) == 0

    file_sinks = [s for s in workload.sinks if s.kind != "mock" and sink_payloads(s, tmp_path, captured)]
    sink = file_sinks[0]
    target = tmp_path / sink.location
    victim = sorted(target.iterdir())[0] if target.is_dir() else target
    victim.write_bytes(victim.read_bytes().replace(b"1", b"2", 1).replace(b'"', b"'", 1))
    assert count_failures(workload.sinks, inputs.expected, tmp_path, captured) == 1


def test_reference_check_passes_the_program_and_catches_a_lost_payload(tmp_path):
    from lila import compile_source
    from lila.runtime import Engine, RunOptions

    workload = WORKLOADS["filter-stream"]
    inputs = workload._inputs([True, False, True])
    _place(inputs, tmp_path)
    rg = compile_source(workload.program())
    report = Engine(rg, RunOptions(base_dir=tmp_path)).run_batch()
    assert report.conserved()
    assert count_failures(workload.sinks, inputs.expected, tmp_path, lambda uri: []) == 0
    sorted((tmp_path / "data/filtered").iterdir())[0].unlink()
    assert count_failures(workload.sinks, inputs.expected, tmp_path, lambda uri: []) == 1


def _span(label, start, end, seq, thread=1, parent=None, cpu=None):
    """A span of wall time start..end seconds that ran ``cpu`` seconds (all of it by default)."""
    ns = 1_000_000_000
    cpu = end - start if cpu is None else cpu
    return Span(label, thread, seq, parent, start * ns, end * ns, start * ns, (start + cpu) * ns)


def test_self_time_is_span_time_minus_child_time():
    spans = [
        _span("a", 0, 10, 0),
        _span("b", 1, 4, 1, parent=0),
        _span("c", 5, 9, 2, parent=0),
        _span("d", 6, 7, 3, parent=2),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4, 3, 4 - 1, 1])


def test_workers_waiting_for_the_lock_are_not_credited():
    # the batch waits on thread 1 for 10 s; x on thread 2 and y on thread 3
    # overlap in wall time, but each ran only part of it
    spans = [
        _span("runtime.run_batch", 0, 10, 0, thread=1, cpu=0.5),
        _span("x", 2, 6, 1, thread=2, cpu=3),
        _span("y", 4, 8, 2, thread=3, cpu=2),
    ]
    own = self_times(spans, container="runtime.run_batch")
    assert own == pytest.approx([10 - 3 - 2, 3, 2])
    totals = layer_totals(spans, container="runtime.run_batch")
    assert totals["x"] == {"calls": 1, "self_s": pytest.approx(3)}


def test_unwrapped_runtime_work_on_a_worker_goes_to_the_batch():
    # a worker runs runtime code for 1 s around a wrapped call of 4 s CPU;
    # the runtime's own work is not handed to the wrapped layer
    spans = [
        _span("runtime.run_batch", 0, 10, 0, thread=1, cpu=0.5),
        _span("x", 2, 8, 1, thread=2, cpu=4),
    ]
    own = self_times(spans, container="runtime.run_batch")
    assert own == pytest.approx([10 - 4, 4])
    assert sum(own) == pytest.approx(10)


def test_tracer_wraps_and_restores_boundaries():
    import lila.patterns
    from lila.datalog.ast import Atom, DatalogProgram, NumberConst

    original = lila.patterns.evaluate
    tracer = Tracer(
        [
            Boundary("lila.patterns", "evaluate", "datalog.evaluate"),
            Boundary("lila.patterns", "no_such_function", "patterns.none"),
        ]
    )
    with tracer.installed():
        assert lila.patterns.evaluate is not original
        with tracer.span("outer"):
            lila.patterns.evaluate(DatalogProgram(frozenset({Atom("p", (NumberConst(1),))})))
    assert lila.patterns.evaluate is original
    assert [b.attr for b in tracer.missing] == ["no_such_function"]
    inner, outer = tracer.take()
    assert (inner.label, outer.label) == ("datalog.evaluate", "outer")
    assert inner.parent == outer.seq


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()
