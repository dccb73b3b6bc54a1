"""Scaling benchmarks: ILP pipelines against a hand-coded imperative baseline.

Two scenarios, both measured without message endpoints on pre-built CDM
messages (format conversion excluded): routing a stream of single-fact
messages through a message filter, and content-filtering one message with a
growing number of facts. Outputs are cross-checked against the imperative
baseline before any timing is trusted.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from . import compile_source
from .cdm import Message, MetaFact, message
from .datalog.ast import Atom, NumberConst, StringConst
from .runtime import Engine, RunOptions

FILTER_PROGRAM = """\
@from(file:data/testMessageFilter)
{match(matching).}
match-filtered(matching):-match("true").
@to(file:data/filtered)
"""

CONTENT_FILTER_PROGRAM = """\
@from(file:data/testContentFilter)
{  match(matching,count). }

match-filtered(matching,count):-match("true",count).

@to(file:data/contentFilter)
{  match-filtered  }
"""

SCENARIOS = ("filter", "content-filter")

_META_1 = frozenset({MetaFact("match", "matching", 1)})
_META_2 = frozenset({MetaFact("match", "matching", 1), MetaFact("match", "count", 2)})


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class BenchScenario:
    name: str  # one of SCENARIOS
    sizes: tuple[int, ...]
    repetitions: int = 5
    warmup_runs: int = 2

    def __post_init__(self):
        if self.name not in SCENARIOS:
            raise BenchError(f"unknown scenario {self.name!r}; choose from {SCENARIOS}")
        if self.repetitions < 5:
            raise BenchError("repetitions must be >= 5")
        if self.warmup_runs < 2:
            raise BenchError("warmup must be >= 2")
        if list(self.sizes) != sorted(set(self.sizes)) or not self.sizes:
            raise BenchError("sizes must be strictly increasing and non-empty")
        if min(self.sizes) < 1:
            raise BenchError("sizes must be >= 1")


@dataclass
class BenchResult:
    scenario: str
    sizes: tuple[int, ...]
    median_ms: dict[str, list[float]] = field(default_factory=dict)  # pipeline -> per size

    def ratios(self, pipeline: str) -> list[float]:
        """Median-time ratio of consecutive sizes (scaling factors)."""
        medians = self.median_ms[pipeline]
        return [b / a for a, b in zip(medians, medians[1:])]


def gen_single_fact_messages(n: int) -> list[Message]:
    """n single-fact messages alternating true/false, starting with true,
    so exactly half (rounded up) pass the filter."""
    if n < 1:
        raise BenchError("n must be >= 1")
    out = []
    for i in range(n):
        value = "true" if i % 2 == 0 else "false"
        out.append(message(facts={Atom("match", (StringConst(value),))}, meta=_META_1))
    return out


def gen_multi_fact_message(f: int) -> Message:
    """One message with f facts match(value, i), i = 1..f, odd i matching."""
    if f < 1:
        raise BenchError("f must be >= 1")
    facts = set()
    for i in range(1, f + 1):
        value = "true" if i % 2 == 1 else "false"
        facts.add(Atom("match", (StringConst(value), NumberConst(i))))
    return message(facts=facts, meta=_META_2)


# --- imperative baselines (direct record iteration on the same messages) -------------


_TRUE_FACT = Atom("match", (StringConst("true"),))


def baseline_filter(messages: list[Message]) -> list[frozenset[Atom]]:
    delivered = []
    for msg in messages:
        if _TRUE_FACT in msg.body.facts:
            delivered.append(
                frozenset({Atom("match-filtered", (StringConst("true"),))})
            )
    return delivered


def baseline_content_filter(messages: list[Message]) -> list[frozenset[Atom]]:
    delivered = []
    for msg in messages:
        kept = set()
        for fact in msg.body.facts:
            if fact.predicate == "match" and fact.terms[0] == StringConst("true"):
                kept.add(Atom("match-filtered", fact.terms))
        if kept:
            delivered.append(frozenset(kept))
    return delivered


# --- pipelines -------------------------------------------------------------------------


def _ilp_outputs(rg, messages: list[Message]) -> list[frozenset[Atom]]:
    engine = Engine(rg, RunOptions(capture_only=True, inject=tuple(messages)))
    engine.run_batch()
    outputs = []
    for bucket in engine.sink_facts.values():
        outputs.extend(bucket)
    return outputs


def _time_ms(fn) -> float:
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter_ns()
        fn()
        return (time.perf_counter_ns() - started) / 1e6
    finally:
        if gc_was_enabled:
            gc.enable()


def _multiset(outputs: list[frozenset[Atom]]) -> list:
    return sorted(sorted(str(a) for a in facts) for facts in outputs)


def run_bench(scenario: BenchScenario) -> BenchResult:
    """Execute both pipelines over all sizes; medians after warmup.

    Aborts if the ILP pipeline and the imperative baseline disagree on any
    input (correctness precedes timing).
    """
    if scenario.name == "filter":
        rg = compile_source(FILTER_PROGRAM)
        gen = gen_single_fact_messages
        baseline = baseline_filter
    else:
        rg = compile_source(CONTENT_FILTER_PROGRAM)
        gen = lambda f: [gen_multi_fact_message(f)]
        baseline = baseline_content_filter

    inputs: dict[int, list[Message]] = {size: gen(size) for size in scenario.sizes}
    for size, messages in inputs.items():
        ilp_out = _ilp_outputs(rg, messages)
        base_out = baseline(messages)
        if _multiset(ilp_out) != _multiset(base_out):
            raise BenchError(
                f"{scenario.name}@{size}: ILP and baseline outputs differ; "
                "refusing to time an incorrect pipeline"
            )

    # repetition rounds are interleaved across sizes so clock drift and load
    # spikes hit every size alike instead of skewing one scaling ratio
    ilp_times: dict[int, list[float]] = {size: [] for size in scenario.sizes}
    base_times: dict[int, list[float]] = {size: [] for size in scenario.sizes}
    for round_index in range(scenario.warmup_runs + scenario.repetitions):
        warm = round_index < scenario.warmup_runs
        for size in scenario.sizes:
            messages = inputs[size]
            elapsed = _time_ms(lambda: _ilp_outputs(rg, messages))
            if not warm:
                ilp_times[size].append(elapsed)
        for size in scenario.sizes:
            messages = inputs[size]
            elapsed = _time_ms(lambda: baseline(messages))
            if not warm:
                base_times[size].append(elapsed)

    result = BenchResult(scenario.name, scenario.sizes, {"ilp": [], "baseline": []})
    for size in scenario.sizes:
        result.median_ms["ilp"].append(statistics.median(ilp_times[size]))
        result.median_ms["baseline"].append(statistics.median(base_times[size]))
    return result


def emit_report(results: list[BenchResult]) -> tuple[str, str]:
    """Deterministic CSV plus a gnuplot-ready data file."""
    csv_lines = ["scenario,size,medianMillis,pipeline"]
    for result in results:
        for pipeline in sorted(result.median_ms):
            for size, median in zip(result.sizes, result.median_ms[pipeline]):
                csv_lines.append(f"{result.scenario},{size},{median:.3f},{pipeline}")
    dat_lines = ["# scenario size ilp_ms baseline_ms"]
    for result in results:
        for i, size in enumerate(result.sizes):
            ilp = result.median_ms["ilp"][i]
            base = result.median_ms["baseline"][i]
            dat_lines.append(f"{result.scenario} {size} {ilp:.3f} {base:.3f}")
    return "\n".join(csv_lines) + "\n", "\n".join(dat_lines) + "\n"
