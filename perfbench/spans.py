"""Spans around LiLa's public module boundaries, recorded from outside.

``Tracer.installed()`` replaces each boundary function in the module
namespace the program calls it through with a wrapper that records a span,
and restores the originals on exit. Spans stay in memory. Each thread keeps
its own parent stack, because the runtime's worker pool calls the pattern
and conversion functions from worker threads.

A span records wall time and the CPU time of its thread. Under the
interpreter lock, several workers can be inside spans at once while only one
of them runs; the thread CPU time counts only the running one.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _to_cdm_counts(args, result) -> dict:
    return {"bytes": len(args[0]), "facts": len(result.body.facts)}


def _from_cdm_counts(args, result) -> dict:
    return {"bytes": len(result)}


def _evaluate_counts(args, result) -> dict:
    return {"facts_out": len(result)}


@dataclass(frozen=True)
class Boundary:
    module: str
    attr: str
    label: str  # <layer>.<function>, the prefix of its metrics
    counts: object = None  # (args, result) -> dict of size counts
    sizes: tuple[str, ...] = ()  # the keys ``counts`` returns


COMPILE_BOUNDARIES = (
    Boundary("lila.parser", "parse", "parser.parse"),
    Boundary("lila.parser", "validate_program", "parser.validate_program"),
    Boundary("lila.ldg", "build_ldg", "ldg.build_ldg"),
    Boundary("lila.ldg", "prune_unused", "ldg.prune_unused"),
    Boundary("lila.synthesis", "synthesize_routes", "synthesis.synthesize_routes"),
)

RUN_BOUNDARIES = (
    Boundary("lila.runtime", "to_cdm", "cdm.to_cdm", _to_cdm_counts, ("bytes", "facts")),
    Boundary("lila.runtime", "from_cdm", "cdm.from_cdm", _from_cdm_counts, ("bytes",)),
    Boundary("lila.cdm", "parse_program", "datalog.parse_program"),
    Boundary("lila.patterns", "evaluate", "datalog.evaluate", _evaluate_counts, ("facts_out",)),
    Boundary("lila.patterns", "query", "datalog.query"),
    Boundary("lila.runtime", "mt_ilp", "patterns.mt_ilp"),
    Boundary("lila.runtime", "ep_ilp", "patterns.ep_ilp"),
    Boundary("lila.runtime", "merge_messages", "patterns.merge_messages"),
    Boundary("lila.runtime", "split_messages", "patterns.split_messages"),
    Boundary("lila.runtime", "crc_ilp", "patterns.crc_ilp"),
    Boundary("lila.runtime", "rename_predicates", "patterns.rename_predicates"),
)


@dataclass
class Span:
    label: str
    thread: int
    seq: int  # start order; on one thread a later start is a deeper span
    parent: int | None  # seq of the enclosing span on the same thread
    start_ns: int
    end_ns: int
    cpu_start_ns: int  # CPU time of the thread
    cpu_end_ns: int
    counts: dict | None = None


class Tracer:
    def __init__(self, boundaries):
        self.boundaries = tuple(boundaries)
        self.spans: list[Span] = []
        self.missing: list[Boundary] = []
        self._local = threading.local()
        self._seq = itertools.count()

    def _open(self) -> tuple[list, int, int | None]:
        stack = self._local.__dict__.setdefault("stack", [])
        seq = next(self._seq)
        parent = stack[-1] if stack else None
        stack.append(seq)
        return stack, seq, parent

    @contextmanager
    def span(self, label: str):
        """Record a span around a block of the benchmark's own code."""
        stack, seq, parent = self._open()
        start, cpu_start = time.perf_counter_ns(), time.thread_time_ns()
        try:
            yield
        finally:
            end, cpu_end = time.perf_counter_ns(), time.thread_time_ns()
            stack.pop()
            self.spans.append(
                Span(label, threading.get_ident(), seq, parent, start, end, cpu_start, cpu_end)
            )

    def _wrap(self, boundary: Boundary, fn):
        def traced(*args, **kwargs):
            stack, seq, parent = self._open()
            start, cpu_start = time.perf_counter_ns(), time.thread_time_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end, cpu_end = time.perf_counter_ns(), time.thread_time_ns()
                stack.pop()
                counts = boundary.counts(args, result) if boundary.counts and result is not None else None
                self.spans.append(
                    Span(boundary.label, threading.get_ident(), seq, parent, start, end,
                         cpu_start, cpu_end, counts)
                )

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary that exists; absent ones go to ``missing``."""
        patched = []
        self.missing = []
        try:
            for boundary in self.boundaries:
                module = importlib.import_module(boundary.module)
                original = getattr(module, boundary.attr, None)
                if not callable(original):
                    self.missing.append(boundary)
                    continue
                setattr(module, boundary.attr, self._wrap(boundary, original))
                patched.append((module, boundary.attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span], container: str | None = None) -> list[float]:
    """Self time in seconds of each span.

    A span's self time is the CPU time its thread spent in it minus the CPU
    time of its child spans. The container (the batch, which waits for its
    worker threads) instead owns its wall time minus the self time of every
    other span that ran during it: the runtime's own work on any thread, time
    spent waiting for the interpreter lock, and I/O. So the self times of
    the container and of the spans inside it add up to its wall time.
    """
    def cpu(s: Span) -> int:
        return s.cpu_end_ns - s.cpu_start_ns

    by_seq = {s.seq: s for s in spans}
    own = {s.seq: cpu(s) for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_seq:
            own[s.parent] -= cpu(s)
    for c in spans:
        if c.label == container:
            inside = [s for s in spans if s is not c and c.start_ns <= s.start_ns < c.end_ns]
            own[c.seq] = (c.end_ns - c.start_ns) - sum(own[s.seq] for s in inside)
    return [own[s.seq] / 1e9 for s in spans]


def layer_totals(spans: list[Span], container: str | None = None) -> dict[str, dict]:
    """Per label: calls, summed self time and summed size counts."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans, container)):
        entry = totals.setdefault(span.label, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in (span.counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
