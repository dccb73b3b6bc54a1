"""Execution engine for route graphs.

Endpoints consume and produce payloads, and ILP pattern nodes process
message content by calling the functions of ``lila.patterns``. The engine
is one sequential worklist of (route, exchange, first node) entries; each
step drives one exchange through its route until a node stops it. Fan-out
goes only through the worklist: a direct channel or multicast target appends
an entry for the consuming route, and a splitter pushes its parts onto the
front, so each part finishes its route first and the order of sink payloads
is deterministic. Nodes update the exchange in place; only multicast targets,
splitter parts and request/reply calls copy it. The paper's parallelism
comes from partitioning the data, not from threads inside one engine.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .cdm import (
    FormatSpec,
    Message,
    from_cdm,
    to_cdm,
)
from .datalog.ast import DatalogProgram
from .patterns import (
    AggregatorConfig,
    EnrichData,
    SplitConfig,
    as_ilp,
    cpc_ilp,
    crc_ilp,
    ep_ilp,
    merge_messages,
    mt_ilp,
    sc_ilp,
)
from .synthesis import RgNode, RouteGraph, SynthesisError, check_channels

logger = logging.getLogger(__name__)

KNOWN_SCHEMES = ("file", "direct", "mock")


class WiringError(Exception):
    pass


class EndpointError(Exception):
    pass


@dataclass(frozen=True)
class EndpointUri:
    scheme: str  # file | direct | mock
    path: str

    @classmethod
    def parse(cls, text: str) -> "EndpointUri":
        if not text:
            raise EndpointError("empty endpoint URI")
        scheme, sep, rest = text.partition(":")
        if not sep:
            # bare filenames (the enricher's <filename> parameter) are files
            return cls("file", text)
        if scheme in KNOWN_SCHEMES:
            return cls(scheme, rest)
        # external transports (twitter, jdbc, ...) are captured by mock sinks
        return cls("mock", text)


@dataclass
class Exchange:
    message: Message
    trace_id: str
    raw: bytes | None = None
    hops: list[tuple[str, int]] = field(default_factory=list)

    def hop(self, node_id: str) -> None:
        self.hops.append((node_id, _now_ms()))

    def fork(self, message: Message | None = None) -> "Exchange":
        return Exchange(
            message if message is not None else self.message,
            self.trace_id,
            self.raw,
            list(self.hops),
        )


def _now_ms() -> int:
    return time.monotonic_ns() // 1_000_000


@dataclass
class RunOptions:
    base_dir: Path | None = None  # None: the working directory when the Engine is built
    split_elements: bool = False  # one payload per JSON array element
    capture_only: bool = False  # all sinks behave like mock sinks
    inject: tuple[Message, ...] = ()  # pre-built CDM messages, skip endpoints
    watch_poll_ms: int = 500
    watch_duration_ms: int | None = None


@dataclass
class RunReport:
    consumed: int = 0
    produced: int = 0
    dropped: int = 0
    errored: int = 0
    replicated: int = 0
    merged: int = 0
    wall_ms: int = 0
    per_node: dict = field(default_factory=dict)
    per_sink: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def conserved(self) -> bool:
        return self.consumed + self.replicated == (
            self.produced + self.dropped + self.errored + self.merged
        )

    def to_json(self) -> str:
        doc = {
            "consumed": self.consumed,
            "produced": self.produced,
            "dropped": self.dropped,
            "errored": self.errored,
            "replicated": self.replicated,
            "merged": self.merged,
            "wallMs": self.wall_ms,
            "perNode": self.per_node,
            "perSink": self.per_sink,
            "warnings": self.warnings,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


class _Aggregation:
    """An aggregator node, its configuration and its open collections.

    ``open`` maps a correlation key to the collection's first exchange (whose
    trace the aggregate continues), its arrival time and the messages so far.
    """

    def __init__(self, node: RgNode):
        cfg = node.config
        self.node = node
        self.config = AggregatorConfig(
            completion_size=cfg.completion_size,
            completion_time_ms=cfg.completion_time_ms,
            correlation_queries=cfg.queries,
        )
        self.open: dict[tuple, tuple[Exchange, int, list[Message]]] = {}


class _NodeFailure(Exception):
    """Internal: carries the exchange state at the failing node."""

    def __init__(self, node_id: str, exchange: Exchange, cause: Exception):
        self.node_id = node_id
        self.exchange = exchange
        self.cause = cause
        super().__init__(f"{node_id}: {cause}")


class Engine:
    """Executes a route graph; one instance per run."""

    def __init__(self, rg: RouteGraph, options: RunOptions | None = None):
        self.rg = rg
        self.options = options or RunOptions()
        self.routes = {r.id: r for r in rg.routes}
        self._channel_route = rg.channels()
        self.mock_sinks: dict[str, list[bytes]] = {}
        # delivered facts per captured sink (mock, or every sink with capture_only)
        self.sink_facts: dict[str, list[frozenset]] = {}
        # per node: the index of the node after it in its route
        self._next_index = {n.id: i + 1 for r in rg.routes for i, n in enumerate(r.nodes)}
        aggregators = ("aggregator", "joinAggregator")
        self._agg = {n.id: _Aggregation(n) for n in rg.nodes if n.kind in aggregators}
        self.report = RunReport(warnings=[str(w) for w in rg.warnings])
        # (route id, exchange, index of the first node to run)
        self._work: deque[tuple[str, Exchange, int]] = deque()
        # per source route: its files and their mtimes as of the last poll
        self._watched: dict[str, dict[Path, int]] = {}
        self._trace_seq = 0
        self._sink_seq: dict[str, int] = {}
        self._sink_targets: dict[str, Path] = {}
        # per enricher node reading a resource: its resolved path, and the
        # file's (st_mtime_ns, st_size) with the enrichment converted from it
        self._enrich_paths: dict[str, Path] = {}
        self._enrichments: dict[str, tuple[tuple[int, int], EnrichData]] = {}
        self._base = (self.options.base_dir or Path.cwd()).resolve()
        self._uris = self._wired()

    # -- wiring ---------------------------------------------------------------

    def _wired(self) -> dict[str, EndpointUri]:
        """Check the channels and parse every endpoint URI once, by node id."""
        try:
            check_channels(self.rg)
        except SynthesisError as exc:
            raise WiringError(str(exc)) from exc
        return {
            node.id: EndpointUri.parse(node.config.uri)  # raises on malformed URIs
            for node in self.rg.nodes
            if node.kind in ("fromEndpoint", "toEndpoint")
        }

    def mock_sink(self, name: str) -> list[bytes]:
        """Captured payloads of a mock sink in arrival order."""
        return self.mock_sinks.get(name, [])

    # -- counters ----------------------------------------------------------------

    def _count_node(self, node_id: str, key: str, amount: int = 1) -> None:
        counters = self.report.per_node.setdefault(
            node_id, {"consumed": 0, "produced": 0, "dropped": 0, "errored": 0}
        )
        counters[key] += amount

    def _drop(self, node_id: str, amount: int = 1) -> None:
        self.report.dropped += amount
        self._count_node(node_id, "dropped", amount)

    def _next_trace(self) -> str:
        self._trace_seq += 1
        return f"t{self._trace_seq:06d}"

    def _warn_once(self, text: str) -> None:
        if text not in self.report.warnings:
            self.report.warnings.append(text)

    # -- filesystem ---------------------------------------------------------------

    def _resolve(self, path: str) -> Path:
        target = (self._base / path).resolve()
        if target != self._base and self._base not in target.parents:
            raise EndpointError(f"path {path!r} escapes the base directory")
        return target

    def _dead_letter(self, exchange: Exchange, node_id: str, error: Exception) -> None:
        self.report.errored += 1
        self._count_node(node_id, "errored")
        failure = f"{type(error).__name__}: {error}"
        logger.warning("exchange %s failed at %s: %s", exchange.trace_id, node_id, failure)
        if self.options.base_dir is not None and not self.options.capture_only:
            doc = {
                "traceId": exchange.trace_id,
                "node": node_id,
                "error": failure,
                "body": str(exchange.message.body),
                "raw": exchange.raw.decode("utf-8", "replace") if exchange.raw else None,
                "hops": exchange.hops,
            }
            try:
                dead_dir = self._resolve(".deadletter")
                dead_dir.mkdir(parents=True, exist_ok=True)
                # forked copies share a trace id: number them like file sink outputs
                target, seq = dead_dir / f"{exchange.trace_id}.json", 1
                while target.exists():
                    seq += 1
                    target = dead_dir / f"{exchange.trace_id}-{seq}.json"
                target.write_text(json.dumps(doc, indent=2))
                return
            except OSError as exc:  # never let dead-letter IO kill the engine
                logger.error("dead-letter write failed: %s", exc)
        self.report.warnings.append(
            f"exchange {exchange.trace_id} failed at {node_id} (no dead-letter file): {failure}"
        )

    # -- node handlers ----------------------------------------------------------------

    def _handle(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        """Run one node; returns the exchange, or None where it stops."""
        exchange.hop(node.id)
        return getattr(self, "_node_" + node.kind)(node, exchange)

    def _node_fromDirect(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        return exchange

    def _node_fromEndpoint(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        # datalog sources have no format converter: their entry parses the payload
        if node.config.format == "datalog":
            return self._convert_in(exchange, "datalog", node.config.relations)
        return exchange

    def _node_toDirect(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        # the consuming route resumes after its fromDirect entry (checked by _wired)
        self._work.append((self._channel_route[node.config.channel], exchange, 1))
        return None

    def _node_multicast(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        self.report.replicated += len(node.config.targets) - 1
        for target in node.config.targets:
            self._work.append((self._channel_route[target], exchange.fork(), 1))
        return None

    def _convert_in(self, exchange: Exchange, fmt: str, relations) -> Exchange:
        if exchange.raw is None:
            raise EndpointError("no payload to convert")
        exchange.message = to_cdm(exchange.raw, FormatSpec(fmt, relations))
        exchange.raw = None
        return exchange

    def _node_formatConverter(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        cfg = node.config
        if cfg.direction == "in":
            return self._convert_in(exchange, cfg.format, cfg.relations)
        exchange.raw = from_cdm(exchange.message, FormatSpec(cfg.format), list(cfg.exposed))
        return exchange

    def _node_contentFilter(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        exchange.message = mt_ilp(exchange.message, node.config.rules, list(node.config.exposed))
        return exchange

    _node_translator = _node_contentFilter

    def _node_messageFilter(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        # discard messages without facts of the exposed predicates
        exposed = set(node.config.exposed)
        if any(a.predicate in exposed for a in exchange.message.body.facts):
            return exchange
        self._drop(node.id)
        return None

    def _node_splitter(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        parts = sc_ilp(exchange.message, SplitConfig(node.config.queries))
        if not parts:
            self._drop(node.id)
            return None
        self.report.replicated += len(parts) - 1
        self._count_node(node.id, "produced", len(parts))
        # each part runs through the rest of the route before any other entry
        after = self._next_index[node.id]
        self._work.extendleft((node.route_id, exchange.fork(p), after) for p in reversed(parts))
        return None

    def _node_enricherCall(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        cfg = node.config
        if cfg.channel:
            # the called route enriches a copy of this message: its reply replaces it
            exchange.message = self._call_channel(cfg.channel, exchange).message
        elif cfg.uri:
            exchange.message = ep_ilp(exchange.message, self._enrichment(node))
        else:
            exchange.message = ep_ilp(
                exchange.message, EnrichData(DatalogProgram(frozenset(cfg.facts)))
            )
        return exchange

    def _node_aggregator(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        agg = self._agg[node.id]
        if node.config.correlation == "trace":
            key = (exchange.trace_id,)
        elif node.config.correlation == "arrival":
            key = ()  # single rolling collection: first k arrivals complete
        else:
            key = crc_ilp(exchange.message, agg.config)
        now_ms = _now_ms()
        first, started_ms, messages = agg.open.setdefault(key, (exchange, now_ms, []))
        messages.append(exchange.message)
        if not cpc_ilp(messages, agg.config, now_ms - started_ms):
            return None
        del agg.open[key]
        return self._emit_aggregate(node, first, messages)

    _node_joinAggregator = _node_aggregator

    def _emit_aggregate(self, node: RgNode, first: Exchange, messages: list[Message]) -> Exchange:
        # an aggregator's output predicates carry the -aggregate suffix; a join's do not
        self.report.merged += len(messages) - 1
        combine = as_ilp if node.kind == "aggregator" else merge_messages
        first.message = combine(messages)
        return first

    def _node_toEndpoint(self, node: RgNode, exchange: Exchange) -> Exchange | None:
        cfg = node.config
        payload = exchange.raw
        if payload is None:
            payload = from_cdm(exchange.message, FormatSpec("datalog"), list(cfg.exposed))
        uri = self._uris[node.id]
        if uri.scheme == "mock" or self.options.capture_only:
            exposed = set(cfg.exposed)
            facts = frozenset(a for a in exchange.message.body.facts if a.predicate in exposed)
            self.sink_facts.setdefault(cfg.uri, []).append(facts)
            self.mock_sinks.setdefault(cfg.uri, []).append(payload)
        elif uri.scheme == "file":
            self._write_sink_file(uri.path, cfg.format, payload)
        else:
            raise EndpointError(f"cannot produce to {cfg.uri!r}")
        self.report.produced += 1
        self._count_node(node.id, "produced")
        self.report.per_sink[cfg.uri] = self.report.per_sink.get(cfg.uri, 0) + 1
        return None

    # -- endpoint IO -------------------------------------------------------------------

    def _enrichment(self, node: RgNode) -> EnrichData:
        """An enricher's resource, converted again only when its file changed.

        The stamp is taken before the read, so a file rewritten during the
        read is read again on the next call. Failures are not kept: every
        call that meets them raises again."""
        cfg = node.config
        path = self._enrich_paths.get(node.id)
        if path is None:
            uri = EndpointUri.parse(cfg.uri)
            if uri.scheme == "mock":
                raise EndpointError(f"cannot consume from mock URI {cfg.uri!r}")
            if uri.scheme != "file":
                raise EndpointError(f"cannot read from {cfg.uri!r}")
            path = self._enrich_paths[node.id] = self._resolve(uri.path)
        st = path.stat()
        stamp = (st.st_mtime_ns, st.st_size)
        cached = self._enrichments.get(node.id)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        data = to_cdm(path.read_bytes(), FormatSpec(cfg.format, cfg.relations))
        enrichment = EnrichData(data.body, data.header.meta_facts)
        self._enrichments[node.id] = (stamp, enrichment)
        return enrichment

    _EXTENSIONS = {"json": "json", "csv": "csv", "datalog": "dl"}

    def _write_sink_file(self, path: str, fmt: str, payload: bytes) -> None:
        # a sink path is resolved and its directory made once per run
        target = self._sink_targets.get(path)
        if target is None:
            target = self._resolve(path)
            (target.parent if target.suffix else target).mkdir(parents=True, exist_ok=True)
            self._sink_targets[path] = target
        seq = self._sink_seq.get(path, 0)
        self._sink_seq[path] = seq + 1
        if target.suffix:
            if seq:
                target = target.with_name(f"{target.stem}-{seq + 1}{target.suffix}")
            target.write_bytes(payload)
        else:
            ext = self._EXTENSIONS.get(fmt, "dat")
            (target / f"{seq:05d}.{ext}").write_bytes(payload)

    def _source_files(self, node: RgNode) -> list[Path]:
        """The files behind a source endpoint: one file, or a directory's files."""
        uri = self._uris[node.id]
        if uri.scheme != "file":
            raise EndpointError(f"cannot consume from {node.config.uri!r}")
        target = self._resolve(uri.path)
        if not target.exists():
            raise EndpointError(f"source path {uri.path!r} does not exist")
        if target.is_dir():
            with os.scandir(target) as entries:
                return [Path(p) for p in sorted(e.path for e in entries if e.is_file())]
        return [target]

    def _split(self, node: RgNode, payload: bytes) -> list[bytes]:
        """With ``split_elements``, one payload per element of a JSON array.

        A payload that is not a JSON array stays whole, so that its format
        converter dead-letters it."""
        if not (self.options.split_elements and node.config.format == "json"):
            return [payload]
        try:
            records = json.loads(payload.decode("utf-8"))
        except ValueError:
            return [payload]
        if not isinstance(records, list):
            return [payload]
        return [json.dumps([r]).encode("utf-8") for r in records]

    def _poll_sources(self) -> None:
        """Queue one exchange per payload of every source file that is new or
        rewritten since the last poll; a batch run polls once.

        The files of a source and their mtimes replace its entry in
        ``_watched`` on every poll, so deleted files leave no state behind."""
        for route in self.rg.routes:
            source = route.entry
            if source.kind != "fromEndpoint":
                continue
            try:
                files = self._source_files(source)
            except (EndpointError, OSError) as exc:
                self._warn_once(f"{source.id}: {exc}")
                continue
            seen = self._watched.get(route.id, {})
            current: dict[Path, int] = {}
            for file in files:
                try:
                    mtime = file.stat().st_mtime_ns
                    payload = file.read_bytes() if seen.get(file) != mtime else None
                except OSError as exc:  # gone or unreadable: tried again next poll
                    self._warn_once(f"{source.id}: {exc}")
                    continue
                current[file] = mtime
                if payload is None:
                    continue
                for part in self._split(source, payload):
                    self.report.consumed += 1
                    self._work.append((route.id, Exchange(Message(), self._next_trace(), part), 0))
            self._watched[route.id] = current

    def _inject(self) -> None:
        """Queue the injected CDM messages after the first source's converters."""
        entry_routes = [r for r in self.rg.routes if r.entry.kind == "fromEndpoint"]
        if not entry_routes:
            raise WiringError("cannot inject messages: no source route")
        route = entry_routes[0]
        start = 1
        while start < len(route.nodes) and route.nodes[start].kind == "formatConverter":
            start += 1
        for message in self.options.inject:
            self.report.consumed += 1
            self._work.append((route.id, Exchange(message, self._next_trace()), start))

    # -- execution ---------------------------------------------------------------------

    def _run_route(self, route_id: str, exchange: Exchange, start: int = 0) -> Exchange | None:
        """Drive one exchange from node ``start`` until a node stops it; returns it
        if it passed the route's last node (a request/reply call's reply). Fan-out
        goes through the worklist: multicast targets at the back, splitter parts at the front."""
        for node in self.routes[route_id].nodes[start:]:
            self._count_node(node.id, "consumed")
            try:
                exchange = self._handle(node, exchange)
            except _NodeFailure:
                raise
            except Exception as exc:
                raise _NodeFailure(node.id, exchange, exc) from exc
            if exchange is None:
                return None
            self._count_node(node.id, "produced")
        return exchange

    def _call_channel(self, channel: str, exchange: Exchange) -> Exchange:
        """Request/reply against the route consuming ``channel``."""
        reply = self._run_route(self._channel_route[channel], exchange.fork())
        if reply is None:
            raise EndpointError(f"request/reply on {channel!r} returned no exchange")
        return reply

    def _flush_aggregations(self, force: bool) -> int:
        """Emit the complete collections; with force, every time-based one.

        With force, size-based collections that can no longer complete are
        dropped. Returns the number of aggregates emitted."""
        emitted = 0
        now_ms = _now_ms()
        for agg in self._agg.values():
            node = agg.node
            time_based = agg.config.completion_time_ms is not None
            for key, (first, started_ms, messages) in list(agg.open.items()):
                if cpc_ilp(messages, agg.config, now_ms - started_ms) or (force and time_based):
                    del agg.open[key]
                    try:
                        merged = self._emit_aggregate(node, first, messages)
                    except Exception as exc:  # one failed merge never halts the sweep
                        self._dead_letter(first, node.id, exc)
                    else:
                        self._work.append((node.route_id, merged, self._next_index[node.id]))
                        emitted += 1
                elif force:
                    del agg.open[key]
                    self._drop(node.id, len(messages))
                    self.report.warnings.append(
                        f"{node.id}: dropped {len(messages)} message(s) from an "
                        f"incomplete collection (key {key!r})"
                    )
        return emitted

    def _drain(self) -> None:
        while self._work:
            route_id, exchange, start = self._work.popleft()
            try:
                self._run_route(route_id, exchange, start)
            except _NodeFailure as failure:  # poisoned exchanges never halt the engine
                self._dead_letter(failure.exchange, failure.node_id, failure.cause)

    def _finish(self, started: float) -> RunReport:
        # end of stream: time-based collections complete, stale size-based drop
        while self._flush_aggregations(force=True):
            self._drain()
        report = self.report
        report.wall_ms = int((time.monotonic() - started) * 1000)
        if not report.conserved():
            report.warnings.append(
                f"messages not conserved: consumed {report.consumed} + replicated "
                f"{report.replicated} != produced {report.produced} + dropped "
                f"{report.dropped} + errored {report.errored} + merged {report.merged}"
            )
        return report

    def run_batch(self) -> RunReport:
        started = time.monotonic()
        if self.options.inject:
            self._inject()
        else:
            self._poll_sources()
        self._drain()
        return self._finish(started)

    def run_watch(self, stop: threading.Event | None = None) -> RunReport:
        """Poll sources for new or rewritten files until stopped or the watch
        duration ends; after each poll, emit the aggregations that completed,
        time-based ones included, even when no new message arrived."""
        started = time.monotonic()
        stop = stop or threading.Event()
        duration_ms = self.options.watch_duration_ms
        deadline = started + duration_ms / 1000 if duration_ms else None
        while not stop.is_set() and not (deadline and time.monotonic() >= deadline):
            self._poll_sources()
            self._drain()
            self._flush_aggregations(force=False)
            self._drain()
            stop.wait(self.options.watch_poll_ms / 1000)
        return self._finish(started)
