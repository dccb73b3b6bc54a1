"""Seeded benchmark workloads: programs, input files, references, baselines.

Each workload is generated from a seed, and the program under test sees only
the files written under its base directory. The expected sink outputs are
computed from the generator's own records, and the hand-written baseline
reads the same files and writes the same sink payloads. Neither imports
``lila``, so a defect in the program cannot hide in its reference.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "tests" / "corpus"  # the paper's programs, read as they are


# -- payload formats -------------------------------------------------------------------

_FACT = re.compile(r"\s*([A-Za-z_][\w-]*)\((.*)\)\.\s*")
_ARG = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"|(-?\d+(?:\.\d+)?))\s*(?:,|$)')


def parse_facts(text: str) -> list[tuple]:
    """Ground facts of a datalog payload, one per line, as (predicate, args)."""
    facts = []
    for line in text.splitlines():
        if not line.strip():
            continue
        match = _FACT.fullmatch(line)
        if match is None:
            raise ValueError(f"not a ground fact: {line!r}")
        predicate, rest = match.groups()
        args, pos = [], 0
        while pos < len(rest):
            arg = _ARG.match(rest, pos)
            if arg is None or arg.end() == pos:
                raise ValueError(f"bad arguments in {line!r}")
            text_value, number = arg.groups()
            if number is not None:
                args.append(float(number) if "." in number else int(number))
            else:
                args.append(text_value.replace('\\"', '"').replace("\\\\", "\\"))
            pos = arg.end()
        facts.append((predicate, tuple(args)))
    return facts


def _term(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return repr(value)


def _term_key(value):
    return (1, 0, value) if isinstance(value, str) else (0, value, "")


def format_facts(facts) -> bytes:
    """Datalog payload in the program's layout: sorted, one fact per line."""
    ordered = sorted(facts, key=lambda f: (f[0], len(f[1]), tuple(_term_key(v) for v in f[1])))
    return "".join(f"{p}({','.join(_term(v) for v in args)}).\n" for p, args in ordered).encode()


def canonical(payload: bytes, fmt: str) -> tuple:
    """Order- and layout-free form of one sink payload; bad payloads stay distinct."""
    try:
        if fmt == "json":
            records = json.loads(payload.decode("utf-8"))
            return ("json",) + tuple(sorted(json.dumps(r, sort_keys=True) for r in records))
        return ("datalog",) + tuple(sorted(parse_facts(payload.decode("utf-8")), key=repr))
    except (ValueError, TypeError, AttributeError):
        return ("unparseable", payload)


# -- sinks and checking ----------------------------------------------------------------


@dataclass(frozen=True)
class Sink:
    name: str
    kind: str  # dir: one file per payload | file: name, name-2, ... | mock: captured
    location: str  # path under the base directory, or the mock URI
    fmt: str  # datalog | json


def sink_payloads(sink: Sink, base: Path, mock) -> list[bytes]:
    """Every payload a sink received; ``mock(uri)`` returns captured payloads."""
    if sink.kind == "mock":
        return list(mock(sink.location))
    target = base / sink.location
    if sink.kind == "dir":
        return [f.read_bytes() for f in sorted(target.iterdir())] if target.is_dir() else []
    numbered = target.parent.glob(f"{target.stem}-*{target.suffix}")
    files = ([target] if target.is_file() else []) + sorted(numbered)
    return [f.read_bytes() for f in files]


def count_failures(sinks, expected: dict[str, Counter], base: Path, mock) -> int:
    """Payloads missing from or extra to the reference, as multisets per sink."""
    failed = 0
    for sink in sinks:
        got = Counter(canonical(p, sink.fmt) for p in sink_payloads(sink, base, mock))
        want = expected[sink.name]
        failed += max(sum((got - want).values()), sum((want - got).values()))
    return failed


def _expect(sink: Sink, payloads) -> Counter:
    return Counter(canonical(p, sink.fmt) for p in payloads)


# -- workloads -------------------------------------------------------------------------


@dataclass
class Inputs:
    """One batch: the files to place under the base directory and what the
    sinks must receive."""

    files: dict[str, bytes]
    expected: dict[str, Counter]
    messages: int  # source payloads the program consumes
    source_facts: int  # facts in @from payloads
    unique_facts: int  # source facts plus each enrichment fact once


class Workload:
    name = ""
    program_path = Path()
    bindings: dict[str, str] = {}
    split_elements = False
    sinks: tuple[Sink, ...] = ()

    def program(self) -> str:
        return self.program_path.read_text()

    def batch(self, seed: int) -> Inputs:
        raise NotImplementedError

    def messages(self, seed: int) -> list[Inputs]:
        """Small one-message batches for the closed-loop latency probe."""
        raise NotImplementedError

    def baseline(self, base: Path) -> dict[str, list[bytes]]:
        """Plain Python: read the inputs, write the file sinks, return mock sinks."""
        raise NotImplementedError


class FilterStream(Workload):
    """The paper's message filter over a directory of single-fact payloads."""

    name = "filter-stream"
    program_path = CORPUS / "message_filter.lila"
    sinks = (Sink("filtered", "dir", "data/filtered", "datalog"),)
    size = 2000
    _source = "data/testMessageFilter"
    _passed = format_facts([("match-filtered", ("true",))])

    def _inputs(self, flags: list[bool]) -> Inputs:
        files = {
            f"{self._source}/m{i:05d}.dl": format_facts([("match", ("true" if f else "false",))])
            for i, f in enumerate(flags)
        }
        expected = {"filtered": _expect(self.sinks[0], [self._passed] * sum(flags))}
        return Inputs(files, expected, len(flags), len(flags), len(flags))

    def batch(self, seed: int) -> Inputs:
        flags = [i % 2 == 0 for i in range(self.size)]
        random.Random(seed).shuffle(flags)
        return self._inputs(flags)

    def messages(self, seed: int) -> list[Inputs]:
        # matching only: a dropped message writes no file and runs twice as
        # fast, and a mix of both puts the median between the two modes
        return [self._inputs([True])]

    def baseline(self, base: Path) -> dict[str, list[bytes]]:
        out = base / self.sinks[0].location
        seq = 0
        for path in sorted((base / self._source).iterdir()):
            if ("match", ("true",)) in parse_facts(path.read_text()):
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{seq:05d}.dl").write_bytes(self._passed)
                seq += 1
        return {}


class ContentFilter(Workload):
    """The paper's content filter over one payload of match(v,i) facts."""

    name = "content-filter"
    program_path = CORPUS / "content_filter.lila"
    sinks = (Sink("contentFilter", "dir", "data/contentFilter", "datalog"),)
    size = 12000
    message_size = 256
    _source = "data/testContentFilter"

    def _inputs(self, rng: random.Random, size: int) -> Inputs:
        flags = [i % 2 == 0 for i in range(size)]
        rng.shuffle(flags)
        facts = [("match", ("true" if f else "false", i + 1)) for i, f in enumerate(flags)]
        kept = [("match-filtered", args) for _, args in facts if args[0] == "true"]
        return Inputs(
            {f"{self._source}/payload.dl": format_facts(facts)},
            {"contentFilter": _expect(self.sinks[0], [format_facts(kept)])},
            1,
            size,
            size,
        )

    def batch(self, seed: int) -> Inputs:
        return self._inputs(random.Random(seed), self.size)

    def messages(self, seed: int) -> list[Inputs]:
        rng = random.Random(seed)
        return [self._inputs(rng, self.message_size) for _ in range(32)]

    def baseline(self, base: Path) -> dict[str, list[bytes]]:
        out = base / self.sinks[0].location
        for seq, path in enumerate(sorted((base / self._source).iterdir())):
            kept = [
                ("match-filtered", args)
                for predicate, args in parse_facts(path.read_text())
                if predicate == "match" and args[0] == "true"
            ]
            if kept:
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{seq:05d}.dl").write_bytes(format_facts(kept))
        return {}


_SYLLABLES = ("an", "be", "ca", "do", "el", "fi", "go", "ha", "is", "jo", "ka", "lu", "mi", "no")


class SoccerStream(Workload):
    """The paper's motivating program: multicast, shared enricher, JSON both ways."""

    name = "soccer-stream"
    program_path = CORPUS / "soccer_events.lila"
    bindings = {"config": "feed"}
    split_elements = True
    sinks = (
        Sink("gByP", "mock", "twitter:feed", "json"),
        Sink("pAtB", "file", "playersAtBall.json", "json"),
    )
    events = 300
    players = 200
    unknown_per_code = 4  # events whose pId has no player row: drop-empty fires
    codes = ("Goal", "BallReception", "Pass", "Foul")
    _to_sink = {"Goal": "gByP", "BallReception": "pAtB"}

    def _world(self, seed: int):
        rng = random.Random(seed)
        ids = rng.sample(range(1, 100_000), self.players)
        table = [
            {
                "pId": pid,
                "firstN": "".join(rng.choice(_SYLLABLES) for _ in range(2)).title(),
                "lastN": "".join(rng.choice(_SYLLABLES) for _ in range(3)).title(),
            }
            for pid in ids
        ]
        per_code = self.events // len(self.codes)
        events = []
        for code in self.codes:
            for i in range(per_code):
                known = i >= self.unknown_per_code
                pid = rng.choice(ids) if known else 100_000 + rng.randrange(100_000)
                events.append({"eventCode": code, "pId": pid})
        rng.shuffle(events)
        for i, event in enumerate(events):
            event["period"] = 1 if i < len(events) // 2 else 2
            event["time"] = rng.randrange(2700)
        return table, events

    def expected_payloads(self, table, events) -> dict[str, list[bytes]]:
        """Dict join per event: each matching event with a known player is one payload."""
        names = {row["pId"]: (row["firstN"], row["lastN"]) for row in table}
        out: dict[str, list[bytes]] = {"gByP": [], "pAtB": []}
        for event in events:
            sink = self._to_sink.get(event["eventCode"])
            if sink is None or event["pId"] not in names:
                continue
            first, last = names[event["pId"]]
            record = {"period": event["period"], "time": event["time"], "firstN": first, "lastN": last}
            out[sink].append(json.dumps([record]).encode())
        return out

    def _inputs(self, table, events) -> Inputs:
        payloads = self.expected_payloads(table, events)
        return Inputs(
            {"gameEvents.json": json.dumps(events).encode(), "playerInfo.json": json.dumps(table).encode()},
            {s.name: _expect(s, payloads[s.name]) for s in self.sinks},
            len(events),
            len(events),
            len(events) + len(table),
        )

    def batch(self, seed: int) -> Inputs:
        return self._inputs(*self._world(seed))

    def messages(self, seed: int) -> list[Inputs]:
        """Ball receptions of known players: each writes one file payload.

        Goals go to the in-memory mock sink and events of the other codes
        write nothing, so a mix would make the latency distribution bimodal.
        """
        table, events = self._world(seed)
        known = {row["pId"] for row in table}
        picked = [e for e in events if e["eventCode"] == "BallReception" and e["pId"] in known]
        return [self._inputs(table, [event]) for event in picked[:64]]

    def baseline(self, base: Path) -> dict[str, list[bytes]]:
        events = json.loads((base / "gameEvents.json").read_bytes())
        table = json.loads((base / "playerInfo.json").read_bytes())
        payloads = self.expected_payloads(table, events)
        target = base / self.sinks[1].location
        for seq, payload in enumerate(payloads["pAtB"]):
            name = target.name if seq == 0 else f"{target.stem}-{seq + 1}{target.suffix}"
            (target.parent / name).write_bytes(payload)
        return {self.sinks[0].location: payloads["gByP"]}


class ClosureJoin(Workload):
    """Two halves of one chain meet at the join aggregator; recursive closure."""

    name = "closure-join"
    program_path = HERE / "programs" / "closure_join.lila"
    sinks = (Sink("paths", "file", "paths.dl", "datalog"),)
    size = 30  # edges; the fixpoint needs about this many rounds
    message_size = 12

    @staticmethod
    def closure(edges) -> list[tuple]:
        """Reachability by breadth-first search from every node."""
        succ: dict = {}
        for a, b in edges:
            succ.setdefault(a, []).append(b)
        facts = []
        for start in succ:
            seen, queue = set(), deque(succ[start])
            while queue:
                node = queue.popleft()
                if node not in seen:
                    seen.add(node)
                    queue.extend(succ.get(node, ()))
            facts += [("path", (start, node)) for node in seen]
        return facts

    def _inputs(self, rng: random.Random, size: int) -> Inputs:
        nodes = rng.sample(range(1, 1_000_000), size + 1)
        edges = list(zip(nodes, nodes[1:]))
        left = [("l", e) for e in edges[0::2]]
        right = [("r", e) for e in edges[1::2]]
        return Inputs(
            {"left.dl": format_facts(left), "right.dl": format_facts(right)},
            {"paths": _expect(self.sinks[0], [format_facts(self.closure(edges))])},
            2,
            size,
            size,
        )

    def batch(self, seed: int) -> Inputs:
        return self._inputs(random.Random(seed), self.size)

    def messages(self, seed: int) -> list[Inputs]:
        rng = random.Random(seed)
        return [self._inputs(rng, self.message_size) for _ in range(64)]

    def baseline(self, base: Path) -> dict[str, list[bytes]]:
        edges = [
            args
            for name in ("left.dl", "right.dl")
            for _, args in parse_facts((base / name).read_text())
        ]
        (base / self.sinks[0].location).write_bytes(format_facts(self.closure(edges)))
        return {}


WORKLOADS = {w.name: w for w in (FilterStream(), ContentFilter(), SoccerStream(), ClosureJoin())}
