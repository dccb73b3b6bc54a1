"""Canonical data model: messages whose body is a Datalog program.

A message header carries meta-facts ``(predicate, parameterName, position)``
describing each relation, plus free-form string properties. JSON and CSV
payloads are converted to and from the body facts; declared relations drive
the key/column mapping and the projection of undeclared fields.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass

from .datalog.ast import Atom, DatalogProgram, NumberConst, StringConst, Term, atom_sort_key
from .datalog.parser import parse_program

FORMATS = ("json", "csv", "datalog")

_INT_RE = re.compile(r"-?\d+")
_FLOAT_RE = re.compile(r"-?\d+\.\d+([eE][+-]?\d+)?")


class ConversionError(Exception):
    pass


class SerializationError(Exception):
    pass


@dataclass(frozen=True)
class MetaFact:
    predicate: str
    parameter_name: str
    position: int  # 1-based

    def as_atom(self) -> Atom:
        return Atom(
            "meta",
            (StringConst(self.predicate), StringConst(self.parameter_name), NumberConst(self.position)),
        )


@dataclass(frozen=True)
class RelationDecl:
    """A relation declaration from an annotation body, e.g. ``gE(period,time)``."""

    predicate: str
    params: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.params)

    def meta_facts(self) -> frozenset[MetaFact]:
        return frozenset(
            MetaFact(self.predicate, name, i + 1) for i, name in enumerate(self.params)
        )

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(self.params)})"


@dataclass(frozen=True)
class FormatSpec:
    format: str  # one of FORMATS
    declared_relations: tuple[RelationDecl, ...] = ()

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ConversionError(f"unsupported format {self.format!r}")


@dataclass(frozen=True)
class MessageHeader:
    meta_facts: frozenset[MetaFact] = frozenset()
    properties: tuple[tuple[str, str], ...] = ()

    def param_names(self, predicate: str) -> tuple[str, ...]:
        metas = sorted(
            (m for m in self.meta_facts if m.predicate == predicate),
            key=lambda m: m.position,
        )
        return tuple(m.parameter_name for m in metas)


@dataclass(frozen=True)
class Message:
    """Immutable unit flowing through channels; transformations build new ones."""

    header: MessageHeader = MessageHeader()
    body: DatalogProgram = DatalogProgram()

    def facts_of(self, predicate: str) -> list[Atom]:
        return sorted((a for a in self.body.facts if a.predicate == predicate), key=atom_sort_key)


def message(
    facts=(), rules=(), meta: frozenset[MetaFact] | set[MetaFact] = frozenset(), properties=()
) -> Message:
    """Convenience constructor used throughout tests and the benchmark."""
    return Message(
        MessageHeader(frozenset(meta), tuple(properties)),
        DatalogProgram(frozenset(facts), tuple(rules)),
    )


def _term_from_json(value, record_index: int, key: str) -> Term:
    if isinstance(value, bool):
        return StringConst("true" if value else "false")
    if isinstance(value, (int, float)):
        return NumberConst(value)
    if isinstance(value, str):
        return StringConst(value)
    raise ConversionError(
        f"record {record_index}: key {key!r} has non-scalar value {value!r}; "
        "nested JSON is not supported"
    )


def _term_from_csv(cell: str) -> Term:
    if _INT_RE.fullmatch(cell):
        return NumberConst(int(cell))
    if _FLOAT_RE.fullmatch(cell):
        return NumberConst(float(cell))
    return StringConst(cell)


def _match_decl(record: dict, decls: tuple[RelationDecl, ...], index: int) -> RelationDecl:
    if len(decls) == 1:
        decl = decls[0]
        for key in decl.params:
            if key not in record:
                raise ConversionError(f"record {index} is missing declared key {key!r}")
        return decl
    matching = [d for d in decls if all(k in record for k in d.params)]
    if len(matching) == 1:
        return matching[0]
    if not matching:
        raise ConversionError(
            f"record {index} matches no declared relation (keys: {sorted(record)})"
        )
    names = ", ".join(d.predicate for d in matching)
    raise ConversionError(f"record {index} matches multiple declared relations: {names}")


def _json_to_facts(payload: bytes, decls: tuple[RelationDecl, ...]) -> set[Atom]:
    try:
        data = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ConversionError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(data, list):
        raise ConversionError("JSON payload must be an array of flat objects")
    facts: set[Atom] = set()
    for i, record in enumerate(data):
        if not isinstance(record, dict):
            raise ConversionError(f"record {i} is not an object")
        decl = _match_decl(record, decls, i)
        terms = []
        for key in decl.params:
            if key not in record or record[key] is None:
                raise ConversionError(f"record {i} is missing declared key {key!r}")
            terms.append(_term_from_json(record[key], i, key))
        facts.add(Atom(decl.predicate, tuple(terms)))
    return facts


def _csv_to_facts(payload: bytes, decls: tuple[RelationDecl, ...]) -> set[Atom]:
    if len(decls) != 1:
        raise ConversionError("CSV conversion requires exactly one declared relation")
    decl = decls[0]
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConversionError(f"CSV payload is not UTF-8: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        return set()
    for key in decl.params:
        if key not in reader.fieldnames:
            raise ConversionError(f"CSV header is missing declared column {key!r}")
    facts: set[Atom] = set()
    for i, row in enumerate(reader):
        terms = []
        for key in decl.params:
            cell = row.get(key)
            if cell is None:
                raise ConversionError(f"record {i} is missing declared key {key!r}")
            terms.append(_term_from_csv(cell))
        facts.add(Atom(decl.predicate, tuple(terms)))
    return facts


def to_cdm(payload: bytes, spec: FormatSpec) -> Message:
    """Convert a payload in the declared format to a CDM message.

    One fact per record; undeclared fields are dropped; meta-facts for all
    declared relations are placed in the header. ``datalog`` payloads pass
    through parsed, without projection; their facts must be ground. A CSV
    cell is a number only when all of it is one. The conversion is pure, so
    a caller may keep its result for as long as the payload is unchanged (the
    runtime does so for enrichment resources).
    """
    meta = frozenset(m for d in spec.declared_relations for m in d.meta_facts())
    if spec.format == "datalog":
        try:
            body = parse_program(payload.decode("utf-8"))
        except Exception as exc:
            raise ConversionError(f"malformed datalog payload: {exc}") from exc
        for fact in body.facts:
            if not fact.is_ground():
                raise ConversionError(f"datalog payload fact {fact} is not ground")
        return Message(MessageHeader(meta), body)
    if not spec.declared_relations:
        raise ConversionError(f"{spec.format} conversion requires declared relations")
    if spec.format == "json":
        facts = _json_to_facts(payload, spec.declared_relations)
    else:
        facts = _csv_to_facts(payload, spec.declared_relations)
    return Message(MessageHeader(meta), DatalogProgram(frozenset(facts)))


def _json_value(term: Term):
    if isinstance(term, NumberConst):
        return term.value
    if isinstance(term, StringConst):
        return term.value
    raise SerializationError(f"cannot serialize non-ground term {term}")


def _records_for(message: Message, predicate: str) -> list[dict]:
    names = message.header.param_names(predicate)
    facts = message.facts_of(predicate)
    if not names:
        if facts:
            raise SerializationError(
                f"no meta-facts for exposed predicate '{predicate}'; parameter names unknown"
            )
        return []
    records = []
    for fact in facts:
        if fact.arity != len(names):
            raise SerializationError(
                f"fact {fact} does not match meta-facts of '{predicate}' (arity {len(names)})"
            )
        records.append({name: _json_value(t) for name, t in zip(names, fact.terms)})
    return records


def from_cdm(message: Message, spec: FormatSpec, exposed_predicates: list[str]) -> bytes:
    """Serialize the facts of the exposed predicates to the target format.

    JSON with a single exposed predicate emits a flat array of objects; with
    several predicates the records are grouped per predicate name. CSV
    supports exactly one exposed predicate. Output ordering follows the
    deterministic atom sort.
    """
    if spec.format == "datalog":
        exposed = set(exposed_predicates)
        facts = sorted((a for a in message.body.facts if a.predicate in exposed), key=atom_sort_key)
        text = "\n".join(f"{a}." for a in facts)
        return (text + "\n" if text else "").encode("utf-8")
    for predicate in exposed_predicates:
        if message.facts_of(predicate) and not message.header.param_names(predicate):
            raise SerializationError(
                f"no meta-facts for exposed predicate '{predicate}'; parameter names unknown"
            )
    if spec.format == "json":
        if len(exposed_predicates) == 1:
            payload = _records_for(message, exposed_predicates[0])
        else:
            payload = {p: _records_for(message, p) for p in sorted(exposed_predicates)}
        return json.dumps(payload).encode("utf-8")
    # csv
    if len(exposed_predicates) != 1:
        raise SerializationError("CSV serialization requires exactly one exposed predicate")
    predicate = exposed_predicates[0]
    names = message.header.param_names(predicate)
    if not names:
        raise SerializationError(
            f"no meta-facts for exposed predicate '{predicate}'; column names unknown"
        )
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(names), lineterminator="\n")
    writer.writeheader()
    for record in _records_for(message, predicate):
        writer.writerow(record)
    return out.getvalue().encode("utf-8")


def merge_meta(
    left: frozenset[MetaFact], right: frozenset[MetaFact], context: str
) -> frozenset[MetaFact]:
    """Union meta-facts, rejecting conflicting parameter naming per predicate."""
    merged = left | right
    by_key: dict[tuple[str, int], str] = {}
    for m in sorted(merged, key=lambda m: (m.predicate, m.position, m.parameter_name)):
        key = (m.predicate, m.position)
        other = by_key.setdefault(key, m.parameter_name)
        if other != m.parameter_name:
            raise ConversionError(
                f"{context}: conflicting meta-facts for '{m.predicate}' position {m.position}: "
                f"{other!r} vs {m.parameter_name!r}"
            )
    return merged
