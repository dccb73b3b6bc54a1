"""CDM conversion: JSON/CSV/datalog payloads to messages and back."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lila
from lila.cdm import (
    ConversionError,
    FormatSpec,
    MetaFact,
    RelationDecl,
    SerializationError,
    from_cdm,
    message,
    to_cdm,
)
from lila.datalog import Atom, NumberConst, StringConst

from .generators import random_flat_record

MATCH_1 = RelationDecl("match", ("matching",))
MATCH_2 = RelationDecl("match", ("matching", "count"))


def atoms(body) -> set[str]:
    return {str(a) for a in body.facts}


def test_single_fact_json_to_cdm():
    msg = to_cdm(b'[{"matching" : "true"}]', FormatSpec("json", (MATCH_1,)))
    assert atoms(msg.body) == {'match("true")'}
    assert msg.header.meta_facts == frozenset({MetaFact("match", "matching", 1)})


def test_multi_fact_json_to_cdm():
    payload = b'[{"matching":"true","count":1},{"matching":"false","count":2}]'
    msg = to_cdm(payload, FormatSpec("json", (MATCH_2,)))
    assert atoms(msg.body) == {'match("true",1)', 'match("false",2)'}
    assert len(msg.header.meta_facts) == 2


def test_empty_json_payload_still_emits_meta():
    msg = to_cdm(b"[]", FormatSpec("json", (MATCH_2,)))
    assert msg.body.facts == frozenset()
    assert len(msg.header.meta_facts) == 2


def test_undeclared_fields_are_projected_away():
    msg = to_cdm(
        b'[{"matching":"true","extra":99}]', FormatSpec("json", (MATCH_1,))
    )
    assert atoms(msg.body) == {'match("true")'}


def test_missing_declared_key_is_error():
    with pytest.raises(ConversionError, match="count"):
        to_cdm(b'[{"matching":"true"}]', FormatSpec("json", (MATCH_2,)))


def test_nested_json_rejected():
    with pytest.raises(ConversionError, match="nested"):
        to_cdm(b'[{"matching":{"deep":1}}]', FormatSpec("json", (MATCH_1,)))


def test_malformed_json_rejected():
    with pytest.raises(ConversionError, match="malformed"):
        to_cdm(b"[{", FormatSpec("json", (MATCH_1,)))


def test_csv_roundtrip_with_header():
    payload = b"matching,count\ntrue,1\nfalse,2\n"
    msg = to_cdm(payload, FormatSpec("csv", (MATCH_2,)))
    assert atoms(msg.body) == {'match("true",1)', 'match("false",2)'}
    back = from_cdm(msg, FormatSpec("csv", (MATCH_2,)), ["match"])
    assert back == b"matching,count\nfalse,2\ntrue,1\n"  # deterministic sort order


def test_csv_missing_column_is_error():
    with pytest.raises(ConversionError, match="count"):
        to_cdm(b"matching\ntrue\n", FormatSpec("csv", (MATCH_2,)))


def test_csv_cell_with_trailing_newline_stays_a_string():
    payload = b'a,b\n"12\n",x\n"3.5\n",y\n'
    msg = to_cdm(payload, FormatSpec("csv", (RelationDecl("r", ("a", "b")),)))
    assert {a.terms[0] for a in msg.body.facts} == {StringConst("12\n"), StringConst("3.5\n")}


def test_strings_survive_json_to_datalog_and_back():
    values = ["x\ny", 'say "hi"', "back\\slash", "tab\there", "all\n\"\\\t"]
    decl = RelationDecl("s", ("v",))
    msg = to_cdm(json.dumps([{"v": v} for v in values]).encode(), FormatSpec("json", (decl,)))
    payload = from_cdm(msg, FormatSpec("datalog"), ["s"])
    again = to_cdm(payload, FormatSpec("datalog", (decl,)))
    assert again.body.facts == msg.body.facts
    assert {a.terms[0].value for a in again.body.facts} == set(values)


def test_datalog_passthrough():
    payload = b'match("true").\nmeta-ish(1).\nhelper(x):-match(x).'
    msg = to_cdm(payload, FormatSpec("datalog", (MATCH_1,)))
    assert 'match("true")' in atoms(msg.body)
    assert len(msg.body.rules) == 1  # supporting rules are kept


def test_from_cdm_single_predicate_json():
    msg = message(
        facts={Atom("match", (StringConst("true"), NumberConst(1)))},
        meta=MATCH_2.meta_facts(),
    )
    assert json.loads(from_cdm(msg, FormatSpec("json"), ["match"])) == [
        {"matching": "true", "count": 1}
    ]


def test_from_cdm_empty_body():
    msg = message(meta=MATCH_2.meta_facts())
    assert json.loads(from_cdm(msg, FormatSpec("json"), ["match"])) == []


def test_from_cdm_named_keys_follow_meta_positions():
    decl = RelationDecl("gByP", ("period", "time", "firstN", "lastN"))
    msg = message(
        facts={
            Atom(
                "gByP",
                (NumberConst(1), NumberConst(10), StringConst("Lionel"), StringConst("M.")),
            )
        },
        meta=decl.meta_facts(),
    )
    # applying the key-mapping rule by hand: position i -> declared name i
    assert json.loads(from_cdm(msg, FormatSpec("json"), ["gByP"])) == [
        {"period": 1, "time": 10, "firstN": "Lionel", "lastN": "M."}
    ]


def test_from_cdm_grouped_payload_for_multiple_predicates():
    a = RelationDecl("a", ("x",))
    b = RelationDecl("b", ("y",))
    msg = message(
        facts={Atom("a", (NumberConst(1),)), Atom("b", (NumberConst(2),))},
        meta=a.meta_facts() | b.meta_facts(),
    )
    assert json.loads(from_cdm(msg, FormatSpec("json"), ["a", "b"])) == {
        "a": [{"x": 1}],
        "b": [{"y": 2}],
    }


def test_from_cdm_missing_meta_is_error():
    msg = message(facts={Atom("match", (StringConst("true"),))})
    with pytest.raises(SerializationError, match="meta-facts"):
        from_cdm(msg, FormatSpec("json"), ["match"])


def test_non_ground_datalog_fact_is_conversion_error():
    # a variable in a payload fact would otherwise pass through as data
    with pytest.raises(ConversionError, match="not ground"):
        to_cdm(b"match(x).", FormatSpec("datalog"))
    # rules may use variables; only facts must be ground
    msg = to_cdm(b'match("x"). out(m):-match(m).', FormatSpec("datalog"))
    assert atoms(msg.body) == {'match("x")'}


_CONFLICT = """
from lila.cdm import ConversionError, MetaFact, merge_meta
try:
    merge_meta(frozenset({MetaFact("ev", "k", 1)}), frozenset({MetaFact("ev", "other", 1)}), "x")
except ConversionError as exc:
    print(exc)
"""


def test_meta_conflict_text_does_not_depend_on_the_hash_seed():
    src = str(Path(lila.__file__).parent.parent)
    texts = {
        subprocess.run(
            [sys.executable, "-c", _CONFLICT],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert texts == {"x: conflicting meta-facts for 'ev' position 1: 'k' vs 'other'\n"}


def test_meta_fact_completeness():
    msg = to_cdm(b'[{"matching":"true","count":2}]', FormatSpec("json", (MATCH_2,)))
    # every predicate produced by to_cdm has exactly arity-many meta-facts
    for fact in msg.body.facts:
        assert len(msg.header.param_names(fact.predicate)) == fact.arity


# --- roundtrip property -------------------------------------------------------


def _canonical(records: list[dict]) -> set[tuple]:
    # fact sets are duplicate-free, so duplicate payload records collapse
    return {tuple((k, repr(v)) for k, v in sorted(r.items())) for r in records}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_json_roundtrip(seed):
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(rng.randint(1, 4))]
    decl = RelationDecl("rel", tuple(keys))
    records = [random_flat_record(rng, keys) for _ in range(rng.randint(0, 8))]
    payload = json.dumps(records).encode()
    spec = FormatSpec("json", (decl,))
    back = json.loads(from_cdm(to_cdm(payload, spec), spec, ["rel"]))
    assert _canonical(back) == _canonical(records)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_csv_roundtrip(seed):
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(rng.randint(1, 4))]
    decl = RelationDecl("rel", tuple(keys))
    # letters-only strings so CSV numeric detection cannot reinterpret cells
    records = []
    for _ in range(rng.randint(0, 8)):
        rec = random_flat_record(rng, keys)
        records.append(rec)
    header = ",".join(keys)
    lines = [header] + [",".join(str(rec[k]) for k in keys) for rec in records]
    payload = ("\n".join(lines) + "\n").encode()
    spec = FormatSpec("csv", (decl,))
    msg = to_cdm(payload, spec)
    again = to_cdm(from_cdm(msg, spec, ["rel"]), spec)
    assert again.body.facts == msg.body.facts
