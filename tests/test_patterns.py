"""ILP pattern operations: filter, splitter, aggregator, translator, enricher."""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lila import compile_source
from lila.cdm import MetaFact, RelationDecl, message
from lila.datalog import (
    Atom,
    DatalogProgram,
    evaluate,
    parse_atom,
    parse_program,
    parse_rule,
)
from lila.patterns import (
    AggregationError,
    AggregatorConfig,
    EnrichData,
    PatternConfigError,
    SplitConfig,
    as_ilp,
    cpc_ilp,
    crc_ilp,
    ep_ilp,
    merge_messages,
    mt_ilp,
    sc_ilp,
)
from lila.runtime import Engine, RunOptions

from .conftest import read_corpus


def fact(text: str) -> Atom:
    return parse_atom(text)


def msg(*facts: str, meta=frozenset(), properties=()):
    return message(facts={fact(f) for f in facts}, meta=meta, properties=properties)


def body_strs(m) -> set[str]:
    return {str(a) for a in m.body.facts}


# --- filter -------------------------------------------------------------------
# The paper's message filter compiles to a content filter that derives
# match-filtered, then a messageFilter node that drops messages left empty.


def run_filter(*messages):
    rg = compile_source(read_corpus("message_filter.lila"))
    engine = Engine(rg, RunOptions(capture_only=True, inject=messages))
    report = engine.run_batch()
    delivered = [facts for bucket in engine.sink_facts.values() for facts in bucket]
    return report, delivered


def test_message_filter_passes_matching():
    report, delivered = run_filter(msg('match("true")'))
    assert delivered == [frozenset({fact('match-filtered("true")')})]
    assert report.dropped == 0


def test_message_filter_drops_non_matching():
    report, delivered = run_filter(msg('match("false")'))
    assert delivered == []
    assert report.dropped == 1


def test_message_filter_drops_empty_body():
    report, delivered = run_filter(msg())
    assert delivered == []
    assert report.dropped == 1


# --- splitter -------------------------------------------------------------------


def test_splitter_one_message_per_query():
    split = SplitConfig((fact("a(x)"), fact("b(x)")))
    parts = sc_ilp(msg("a(1)", "b(2)"), split)
    assert [body_strs(p) for p in parts] == [{"a-split(1)"}, {"b-split(2)"}]


def test_splitter_empty_results_produce_no_message():
    split = SplitConfig((fact("zz(x)"),))
    assert sc_ilp(msg("a(1)"), split) == []


def test_splitter_copies_header_properties():
    split = SplitConfig((fact("a(x)"),))
    meta = RelationDecl("a", ("v",)).meta_facts()
    m = message(facts={fact("a(1)"), fact("a(2)")}, meta=meta, properties=(("k", "v"),))
    [part] = sc_ilp(m, split)
    assert body_strs(part) == {"a-split(1)", "a-split(2)"}
    assert part.header.properties == (("k", "v"),)
    assert part.header.param_names("a-split") == ("v",)  # meta renamed with the body


def test_split_and_correlation_evaluate_the_message_once(monkeypatch):
    # one evaluation answers every query of a splitter or a correlation
    import lila.patterns

    evaluator = importlib.import_module("lila.datalog.evaluate")
    original = evaluator.evaluate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lila.patterns, "evaluate", counting)
    monkeypatch.setattr(evaluator, "evaluate", counting)
    queries = (fact("a(x)"), fact("b(x)"))
    assert len(sc_ilp(msg("a(1)", "b(2)"), SplitConfig(queries))) == 2
    assert len(calls) == 1
    cfg = AggregatorConfig(completion_size=2, correlation_queries=queries)
    assert crc_ilp(msg("a(1)"), cfg) == (True, False)
    assert len(calls) == 2


# --- aggregator -------------------------------------------------------------------


def test_crc_key_is_query_vector():
    cfg = AggregatorConfig(completion_size=2, correlation_queries=(fact("g(p,t,i)"),))
    assert crc_ilp(msg("g(1,10,7)"), cfg) == (True,)
    assert crc_ilp(msg("other(1)"), cfg) == (False,)


def test_crc_two_queries_first_matches():
    cfg = AggregatorConfig(
        completion_size=2, correlation_queries=(fact("a(x)"), fact("b(x)"))
    )
    assert crc_ilp(msg("a(1)"), cfg) == (True, False)


def test_cpc_size_completion():
    cfg = AggregatorConfig(completion_size=5)
    msgs = [msg(f"a({i})") for i in range(5)]
    assert cpc_ilp(msgs, cfg, elapsed_ms=0) is True
    assert cpc_ilp(msgs[:4], cfg, elapsed_ms=10_000) is False


def test_cpc_time_completion():
    cfg = AggregatorConfig(completion_time_ms=3000)
    assert cpc_ilp([msg("a(1)")], cfg, elapsed_ms=3000) is True
    assert cpc_ilp([msg("a(1)")], cfg, elapsed_ms=2999) is False


def test_aggregator_config_requires_exactly_one_completion():
    with pytest.raises(PatternConfigError):
        AggregatorConfig(completion_size=2, completion_time_ms=100)
    with pytest.raises(PatternConfigError):
        AggregatorConfig()


def test_as_ilp_union_with_suffix():
    out = as_ilp([msg("a(1)"), msg("a(2)")])
    assert body_strs(out) == {"a-aggregate(1)", "a-aggregate(2)"}


def test_as_ilp_singleton():
    out = as_ilp([msg("a(1)")])
    assert body_strs(out) == {"a-aggregate(1)"}


def test_as_ilp_set_union_of_overlapping_bodies():
    out = as_ilp([msg("a(1)"), msg("a(1)")])
    assert body_strs(out) == {"a-aggregate(1)"}


def test_as_ilp_meta_conflict_is_error():
    m1 = message(facts={fact("a(1)")}, meta={MetaFact("a", "x", 1)})
    m2 = message(facts={fact("a(2)")}, meta={MetaFact("a", "y", 1)})
    with pytest.raises(AggregationError):
        as_ilp([m1, m2])


def test_merge_properties_first_writer_wins():
    m1 = message(facts={fact("a(1)")}, properties=(("k", "first"),))
    m2 = message(facts={fact("a(2)")}, properties=(("k", "second"), ("other", "x")))
    merged = merge_messages([m1, m2])
    assert dict(merged.header.properties) == {"k": "first", "other": "x"}


def test_splitter_aggregator_duality():
    # disjoint split queries covering all body predicates: re-aggregation
    # yields the original facts with the -split-aggregate double suffix
    m = msg("a(1)", "b(2)")
    split = SplitConfig((fact("a(x)"), fact("b(x)")))
    out = as_ilp(sc_ilp(m, split))
    assert body_strs(out) == {"a-split-aggregate(1)", "b-split-aggregate(2)"}


# --- translator / content filter ---------------------------------------------------


def test_mt_content_filter_keeps_matching_facts():
    m = msg('match("true",1)', 'match("false",2)')
    rule = parse_rule('match-filtered(matching,count):-match("true",count).')
    out = mt_ilp(m, (rule,), ["match-filtered"])
    assert body_strs(out) == {'match-filtered("true",1)'}


def test_mt_join_with_enriched_data():
    m = msg("g(1,10,7)", 'pInfo(7,"L","M")')
    rule = parse_rule("gByP(p,t,f,l):-g(p,t,i),pInfo(i,f,l).")
    out = mt_ilp(m, (rule,), ["gByP"])
    assert body_strs(out) == {'gByP(1,10,"L","M")'}


def test_mt_no_match_gives_empty_body():
    out = mt_ilp(msg("other(1)"), (parse_rule("x(a):-y(a)."),), ["x"])
    assert out.body.facts == frozenset()


def test_mt_meta_from_head_variable_names():
    m = msg("g(1,10,7)", 'pInfo(7,"L","M")')
    rule = parse_rule("gByP(period,time,firstN,lastN):-g(period,time,pId),pInfo(pId,firstN,lastN).")
    out = mt_ilp(m, (rule,), ["gByP"])
    assert out.header.param_names("gByP") == ("period", "time", "firstN", "lastN")


def test_mt_equivalence_with_plain_evaluation():
    m = msg('match("true",1)', 'match("false",2)', "g(1,10,7)")
    mapping = (
        parse_rule('match-filtered(matching,count):-match("true",count).'),
        parse_rule("g2(p):-g(p,t,i)."),
    )
    exposed = ["match-filtered", "g2"]
    out = mt_ilp(m, mapping, exposed)
    full = evaluate(DatalogProgram(m.body.facts, mapping))
    assert out.body.facts == frozenset(a for a in full if a.predicate in set(exposed))


# --- enricher ---------------------------------------------------------------------


def test_ep_unions_data_into_body():
    data = EnrichData(parse_program('pInfo(7,"Lionel","M.").'))
    out = ep_ilp(msg("g(1,10,7)"), data)
    assert body_strs(out) == {"g(1,10,7)", 'pInfo(7,"Lionel","M.")'}


def test_ep_empty_data_is_identity():
    m = msg("g(1,10,7)")
    out = ep_ilp(m, EnrichData(DatalogProgram()))
    assert out.body.facts == m.body.facts


def test_ep_into_empty_body():
    data = EnrichData(parse_program("a(1)."))
    assert body_strs(ep_ilp(msg(), data)) == {"a(1)"}


def test_ep_associative_commutative_on_fact_sets():
    m = msg("g(1,10,7)")
    d1 = EnrichData(parse_program("a(1)."))
    d2 = EnrichData(parse_program("b(2)."))
    one = ep_ilp(ep_ilp(m, d1), d2)
    other = ep_ilp(ep_ilp(m, d2), d1)
    assert one.body.facts == other.body.facts


def test_ep_meta_conflict_is_enrichment_error():
    from lila.patterns import EnrichmentError

    m = message(facts={fact("a(1)")}, meta={MetaFact("p", "x", 1)})
    data = EnrichData(parse_program("p(1)."), frozenset({MetaFact("p", "y", 1)}))
    with pytest.raises(EnrichmentError):
        ep_ilp(m, data)


def test_meta_facts_visible_to_rules_that_reference_meta():
    meta = RelationDecl("a", ("v",)).meta_facts()
    m = message(facts={fact("a(1)")}, meta=meta)
    rule = parse_rule('described(p):-meta(p,n,i).')
    out = mt_ilp(m, (rule,), ["described"])
    assert body_strs(out) == {'described("a")'}


def test_rename_rewrites_supporting_rules_and_aggregates():
    from lila.patterns import rename_predicates

    m = message(
        facts={fact("p(1)"), fact("p(5)")},
        rules=(parse_rule("top(y):-p(x),y=max(p(z))."),),
    )
    out = rename_predicates(m, "-aggregate")
    [rule] = out.body.rules
    assert rule.head.predicate == "top-aggregate"
    assert str(rule) == "top-aggregate(y):-p-aggregate(x),y=max(p-aggregate(z))."
    # the renamed program still evaluates coherently
    derived = evaluate(out.body)
    assert fact("top-aggregate(5)") in derived


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_duality_property_random_bodies(seed):
    # disjoint split queries covering all predicates: re-aggregation returns
    # the body under the double suffix, for arbitrary fact sets
    import random

    from lila.patterns import rename_predicates

    rng = random.Random(seed)
    preds = rng.sample(["a", "b", "c", "d"], rng.randint(1, 4))
    facts = set()
    for pred in preds:
        for _ in range(rng.randint(1, 4)):
            facts.add(fact(f"{pred}({rng.randint(0, 5)})"))
    m = message(facts=facts)
    split = SplitConfig(tuple(fact(f"{p}(x)") for p in preds))
    parts = sc_ilp(m, split)
    combined = as_ilp(parts)
    expected = rename_predicates(rename_predicates(m, "-split"), "-aggregate")
    assert combined.body.facts == expected.body.facts
