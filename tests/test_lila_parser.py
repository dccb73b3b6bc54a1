"""LiLa source parsing, config resolution and program validation."""

from __future__ import annotations

import pytest

from lila.diagnostics import errors
from lila.parser import (
    ConfigResolutionError,
    LilaSyntaxError,
    auto_exposed,
    format_program,
    parse,
    parse_completion,
    resolve_config,
    resolved_exposed,
    validate_program,
)

from .conftest import SYNTHETIC, read_corpus

# compatibility fixtures: sources exercising every grammar tolerance the
# parser promises (brace heads, omitted formats, selection-shorthand rules)
VERBATIM_FACT_SOURCE = """\
@from(file:gameEvents.json,json)
{gE(period,time,eventCode,pId).}
@to(file:out.json)
{gE}
"""

VERBATIM_SPLITTER = """\
@from(file:in.dl,datalog)
{a(x).}
@split()
{ ?-a(x). }
@to(file:out.dl)
{a-split}
"""

VERBATIM_AGGREGATOR = """\
@from(file:in.dl,datalog)
{a(x).}
@aggregate(union,completionSize=5)
{ ?-a(x). }
@to(file:out.dl)
{a-aggregate}
"""

VERBATIM_MESSAGE_FILTER = """\
@from(file:data/testMessageFilter)
{match(matching).}
match-filtered(matching):-match("true").
@to(file:data/filtered)
"""

VERBATIM_CONTENT_FILTER = """\
@from(file:data/testContentFilter)
{  match(matching,count). }

match-filtered(matching,count):-match("true",count).

@to(file:data/contentFilter)
{  match-filtered  }
"""

# extended scenario in its loosest accepted form: brace-delimited @to heads,
# an @enrich parameter name that differs from the rules, and recursive rules
# that drop an argument; it must parse even though validation would flag it
VERBATIM_EXTENDED = """\
@from(file:gameEvents.json,json)
{gE(period,time,eventCode,pId).}

@from(file:playerPosition.json,json)
{pPos(period,time,playerId,posX,posY).}

g(period,time,pId):-gE(period,time,"Goal",pId).
p(period,time,pId):-gE(period,time,"BallReception",pId).

gByP(period,time,pId,firstN,lastN):-g(period,time,pId),pInfo(pId,firstN,lastN).
pAtB(period,time,pId,firstN,lastN):-p(period,time,pId),pInfo(pId,firstN,lastN).

posAtShotOnGoal(period,time,firstN,lastN,posX,posY):-gByP(period,time,pId,firstN,lastN),pPos(period,time,pId,posX,posY).

pPosPerMinute(period,time,playerId,posX,posY):-pPos(period,millitime,posX,posY),time:=1,time=millitime/600.
pPosPerMinute(period,time,playerId,posX,posY):-pPos(period,millitime,posX,posY),pPosPerMinute(A,previousTime,B,C,D),time:=previousTime+1,time=millitime/600.

@enrich(playerInfo.json,json)
{pInfo(pId,firstN,last).}

@to(twitter:$config,json)
{gByP}

@to(file:playersAtBall.json)
{pAtB}

@to{file:positionAtShotOnGoal}
{posAtShotOnGoal}

@to{jdbc:soccerDatabase}
{pPosPerMinute}
"""


def test_parse_soccer_program(soccer_source):
    program = parse(soccer_source)
    names = [a.name for a in program.annotations]
    assert names == ["from", "enrich", "to", "to"]
    assert len(program.rules) == 4
    assert program.annotations[0].declarations[0].predicate == "gE"
    assert program.annotations[2].exposed == ("gByP",)


def test_parse_split_annotation():
    program = parse("@from(file:x.dl,datalog)\n{a(v).}\n@split() { ?-a(x). }\n@to(file:y.dl)\n{a-split}")
    split = [a for a in program.annotations if a.name == "split"][0]
    assert [str(q) for q in split.queries] == ["a(x)"]


def test_grammar_accepts_legacy_listings_verbatim():
    for source in (
        VERBATIM_FACT_SOURCE,
        VERBATIM_SPLITTER,
        VERBATIM_AGGREGATOR,
        VERBATIM_MESSAGE_FILTER,
        VERBATIM_CONTENT_FILTER,
        VERBATIM_EXTENDED,
    ):
        parse(source)  # must not raise


def test_brace_delimited_head_warns_and_normalizes():
    program = parse(VERBATIM_EXTENDED)
    codes = {w.code for w in program.warnings}
    assert "brace-head" in codes
    brace_tos = [a for a in program.annotations if a.name == "to" and a.uri.startswith("jdbc")]
    assert brace_tos[0].params == ("jdbc:soccerDatabase",)


def test_from_without_format_warns_and_defaults():
    program = parse(VERBATIM_MESSAGE_FILTER)
    assert any(w.code == "missing-format" for w in program.warnings)
    source = program.annotations[0]
    assert source.format() == "datalog"  # no .json/.csv suffix


def test_format_defaults_by_uri_suffix():
    program = parse("@from(file:x.json)\n{r(a).}\n@to(file:y.csv)\n{r}")
    assert program.annotations[0].format() == "json"
    assert program.annotations[1].format() == "csv"


def test_unknown_annotation_is_error():
    with pytest.raises(LilaSyntaxError, match="unknown annotation"):
        parse("@frum(file:x.json,json)\n{r(a).}")


def test_head_arity_errors():
    with pytest.raises(LilaSyntaxError, match="parameter"):
        parse("@from(a,b,c)\n{r(x).}")
    with pytest.raises(LilaSyntaxError, match="parameter"):
        parse("@split(x)\n{?-a(x).}")
    with pytest.raises(LilaSyntaxError, match="parameter"):
        parse("@enrich(file.json)\n{r(x).}")


def test_syntax_error_carries_position():
    with pytest.raises(LilaSyntaxError) as err:
        parse("@from(file:x.json,json)\n{gE(period time).}")
    assert err.value.line == 2


def test_non_ground_inline_fact_reports_its_own_position():
    source = (
        "@from(file:x.json,json)\n{r(a).}\n"
        "c(1).\n"
        "p(x):-r(x),c(x).\n"
        "% the offending fact follows\n"
        "d(y).\n"
        "@to(file:y.json,json)\n{p}"
    )
    with pytest.raises(LilaSyntaxError, match=r"^6:1: fact d\(y\) contains variables"):
        parse(source)


def test_placeholders_preserved_then_resolved():
    program = parse(read_corpus("soccer_events.lila"))
    twitter = [a for a in program.annotations if a.uri.startswith("twitter")][0]
    assert twitter.uri == "twitter:$config"
    resolved = resolve_config(program, {"config": "mock:tweets"})
    twitter = [a for a in resolved.annotations if a.uri.startswith("twitter")][0]
    assert twitter.uri == "twitter:mock:tweets"


def test_resolve_config_identity_without_placeholders():
    program = parse(read_corpus("synthetic/minimal.lila"))
    assert resolve_config(program, {}) == program


def test_resolve_config_missing_binding():
    program = parse(read_corpus("soccer_events.lila"))
    with pytest.raises(ConfigResolutionError, match="config"):
        resolve_config(program, {"other": "x"})


def test_auto_exposed_picks_terminal_predicates():
    program = parse(VERBATIM_MESSAGE_FILTER)
    assert auto_exposed(program) == ("match-filtered",)
    goal = [a for a in program.annotations if a.name == "to"][0]
    assert resolved_exposed(program, goal) == ("match-filtered",)


def test_parse_completion_forms():
    assert parse_completion("completionSize=5") == ("size", 5)
    assert parse_completion("completionTime=3") == ("time", 3000)
    assert parse_completion("completionTime=0.2") == ("time", 200)
    assert parse_completion("completionSize=0") is None
    assert parse_completion("bogus") is None


# --- validation -----------------------------------------------------------------


def test_validate_program_without_goal():
    program = parse("@from(file:x.json,json)\n{r(a).}")
    codes = {d.code for d in errors(validate_program(program))}
    assert "missing-to" in codes


def test_validate_unknown_exposed_predicate():
    program = parse("@from(file:x.json,json)\n{r(a).}\n@to(file:y.json,json)\n{zzz}")
    codes = {d.code for d in errors(validate_program(program))}
    assert "unreachable-predicate" in codes


def test_validate_corpus_programs_clean(soccer_source, soccer_extended_source):
    for source in (soccer_source, soccer_extended_source):
        assert errors(validate_program(parse(source))) == []


def test_validate_all_synthetic_programs_clean():
    for path in SYNTHETIC:
        program = parse(path.read_text())
        assert errors(validate_program(program)) == [], path.name


def test_validate_declared_arity_disagreement():
    # a rule, a splitter query and an inline fact, each against the declaration
    for body in (
        "out(x):-a(x).\n@to(file:y.json,json)\n{out}",
        "@split()\n{?-a(x).}\nb(x):-a-split(x).\n@to(file:out)\n{b}",
        "a(1).\n@to(file:out)\n{a}",
    ):
        program = parse("@from(file:in.dl,datalog)\n{a(x,y).}\n" + body)
        conflicts = [d for d in errors(validate_program(program)) if d.code == "arity-conflict"]
        assert [d.message for d in conflicts] == ["predicate 'a' used with arity 1 and 2"], body


def test_validate_bad_aggregate_params():
    program = parse(
        "@from(file:x.dl,datalog)\n{a(v).}\n"
        "@aggregate(intersect,completionSize=2)\n{?-a(v).}\n"
        "@to(file:y.dl)\n{a-aggregate}"
    )
    codes = {d.code for d in errors(validate_program(program))}
    assert "bad-strategy" in codes


# --- printing roundtrip ------------------------------------------------------------


@pytest.mark.parametrize("path", SYNTHETIC, ids=lambda p: p.stem)
def test_print_parse_roundtrip_synthetic(path):
    program = parse(path.read_text())
    assert parse(format_program(program)) == program


def test_print_parse_roundtrip_corpus(soccer_source, soccer_extended_source):
    for source in (soccer_source, soccer_extended_source):
        program = parse(source)
        assert parse(format_program(program)) == program


def test_validate_csv_goal_with_multiple_predicates():
    program = parse(
        "@from(file:x.json,json)\n{r(a).}\ns(a):-r(a).\n"
        "@to(file:y.csv,csv)\n{r\ns}"
    )
    codes = {d.code for d in errors(validate_program(program))}
    assert "csv-multi-predicate" in codes


def test_print_parse_roundtrip_generated_programs():
    import random

    from .generators import random_lila_program

    for seed in range(25):
        source, _ = random_lila_program(random.Random(seed))
        program = parse(source)
        assert parse(format_program(program)) == program
