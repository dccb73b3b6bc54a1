"""Datalog core: parsing, evaluation, validation, dependency graph."""

from __future__ import annotations

import random
import sys
import time
from collections import deque

import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from lila.datalog import (
    Atom,
    DatalogProgram,
    DatalogSyntaxError,
    EvaluationError,
    NumberConst,
    evaluate,
    parse_atom,
    parse_program,
    parse_rule,
    query,
    rule_dependency_graph,
    validate,
)
from lila.datalog.parser import _ground_facts, _parse_tokens

from .generators import random_builtin_program, random_program
from .oracles import (
    brute_force_evaluate,
    naive_evaluate,
    nested_loop_join,
    nested_loop_project,
    nested_loop_select,
    nested_loop_union,
)


def atoms(result) -> set[str]:
    return {str(a) for a in result}


# --- parsing ---------------------------------------------------------------


def test_parse_facts_rules_queries():
    program = parse_program(
        """
        % facts
        e(1,2). e(2,"b").
        t(x,y):-e(x,y).
        ?-t(x,y).
        """
    )
    assert len(program.facts) == 2
    assert len(program.rules) == 1
    assert len(program.queries) == 1


def test_parse_hyphenated_identifiers():
    rule = parse_rule('match-filtered(matching):-match("true").')
    assert rule.head.predicate == "match-filtered"


def test_parse_anonymous_variable_is_fresh():
    rule = parse_rule("p(x):-q(x,_),r(_,x).")
    anon = [t.name for b in rule.body for t in b.terms if t.name.startswith("_anon")]
    assert len(anon) == len(set(anon)) == 2


def test_parse_error_position():
    with pytest.raises(DatalogSyntaxError) as err:
        parse_program("p(1)\nq(2).")
    assert err.value.line == 2
    assert "." in err.value.expected


def test_parse_negative_numbers_and_decimals():
    program = parse_program("p(-3). q(2.5).")
    values = {t.value for a in program.facts for t in a.terms}
    assert values == {-3, 2.5}


def test_roundtrip_program_text():
    source = 'e(1,2).\nt(x,z):-e(x,y),t(y,z).\n?-t(x,y).'
    program = parse_program(source)
    assert parse_program(str(program)) == program


def _typed(program: DatalogProgram):
    # NumberConst(1) == NumberConst(1.0): compare each constant's Python type too
    def term(t):
        return type(t).__name__, type(getattr(t, "value", None)).__name__, str(t)

    facts = {(a.predicate, tuple(term(t) for t in a.terms)) for a in program.facts}
    return facts, [str(r) for r in program.rules], [str(q) for q in program.queries]


def _parsed(parse, text: str):
    try:
        return "ok", _typed(parse(text))
    except DatalogSyntaxError as exc:
        return "error", str(exc), exc.line, exc.col, exc.expected


_WS = st.sampled_from(["", " ", "\n", "\t", " \n  "])
_FAST_CONST = st.one_of(
    st.integers(0, 10**20).map(str),
    st.sampled_from(["1", "1.0", "0.5", "12.25", "007"]),
    st.text(alphabet="ab %,)(.\t'", max_size=4).map(lambda s: f'"{s}"'),
)
_OTHER_CONST = st.sampled_from(
    ["-1", "- 2", "x", "_", '"a\\"b"', '"x\\ny"', "'s'", "1.", "1a", ""]
)
_OTHER_STATEMENT = st.sampled_from([
    "q(x) :- p(x).", "?- p(x).", "% note, with ) and \"\n", "r(x):-p(x),x>1.",
    "p(1", "p(1,).", 'p("a).', ").", "p(1)..", "p(1).2", "p q.", "p.5",
])


@st.composite
def _fact(draw, const):
    ws = lambda: draw(_WS)  # noqa: E731
    name = draw(st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,3}", fullmatch=True))
    args = draw(st.none() | st.lists(const, max_size=3))
    if args is None:
        return f"{name}{ws()}."
    inner = "".join((f"{ws()},{ws()}" if i else "") + a for i, a in enumerate(args))
    return f"{name}{ws()}({ws()}{inner}{ws()}){ws()}."


@st.composite
def _payload(draw):
    """A datalog payload, and whether it holds only facts the fast path reads."""
    statements, fast = [], True
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fast"] * 4 + ["other-const", "other"]))
        if kind == "fast":
            statements.append(draw(_fact(_FAST_CONST)))
            continue
        fast = False
        if kind == "other-const":
            statements.append(draw(_fact(st.one_of(_FAST_CONST, _OTHER_CONST))))
        else:
            statements.append(draw(_OTHER_STATEMENT))
    return draw(_WS).join(statements) + draw(_WS), fast


@settings(max_examples=400, deadline=None)
@given(case=_payload())
@example(case=("p.", True))
@example(case=("p()", False))
@example(case=("p( ) .\nq\n(\n1\n,\n\"a\"\n)\n.", True))
@example(case=("p(1). p(1.0). p(1.0). p(1).", True))
@example(case=("p(1.0). p(1).", True))
@example(case=('s("%", ",", ")", "(", "a b").', True))
@example(case=('s("a\\"b"). s("x\\ny").', False))
@example(case=("p(-1). p(- 2.5).", False))
@example(case=("p(1). % comment\nq(2).", False))
@example(case=("p(1). q(x) :- p(x). ?- q(y).", False))
@example(case=("p(x). q(_).", False))
@example(case=("p(1)\nq(2).", False))
def test_ground_fact_fast_path_agrees_with_the_tokenizer(case):
    text, fast = case
    note(repr(text))
    if fast:
        assert _ground_facts(text) is not None
    assert _parsed(parse_program, text) == _parsed(_parse_tokens, text)


# --- evaluation ------------------------------------------------------------


def test_transitive_closure():
    # brute-force fixpoint by hand-unrolled iteration:
    # e(1,2), e(2,3) -> t(1,2), t(2,3), then t(1,3); third pass adds nothing
    program = parse_program(
        "e(1,2). e(2,3). t(x,y):-e(x,y). t(x,z):-e(x,y),t(y,z)."
    )
    assert atoms(evaluate(program)) == {"e(1,2)", "e(2,3)", "t(1,2)", "t(2,3)", "t(1,3)"}


def test_selection_constant_in_body():
    program = parse_program('gE(1,10,"Goal",7). g(p,t,i):-gE(p,t,"Goal",i).')
    assert "g(1,10,7)" in atoms(evaluate(program))


def test_empty_program():
    assert evaluate(DatalogProgram()) == frozenset()


def test_query_selects_by_constant():
    program = parse_program('match("true"). match("false").')
    assert atoms(query(program, parse_atom('match("true")'))) == {'match("true")'}


def test_query_empty_program():
    assert query(DatalogProgram(), parse_atom("p(x)")) == frozenset()


def test_query_projects_with_constant_selector():
    program = parse_program('match("true",1). match("false",2).')
    result = query(program, parse_atom('match("true",c)'))
    assert atoms(result) == {'match("true",1)'}


def test_query_repeated_variable_requires_equality():
    program = parse_program("p(1,1). p(1,2).")
    assert atoms(query(program, parse_atom("p(x,x)"))) == {"p(1,1)"}


def test_arithmetic_assignment_and_comparison():
    program = parse_program("src(4). out(y):-src(x),y:=x+1,y>4.")
    assert "out(5)" in atoms(evaluate(program))


def test_integer_division_truncates():
    program = parse_program("src(1250). minute(m):-src(t),m:=t/600.")
    assert "minute(2)" in atoms(evaluate(program))


def test_float_division():
    program = parse_program("src(5.0). half(h):-src(x),h:=x/2.")
    assert "half(2.5)" in atoms(evaluate(program))


def test_division_by_zero_is_evaluation_error():
    program = parse_program("src(1). bad(y):-src(x),y:=x/0.")
    with pytest.raises(EvaluationError):
        evaluate(program)


def test_string_builtins():
    program = parse_program(
        """
        name("alphabet").
        c(x):-name(x),contains(x,"phab").
        s(x):-name(x),startswith(x,"alpha").
        e(x):-name(x),endswith(x,"bet").
        q(x):-name(x),equals(x,"alphabet").
        n(x):-name(x),contains(x,"zz").
        """
    )
    result = atoms(evaluate(program))
    for derived in ('c("alphabet")', 's("alphabet")', 'e("alphabet")', 'q("alphabet")'):
        assert derived in result
    assert not any(a.startswith("n(") for a in result)


def test_min_max_builtins():
    program = parse_program("p(1). p(5). p(3). hi(y):-p(x),y=max(p(z)). lo(y):-p(x),y=min(p(z)).")
    result = atoms(evaluate(program))
    assert "hi(5)" in result and "lo(1)" in result


def test_aggregate_selects_on_two_bound_positions():
    # the pattern's key spans a constant and a variable bound by the body
    program = parse_program(
        'p("a",1,5). p("a",1,7). p("a",2,9). p("b",1,11). k(1). k(2). '
        'hi(x,y):-k(x),y=max(p("a",x,z)).'
    )
    assert atoms(query(program, parse_atom("hi(x,y)"))) == {"hi(1,7)", "hi(2,9)"}


def test_comparison_on_unbound_variable_is_error():
    program = parse_program("p(1). q(x):-p(x),y>1,y:=x.")
    with pytest.raises(EvaluationError, match="unbound"):
        evaluate(program)


def test_equals_sign_binds_unbound_side():
    program = parse_program("p(2). q(y):-p(x),y=x*3.")
    assert "q(6)" in atoms(evaluate(program))


def test_assign_to_bound_variable_compares():
    # second := on an already-bound variable acts as an equality check
    program = parse_program("p(1). p(2). q(x):-p(x),x:=1.")
    assert atoms(query(program, parse_atom("q(x)"))) == {"q(1)"}


def test_iteration_cap_names_offending_rule():
    program = parse_program("n(1). n(y):-n(x),y:=x+1.")
    with pytest.raises(EvaluationError, match=r"n\(y\)"):
        evaluate(program, max_iterations=50)


def test_minute_sampling_recursion():
    # documents observed behavior for mixed := then = on the same variable
    program = parse_program(
        """
        pPos(1,600,7,1,2). pPos(1,1200,7,3,4). pPos(1,1250,9,5,6).
        pPosPerMinute(period,time,playerId,posX,posY):-
            pPos(period,millitime,playerId,posX,posY),time:=1,time=millitime/600.
        pPosPerMinute(period,time,playerId,posX,posY):-
            pPos(period,millitime,playerId,posX,posY),
            pPosPerMinute(A,previousTime,B,C,D),
            time:=previousTime+1,time=millitime/600.
        """
    )
    sampled = {a for a in evaluate(program) if a.predicate == "pPosPerMinute"}
    assert atoms(sampled) == {
        "pPosPerMinute(1,1,7,1,2)",
        "pPosPerMinute(1,2,7,3,4)",
        "pPosPerMinute(1,2,9,5,6)",
    }


def test_selection_after_a_failing_builtin_still_sees_every_row():
    # x=1 selects through the index only when nothing stands between it and
    # p; here the division must still see the row with x=0
    program = parse_program("p(0,1). p(1,2). q(x):-p(x,y),z:=y/x,x=1.")
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate(program)


def test_aggregate_reads_the_complete_lower_stratum():
    # max reads path only once it is complete; far(2)..far(4) would be the
    # maxima of a half-built path
    program = parse_program(
        "e(1,2). e(2,3). e(3,4). e(4,5). path(x,y):-e(x,y). path(x,z):-path(x,y),e(y,z). "
        "far(y):-path(1,w),y=max(path(1,z))."
    )
    assert atoms(query(program, parse_atom("far(y)"))) == {"far(5)"}


def test_aggregate_over_its_own_stratum_terminates():
    # only the aggregate reads c, so the rule must be re-fired in full each round
    bounded = parse_program("e(1). c(1). c(y):-e(x),m=max(c(z)),y:=m+1,y<=5.")
    assert atoms(query(bounded, parse_atom("c(y)"))) == {f"c({i})" for i in range(1, 6)}
    unbounded = parse_program("e(1). c(1). c(y):-e(x),m=max(c(z)),y:=m+1.")
    with pytest.raises(EvaluationError, match=r"c\(y\)"):
        evaluate(unbounded, max_iterations=50)


def test_chain_closure_scales():
    n = 200
    edges = " ".join(f"e({i},{i + 1})." for i in range(n))
    program = parse_program(edges + " path(x,y):-e(x,y). path(x,z):-path(x,y),e(y,z).")
    started = time.perf_counter()
    result = evaluate(program)
    elapsed = time.perf_counter() - started
    successors = {i: [i + 1] for i in range(n)}
    reachable = set()
    for start in range(n + 1):
        queue = deque(successors.get(start, ()))
        while queue:
            node = queue.popleft()
            reachable.add((start, node))
            queue.extend(successors.get(node, ()))
    paths = {tuple(t.value for t in a.terms) for a in result if a.predicate == "path"}
    assert paths == reachable
    assert len(result) == 20_300
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# --- relational algebra identities ------------------------------------------


def test_join_encoding_matches_nested_loop():
    program = parse_program(
        "r(1,2). r(2,2). s(2,3). s(2,4). j(x,y,z):-r(x,y),s(y,z)."
    )
    derived = {
        tuple(t.value for t in a.terms) for a in evaluate(program) if a.predicate == "j"
    }
    assert derived == nested_loop_join([(1, 2), (2, 2)], [(2, 3), (2, 4)])


def test_projection_encoding_matches_nested_loop():
    program = parse_program("r(1,2). r(3,4). p(x):-r(x,y).")
    derived = {
        tuple(t.value for t in a.terms) for a in evaluate(program) if a.predicate == "p"
    }
    assert derived == nested_loop_project([(1, 2), (3, 4)], [0])


def test_union_encoding_matches_nested_loop():
    program = parse_program("r(1,2). s(3,4). u(x,y):-r(x,y). u(x,y):-s(x,y).")
    derived = {
        tuple(t.value for t in a.terms) for a in evaluate(program) if a.predicate == "u"
    }
    assert derived == nested_loop_union([(1, 2)], [(3, 4)])


def test_selection_encoding_matches_nested_loop():
    program = parse_program("r(1,2). r(5,6). s(x,y):-r(x,y),x<3.")
    derived = {
        tuple(t.value for t in a.terms) for a in evaluate(program) if a.predicate == "s"
    }
    assert derived == nested_loop_select([(1, 2), (5, 6)], 0, lambda v: v < 3)


# --- validation --------------------------------------------------------------


def test_validate_range_restriction():
    program = parse_program("b(1). h(x):-b(y).")
    codes = {d.code for d in validate(program)}
    assert "range-restriction" in codes


def test_validate_arity_conflict():
    program = parse_program("p(1). p(1,2).")
    codes = {d.code for d in validate(program)}
    assert "arity-conflict" in codes


def test_validate_listing_style_program_is_clean():
    program = parse_program(
        """
        gE(1,10,"Goal",7).
        g(period,time,pId):-gE(period,time,"Goal",pId).
        br(period,time,pId):-gE(period,time,"BallReception",pId).
        gByP(period,time,firstN,lastN):-g(period,time,pId),pInfo(pId,firstN,lastN).
        pInfo(7,"Lionel","M.").
        """
    )
    assert validate(program) == []


def test_validate_unbound_builtin():
    program = parse_program("p(1). q(x):-p(x),y>1.")
    codes = {d.code for d in validate(program)}
    assert "unbound-builtin" in codes


# --- dependency graph --------------------------------------------------------


def test_dependency_graph_edge_direction():
    program = parse_program("g(p,t,i):-gE(p,t,i).")
    graph = rule_dependency_graph(program.rules)
    assert graph["g"] == {"gE"}


def test_dependency_graph_self_loop():
    program = parse_program("p(x):-p(y),e(y,x).")
    graph = rule_dependency_graph(program.rules)
    assert "p" in graph["p"]


def test_dependency_graph_empty():
    assert rule_dependency_graph([]) == {}


# --- invariants ---------------------------------------------------------------


def test_oracle_equivalence_sample():
    rng = random.Random(991)
    for _ in range(60):
        program = random_program(rng)
        assert evaluate(program) == brute_force_evaluate(program)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_monotonicity(seed):
    rng = random.Random(seed)
    program = random_program(rng)
    base = evaluate(program)
    arities = {a.predicate: a.arity for a in program.facts}
    for rule in program.rules:
        arities.setdefault(rule.head.predicate, rule.head.arity)
        for elem in rule.body:
            arities.setdefault(elem.predicate, elem.arity)
    arity = arities.get("p0", 1)
    extra = Atom("p0", tuple(NumberConst(99) for _ in range(arity)))
    grown = DatalogProgram(program.facts | {extra}, program.rules)
    assert evaluate(grown) >= base


def _outcome(evaluator, program):
    try:
        return evaluator(program)
    except EvaluationError:
        return EvaluationError


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_evaluate_matches_naive_oracle_with_builtins(rng):
    program = random_builtin_program(rng)
    note(str(program))
    assert _outcome(evaluate, program) == _outcome(naive_evaluate, program)


def test_fixpoint_idempotence():
    rng = random.Random(17)
    for _ in range(25):
        program = random_program(rng)
        fixed = evaluate(program)
        again = evaluate(DatalogProgram(fixed, program.rules))
        assert again == fixed


def test_equal_rules_with_int_and_float_constants_are_planned_apart():
    # NumberConst(2) == NumberConst(2.0), but the rules differ, so each
    # program runs its own constants whatever ran before it in the process
    assert parse_rule("r(y):-p(x),y:=x/2.") != parse_rule("r(y):-p(x),y:=x/2.0.")
    for text, expected in (
        ("p(5). r(y):-p(x),y:=x/2.", "r(2)"),
        ("p(5). r(y):-p(x),y:=x/2.0.", "r(2.5)"),
        ("p(5). r(y):-p(x),y:=x/2.", "r(2)"),
    ):
        assert atoms(query(parse_program(text), parse_atom("r(y)"))) == {expected}
    assert "q(1)" in atoms(evaluate(parse_program("p(1). q(1):-p(x).")))
    assert "q(1.0)" in atoms(evaluate(parse_program("p(1). q(1.0):-p(x).")))


def test_no_duplicates_by_set_semantics():
    program = parse_program("p(1). p(1). q(x):-p(x). q(x):-p(x).")
    result = evaluate(program)
    assert len(result) == len(set(result)) == 2


def test_concurrent_evaluations_are_independent():
    # evaluation is a pure function; parallel runs over distinct programs
    # must agree with their sequential results
    from concurrent.futures import ThreadPoolExecutor

    # (the plan cache is shared: start it empty, switch threads often)
    from lila.datalog.evaluate import _compile

    rng = random.Random(5150)
    programs = [random_program(rng) for _ in range(24)] * 4
    programs += [random_builtin_program(rng) for _ in range(24)] * 4
    expected = [_outcome(evaluate, p) for p in programs]
    _compile.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda p: _outcome(evaluate, p), programs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
