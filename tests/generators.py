"""Seeded random generators shared by oracle-equivalence and roundtrip tests."""

from __future__ import annotations

import random
import string

from lila.datalog.ast import (
    ASSIGN_OP,
    Aggregate,
    Arith,
    Atom,
    BuiltIn,
    DatalogProgram,
    NumberConst,
    Rule,
    StringConst,
    Variable,
)


def random_program(rng: random.Random) -> DatalogProgram:
    """Small positive program without built-ins, range-restricted by construction.

    Bounds follow the oracle-equivalence check: at most 4 predicates of arity
    up to 3, 20 facts, 5 rules, over a small constant pool.
    """
    n_preds = rng.randint(1, 4)
    preds = [(f"p{i}", rng.randint(1, 3)) for i in range(n_preds)]
    consts = [NumberConst(i) for i in range(rng.randint(2, 5))]
    consts += [StringConst(c) for c in string.ascii_lowercase[: rng.randint(1, 3)]]

    facts = set()
    for _ in range(rng.randint(0, 20)):
        name, arity = rng.choice(preds)
        facts.add(Atom(name, tuple(rng.choice(consts) for _ in range(arity))))

    var_names = ["x", "y", "z", "w"]
    rules = []
    for _ in range(rng.randint(0, 5)):
        head_name, head_arity = rng.choice(preds)
        body = []
        body_vars: list[Variable] = []
        for _ in range(rng.randint(1, 3)):
            name, arity = rng.choice(preds)
            terms = []
            for _ in range(arity):
                if rng.random() < 0.7:
                    v = Variable(rng.choice(var_names))
                    terms.append(v)
                    body_vars.append(v)
                else:
                    terms.append(rng.choice(consts))
            body.append(Atom(name, tuple(terms)))
        if not body_vars:
            body_vars = [Variable("x")]
            body[0] = Atom(body[0].predicate, (Variable("x"),) + body[0].terms[1:])
        head_terms = tuple(
            rng.choice(body_vars) if rng.random() < 0.8 else rng.choice(consts)
            for _ in range(head_arity)
        )
        rules.append(Rule(Atom(head_name, head_terms), tuple(body)))
    return DatalogProgram(frozenset(facts), tuple(rules))


_NUM, _STR = "num", "str"


def _random_builtin(rng: random.Random, bound: dict[str, str], columns: dict) -> list[BuiltIn]:
    """One built-in over the variables bound so far (name -> column type).

    May bind a fresh numeric variable; its value is capped at 5 so that
    recursion through arithmetic reaches a fixpoint.
    """
    nums = [Variable(v) for v, kind in bound.items() if kind == _NUM]
    strs = [Variable(v) for v, kind in bound.items() if kind == _STR]
    small = [NumberConst(i) for i in range(4)]
    texts = [StringConst(c) for c in ("a", "ab", "b", "ba")]
    fresh = Variable(f"v{len(bound)}")
    kind = rng.random()
    if kind < 0.2 and nums:
        other = rng.choice(nums + small)
        return [BuiltIn(rng.choice(("<", ">", "<=", ">=")), rng.choice(nums), other)]
    if kind < 0.35 and strs:
        op = rng.choice(("equals", "contains", "startswith", "endswith"))
        return [BuiltIn(op, rng.choice(strs), rng.choice(strs + texts))]
    if kind < 0.55 and bound:
        # selection on a bound variable: `x = c`, `c = x` or `x := c`
        var = Variable(rng.choice(list(bound)))
        const = rng.choice(small if bound[var.name] == _NUM else texts)
        op = rng.choice(("=", "=", ASSIGN_OP))
        return [BuiltIn(op, const, var) if op == "=" and rng.random() < 0.3 else BuiltIn(op, var, const)]
    if kind < 0.8 and nums:
        expr = Arith(rng.choice(("+", "*", "/")), rng.choice(nums), rng.choice(nums + small[1:]))
        bound[fresh.name] = _NUM
        if rng.random() < 0.3:
            step = BuiltIn("=", expr, fresh)
        else:
            step = BuiltIn(rng.choice((ASSIGN_OP, "=")), fresh, expr)
        return [step, BuiltIn("<=", fresh, NumberConst(5))]
    if kind < 0.9 and strs:
        bound[fresh.name] = _STR
        return [BuiltIn(rng.choice((ASSIGN_OP, "=")), fresh, rng.choice(strs))]
    # min/max over a fact-only predicate with a numeric column
    name = rng.choice(("e0", "e1"))
    numeric = [i for i, k in enumerate(columns[name]) if k == _NUM]
    if not numeric:
        return []
    collect = rng.choice(numeric)
    terms = []
    for i, k in enumerate(columns[name]):
        if i == collect:
            terms.append(Variable(f"agg{len(bound)}"))
            continue
        pool = nums if k == _NUM else strs
        terms.append(rng.choice(pool) if pool and rng.random() < 0.5 else rng.choice(small if k == _NUM else texts))
    bound[fresh.name] = _NUM
    return [BuiltIn("=", fresh, Aggregate(rng.choice(("min", "max")), Atom(name, tuple(terms))))]


def random_builtin_program(rng: random.Random) -> DatalogProgram:
    """Small program with built-ins and recursion, range-restricted by construction.

    Columns are typed (number or string), so most built-ins see operands of
    the right kind. ``e0``/``e1`` only have facts, so ``min``/``max`` (which
    read only them) see complete relations; ``i0``..``i2`` are derived, often
    recursively. Built-ins follow any body atom, so selections sit both
    directly behind the atom that binds their variable and further away.
    """
    columns = {
        name: tuple(rng.choice((_NUM, _NUM, _STR)) for _ in range(rng.randint(1, 3)))
        for name in ("e0", "e1", "i0", "i1", "i2")
    }
    small = [NumberConst(i) for i in range(4)]
    texts = [StringConst(c) for c in ("a", "ab", "b", "ba")]

    def const(kind):
        return rng.choice(small if kind == _NUM else texts)

    facts = set()
    for _ in range(rng.randint(4, 24)):
        name = rng.choice(list(columns))
        facts.add(Atom(name, tuple(const(k) for k in columns[name])))

    rules = []
    for _ in range(rng.randint(1, 5)):
        bound: dict[str, str] = {}
        body = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(list(columns))
            terms = []
            for kind in columns[name]:
                pool = [v for v, k in bound.items() if k == kind]
                if rng.random() < 0.2:
                    terms.append(const(kind))
                elif pool and rng.random() < 0.5:
                    terms.append(Variable(rng.choice(pool)))
                else:
                    var = f"v{len(bound)}"
                    bound[var] = kind
                    terms.append(Variable(var))
            body.append(Atom(name, tuple(terms)))
            if rng.random() < 0.4:
                body += _random_builtin(rng, bound, columns)
        for _ in range(rng.randint(0, 2)):
            body += _random_builtin(rng, bound, columns)
        head = rng.choice(("i0", "i1", "i2"))
        head_terms = []
        for kind in columns[head]:
            pool = [v for v, k in bound.items() if k == kind]
            head_terms.append(Variable(rng.choice(pool)) if pool and rng.random() < 0.85 else const(kind))
        rules.append(Rule(Atom(head, tuple(head_terms)), tuple(body)))
    return DatalogProgram(frozenset(facts), tuple(rules))


def random_flat_record(rng: random.Random, keys: list[str]) -> dict:
    record = {}
    for key in keys:
        kind = rng.random()
        if kind < 0.4:
            record[key] = rng.randint(-50, 50)
        elif kind < 0.55:
            record[key] = round(rng.uniform(-5, 5), 3)
        else:
            record[key] = "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 8)))
    return record


def random_lila_program(rng: random.Random) -> tuple[str, dict[str, str]]:
    """Aggregator/splitter-free LiLa program plus JSON fixture files.

    Sources declare fresh relations, processors apply random selections,
    projections and joins, and goals expose produced predicates. Acyclic by
    construction; every rule is range-restricted.
    """
    import json

    lines = []
    fixtures: dict[str, str] = {}
    produced: list[tuple[str, int]] = []  # (predicate, arity)

    values_int = list(range(4))
    values_str = ["a", "b", "c"]

    def random_value(rng):
        return rng.choice(values_int) if rng.random() < 0.6 else rng.choice(values_str)

    n_sources = rng.randint(1, 2)
    for s in range(n_sources):
        arity = rng.randint(1, 3)
        pred = f"src{s}"
        params = [f"f{i}" for i in range(arity)]
        records = [
            {p: random_value(rng) for p in params} for _ in range(rng.randint(2, 6))
        ]
        fixtures[f"{pred}.json"] = json.dumps(records)
        lines.append(f"@from(file:{pred}.json,json)")
        lines.append("{" + f"{pred}({','.join(params)})." + "}")
        produced.append((pred, arity))

    n_procs = rng.randint(2, 5)
    for p in range(n_procs):
        head = f"p{p}"
        kind = rng.random()
        base, base_arity = rng.choice(produced)
        body_vars = [f"v{i}" for i in range(base_arity)]
        if kind < 0.35:
            # selection: one argument pinned to a constant
            pos = rng.randrange(base_arity)
            value = random_value(rng)
            const = f'"{value}"' if isinstance(value, str) else str(value)
            args = list(body_vars)
            args[pos] = const
            head_vars = [v for i, v in enumerate(body_vars) if i != pos] or [body_vars[0]]
            if head_vars == [body_vars[0]] and pos == 0:
                head_vars = body_vars[1:] or None
            if not head_vars:
                continue
            lines.append(f"{head}({','.join(head_vars)}):-{base}({','.join(args)}).")
            produced.append((head, len(head_vars)))
        elif kind < 0.7 or len(produced) < 2:
            # projection: keep a random non-empty subset, shuffled
            keep = rng.sample(body_vars, rng.randint(1, base_arity))
            lines.append(f"{head}({','.join(keep)}):-{base}({','.join(body_vars)}).")
            produced.append((head, len(keep)))
        else:
            # join on one shared variable
            other, other_arity = rng.choice(produced)
            left = [f"l{i}" for i in range(base_arity)]
            right = [f"r{i}" for i in range(other_arity)]
            li = rng.randrange(base_arity)
            ri = rng.randrange(other_arity)
            right[ri] = left[li]
            head_vars = left + [v for v in right if v not in left]
            lines.append(
                f"{head}({','.join(head_vars)}):-{base}({','.join(left)}),{other}({','.join(right)})."
            )
            produced.append((head, len(head_vars)))

    n_goals = rng.randint(1, 2)
    goal_preds = set()
    for g in range(n_goals):
        count = rng.randint(1, 2)
        exposed = sorted({rng.choice(produced)[0] for _ in range(count)})
        goal_preds.update(exposed)
        lines.append(f"@to(file:out{g}.json,json)")
        lines.append("{" + "\n".join(exposed) + "}")

    return "\n".join(lines) + "\n", fixtures
