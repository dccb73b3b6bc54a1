"""Positive Datalog core: AST, textual syntax, stratified semi-naive evaluation.

``min``/``max`` over a lower stratum read its complete relation; see
``lila.datalog.evaluate`` for their semantics inside recursion.
"""

from .ast import (
    Aggregate,
    Arith,
    Atom,
    BuiltIn,
    DatalogProgram,
    NumberConst,
    Rule,
    StringConst,
    Term,
    Variable,
    atom_sort_key,
    normalize_rule,
)
from .parser import DatalogSyntaxError, parse_atom, parse_program, parse_rule
from .evaluate import EvaluationError, evaluate, query
from .analysis import rule_dependency_graph, validate

__all__ = [
    "Aggregate",
    "Arith",
    "Atom",
    "BuiltIn",
    "DatalogProgram",
    "DatalogSyntaxError",
    "EvaluationError",
    "NumberConst",
    "Rule",
    "StringConst",
    "Term",
    "Variable",
    "atom_sort_key",
    "evaluate",
    "normalize_rule",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "query",
    "rule_dependency_graph",
    "validate",
]
