"""LiLa: a Datalog-based rule language for message integration.

The package is organized along the compiler pipeline:

    parser      LiLa source text -> LilaProgram
    ldg         LilaProgram -> LiLa dependency graph (LDG)
    synthesis   LDG -> Route Graph (RG) via pattern detection/rewriting
    runtime     RG execution: endpoints, channels, ILP pattern nodes
    datalog     positive Datalog core (AST, parser, fixpoint evaluation)
    cdm         canonical data model: messages, JSON/CSV converters
    patterns    integration patterns evaluated as Datalog (ILP)
    bench       scaling benchmarks against an imperative baseline
    cli         `lila check|graph|compile|run|bench`
"""

from __future__ import annotations

__version__ = "0.1.0"


class LilaError(Exception):
    """A program that fails validation; raised by ``compile_source``."""


def compile_source(source: str, bindings: dict[str, str] | None = None):
    """Parse, validate and synthesize a LiLa program into a RouteGraph.

    Convenience wrapper over the full pipeline; raises on the first
    error-severity diagnostic.
    """
    from . import parser as lila_parser
    from .ldg import build_ldg, prune_unused
    from .synthesis import synthesize_routes

    program = lila_parser.parse(source)
    if bindings:
        program = lila_parser.resolve_config(program, bindings)
    errors = [d for d in lila_parser.validate_program(program) if d.severity == "error"]
    if errors:
        raise LilaError("; ".join(str(d) for d in errors))
    graph = prune_unused(build_ldg(program))
    return synthesize_routes(graph)
