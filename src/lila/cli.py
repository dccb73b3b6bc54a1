"""Command line interface: check, graph, compile, run, bench.

Exit codes: 0 success, 1 validation or run failure, 2 I/O and usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .bench import BenchError, BenchScenario, emit_report, run_bench
from .diagnostics import errors as error_diags
from .ldg import LdgError, build_ldg, export_ldg_dot, prune_unused
from .parser import (
    ConfigResolutionError,
    LilaSyntaxError,
    parse,
    resolve_config,
    unresolved_placeholders,
    validate_program,
)
from .runtime import Engine, RunOptions, WiringError
from .synthesis import SynthesisError, export_rg_dot, rg_to_json, synthesize_routes

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2


def _parse_bindings(pairs: list[str]) -> dict[str, str]:
    bindings = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--bind expects key=value, got {pair!r}")
        bindings[key] = value
    return bindings


def _load_program(args, stderr):
    path = Path(args.source)
    if path.suffix != ".lila":
        print(f"error: {path} does not end in .lila", file=stderr)
        return None, EXIT_IO
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=stderr)
        return None, EXIT_IO
    try:
        program = parse(source)
        if getattr(args, "bind", None):
            program = resolve_config(program, _parse_bindings(args.bind))
    except (LilaSyntaxError, ConfigResolutionError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return None, EXIT_FAIL
    return program, EXIT_OK


def _check(program, stderr):
    """Validate and build the pruned LDG, printing diagnostics; None on error."""
    diagnostics = validate_program(program)
    for diag in diagnostics:
        print(str(diag), file=stderr)
    if error_diags(diagnostics):
        return None
    try:
        pruned = prune_unused(build_ldg(program))
    except LdgError as exc:
        print(f"error: {exc}", file=stderr)
        return None
    for warning in pruned.warnings:
        print(str(warning), file=stderr)
    return pruned


def cmd_check(args, stdout, stderr) -> int:
    program, status = _load_program(args, stderr)
    if program is None:
        return status
    return EXIT_FAIL if _check(program, stderr) is None else EXIT_OK


def _emit(text: str, out_path: str | None, stdout) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        stdout.write(text)


def _render(args, stdout, stderr, render) -> int:
    """Load and check the program, then write ``render`` of its pruned LDG."""
    program, status = _load_program(args, stderr)
    if program is None:
        return status
    ldg = _check(program, stderr)
    if ldg is None:
        return EXIT_FAIL
    try:
        text = render(ldg)
    except (LdgError, SynthesisError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_FAIL
    _emit(text, args.out, stdout)
    return EXIT_OK


def cmd_graph(args, stdout, stderr) -> int:
    if args.ldg:
        return _render(args, stdout, stderr, export_ldg_dot)
    return _render(args, stdout, stderr, lambda ldg: export_rg_dot(synthesize_routes(ldg)))


def cmd_compile(args, stdout, stderr) -> int:
    return _render(args, stdout, stderr, lambda ldg: rg_to_json(synthesize_routes(ldg)))


def cmd_run(args, stdout, stderr) -> int:
    program, status = _load_program(args, stderr)
    if program is None:
        return status
    missing = unresolved_placeholders(program)
    if missing:
        names = ", ".join(f"${m}" for m in sorted(set(missing)))
        print(f"error: unbound placeholder(s): {names}", file=stderr)
        return EXIT_FAIL
    ldg = _check(program, stderr)
    if ldg is None:
        return EXIT_FAIL
    base_dir = (
        Path(args.base_dir)
        if args.base_dir
        else Path(os.environ.get("LILA_BASE_DIR") or Path(args.source).parent)
    )
    options = RunOptions(
        base_dir=base_dir,
        split_elements=args.split_elements,
        watch_duration_ms=args.watch_duration_ms,
    )
    try:
        engine = Engine(synthesize_routes(ldg), options)
        report = engine.run_watch() if args.watch else engine.run_batch()
    except (LdgError, SynthesisError, WiringError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_FAIL
    stdout.write(report.to_json() + "\n")
    if args.strict and (report.errored or not report.conserved()):
        return EXIT_FAIL
    return EXIT_OK


def cmd_bench(args, stdout, stderr) -> int:
    try:
        scenarios = args.scenario or ["filter", "content-filter"]
        results = []
        for name in scenarios:
            sizes = tuple(args.sizes) if args.sizes else (1000, 2000, 4000, 8000)
            scenario = BenchScenario(
                name, sizes, repetitions=args.reps, warmup_runs=args.warmup
            )
            results.append(run_bench(scenario))
    except BenchError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_FAIL
    csv, dat = emit_report(results)
    if args.out:
        out = Path(args.out)
        out.write_text(csv, encoding="utf-8")
        out.with_suffix(".dat").write_text(dat, encoding="utf-8")
    else:
        stdout.write(csv)
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lila", description="Compile and run LiLa integration programs."
    )
    parser.add_argument("--version", action="version", version=f"lila {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("source", help="LiLa source file (.lila)")
        p.add_argument(
            "--bind", action="append", default=[], metavar="KEY=VALUE",
            help="bind a $placeholder in annotation URIs (repeatable)",
        )

    p_check = sub.add_parser("check", help="parse and validate a program")
    add_source(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_graph = sub.add_parser("graph", help="export the LDG or route graph as DOT")
    add_source(p_graph)
    which = p_graph.add_mutually_exclusive_group(required=True)
    which.add_argument("--ldg", action="store_true", help="dependency graph")
    which.add_argument("--rg", action="store_true", help="route graph")
    p_graph.add_argument("--out", help="write DOT to a file instead of stdout")
    p_graph.set_defaults(handler=cmd_graph)

    p_compile = sub.add_parser("compile", help="emit the route graph as JSON")
    add_source(p_compile)
    p_compile.add_argument("--out", help="write JSON to a file instead of stdout")
    p_compile.set_defaults(handler=cmd_compile)

    p_run = sub.add_parser("run", help="execute a program")
    add_source(p_run)
    p_run.add_argument("--base-dir", help="directory file endpoints resolve against")
    p_run.add_argument("--watch", action="store_true", help="poll sources until stopped")
    p_run.add_argument(
        "--watch-duration-ms", type=int, default=None, help="stop watch mode after N ms"
    )
    p_run.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any exchange errored or the run did not conserve messages",
    )
    p_run.add_argument(
        "--split-elements", action="store_true",
        help="treat each JSON array element as its own message",
    )
    p_run.set_defaults(handler=cmd_run)

    p_bench = sub.add_parser("bench", help="run the scaling benchmarks")
    p_bench.add_argument(
        "scenario", nargs="*", choices=["filter", "content-filter"],
        help="scenarios to run (default: both)",
    )
    p_bench.add_argument("--sizes", type=int, nargs="+", help="input sizes (ascending)")
    p_bench.add_argument("--reps", type=int, default=5, help="timed repetitions per size")
    p_bench.add_argument("--warmup", type=int, default=2, help="warmup rounds")
    p_bench.add_argument("--out", help="write CSV here (plus a .dat file for gnuplot)")
    p_bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    return args.handler(args, stdout, stderr)


if __name__ == "__main__":
    sys.exit(main())
