"""End-to-end and per-layer benchmark of the LiLa compiler and runtime.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload filter-stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The seeded input files sit under a base directory inside the checkout
(``.perfbench_work``). A batch times ``Engine(rg, RunOptions(base_dir=...))``
plus ``run_batch()`` until every sink byte is written, with the options
``lila run`` uses, the default worker pool included. One client drives the
batches in a closed loop. Every sink output is checked against the
workload's reference and then deleted.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer split: it times the compile stages and the runtime's calls into
the cdm, datalog and patterns layers from outside, on batches interleaved
with untraced ones. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

from spans import COMPILE_BOUNDARIES, RUN_BOUNDARIES, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS, count_failures  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "facts_per_s": "facts/s",
    "msg_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
# Printed, without a bound. The 90th percentile of a one-message batch on
# filter-stream is thread wake-ups, which a busy host delays: its spread over
# ten seeds reached 0.37 on a 2-vCPU VM, above the largest bound allowed. The
# baseline is mostly file creation on filter-stream and soccer-stream, whose
# cost swings up to 3x between runs on ext4. failed_frac is 0 on a correct
# program and is carried by `failed`/`attempted`.
UNBOUNDED = {"msg_ms_p90": "ms", "baseline_ratio": "ratio", "failed_frac": "ratio"}
RUNTIME_COUNTS = ("consumed", "produced", "dropped", "errored", "replicated", "merged")
SIZE_UNITS = {"bytes": "bytes", "facts": "count", "facts_out": "count"}

SETUP_WARMUP = 5  # compiles before timing: first-call imports and caches
COMPILES_PER_ROUND = 8  # setup_s is the median of all timed compiles
MIN_ROUNDS = 5  # even when a round outlasts --seconds
MIN_PROBES = 200  # one-message batches; p90 then has 20 samples beyond it
PROBE_SHARE = 1 / 3  # probe time per round, against the round's full batches
TRACED_COMPILES = 41


def layer_units() -> dict[str, str]:
    """Per-layer metric names, in report order, with their units."""
    units = {f"{b.label}.s": "s" for b in COMPILE_BOUNDARIES}
    units.update({"synthesis.routes": "count", "synthesis.nodes": "count"})
    units.update({"runtime.run_batch.self_s": "s", "runtime.engine_init.s": "s", "runtime.hops": "count"})
    units.update({f"runtime.{key}": "count" for key in RUNTIME_COUNTS})
    for b in RUN_BOUNDARIES:
        units[f"{b.label}.calls"] = "count"
        units[f"{b.label}.self_s"] = "s"
        units.update({f"{b.label}.{key}": SIZE_UNITS[key] for key in b.sizes})
    units.update({"cdm.reconvert_ratio": "ratio", "trace.overhead_frac": "ratio"})
    return units


def filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        mount = fields[4]
        inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[fields.index("-") + 1]
    return kind


def cpu_ticks() -> tuple[int, int] | None:
    """Machine-wide (stolen, total) CPU ticks from /proc/stat, if readable.

    Stolen ticks are time the hypervisor gave the virtual CPUs to another
    guest. The wall-time metrics include it, so the run reports its share.
    """
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop that does not touch the program.

    On a shared host the same instructions run at different speeds from one
    minute to the next, and thread CPU time moves with wall time, so steal
    does not show it. The run prints this time so that its metrics can be
    read against the speed of the machine while they were taken.
    """
    started = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return (time.perf_counter() - started) * 1000


class Bench:
    """Runs checked batches of one workload and tallies their messages."""

    def __init__(self, workload, seed: int, work: Path):
        import lila
        from lila.runtime import Engine, RunOptions

        self.compile_source = lila.compile_source
        self.engine = Engine
        self.options = RunOptions
        self.workload = workload
        self.program = workload.program()
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.not_conserved = 0
        self.baseline_ok = True
        self._placed: dict[int, Path] = {}
        self.inputs = workload.batch(seed)
        self.probes = workload.messages(seed)

    def compile(self):
        return self.compile_source(self.program, self.workload.bindings or None)

    def _place(self, inputs) -> Path:
        """The base directory holding ``inputs``, written on first use.

        Inputs stay for the whole run and only outputs are deleted after a
        batch: on ext4, writing 2000 small files costs about as much as the
        batch that reads them.
        """
        base = self._placed.get(id(inputs))
        if base is None:
            base = self.work / f"base{len(self._placed)}"
            for rel, data in inputs.files.items():
                path = base / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
            self._placed[id(inputs)] = base
        return base

    @staticmethod
    def _clear_outputs(base: Path, inputs) -> None:
        """Delete every file a batch wrote: sink payloads and dead letters."""
        keep = {base / rel for rel in inputs.files}
        for path in list(base.rglob("*")):
            if path not in keep and not path.is_dir():
                path.unlink()

    def ilp(self, rg, inputs, tracer: Tracer | None = None):
        """One checked batch; returns its wall time and the run report."""
        kwargs = {"split_elements": True} if self.workload.split_elements else {}
        span = tracer.span if tracer else lambda label: nullcontext()
        base = self._place(inputs)
        started = time.perf_counter()
        with span("runtime.engine_init"):
            engine = self.engine(rg, self.options(base_dir=base, **kwargs))
        with span("runtime.run_batch"):
            report = engine.run_batch()
        elapsed = time.perf_counter() - started
        # an errored message also leaves its sink payload missing: count it once
        mismatched = count_failures(self.workload.sinks, inputs.expected, base, engine.mock_sink)
        failed = max(report.errored, mismatched)
        if not report.conserved():
            self.not_conserved += 1
            failed = inputs.messages
        self.attempted += inputs.messages
        self.failed += min(failed, inputs.messages)
        self._clear_outputs(base, inputs)
        return elapsed, report

    def baseline(self, inputs) -> float:
        base = self._place(inputs)
        started = time.perf_counter()
        mock = self.workload.baseline(base)
        elapsed = time.perf_counter() - started
        if count_failures(self.workload.sinks, inputs.expected, base, lambda uri: mock.get(uri, [])):
            self.baseline_ok = False
        self._clear_outputs(base, inputs)
        return elapsed


def _more(deadline: float, seconds: float, short: bool) -> bool:
    """Go on until the deadline, and past it while ``short`` of the least
    sample counts, but never past three times ``seconds``: a slow program
    must still end in time."""
    now = time.perf_counter()
    return now < deadline or (short and now < deadline + 2 * seconds)


def warm_up(bench: Bench, rg) -> None:
    """One batch of each kind: first-call imports and input files."""
    bench.ilp(rg, bench.inputs)
    bench.baseline(bench.inputs)
    for probe in bench.probes:
        bench.ilp(rg, probe)


def timed_compile(bench: Bench) -> float:
    started = time.perf_counter()
    bench.compile()
    return time.perf_counter() - started


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """Rounds of compiles, a full batch, a baseline batch and latency probes.

    Interleaving spreads every metric over the whole run, so a slow spell of
    the machine hits all of them alike instead of skewing one phase.
    """
    for _ in range(SETUP_WARMUP):
        rg = bench.compile()
    inputs = bench.inputs
    warm_up(bench, rg)

    setup, ilp, base, latencies, calibration = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while _more(deadline, seconds, len(ilp) < MIN_ROUNDS or len(latencies) < MIN_PROBES):
        calibration.append(calibration_ms())
        setup += [timed_compile(bench) for _ in range(COMPILES_PER_ROUND)]
        if len(ilp) % 2:  # alternate which side runs first
            base.append(bench.baseline(inputs))
            ilp.append(bench.ilp(rg, inputs)[0])
        else:
            ilp.append(bench.ilp(rg, inputs)[0])
            base.append(bench.baseline(inputs))
        probe_until = time.perf_counter() + PROBE_SHARE * (ilp[-1] + base[-1])
        while time.perf_counter() < probe_until:
            probe = bench.probes[len(latencies) % len(bench.probes)]
            latencies.append(bench.ilp(rg, probe)[0] * 1000)

    batch_s = statistics.median(ilp)
    print(
        f"perfbench: {len(ilp)} rounds: {len(setup)} compiles, {len(ilp)} batches, "
        f"{len(base)} baseline batches, {len(latencies)} one-message batches; calibration loop "
        f"{statistics.median(calibration):.3f} ms (from {min(calibration):.3f} to {max(calibration):.3f})"
    )
    return {
        "setup_s": statistics.median(setup),
        "batch_s": batch_s,
        "facts_per_s": inputs.source_facts / batch_s,
        "msg_ms_p50": statistics.median(latencies),
        "msg_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "baseline_ratio": batch_s / statistics.median(base),
    }


def _layer_row(spans, report, inputs) -> dict[str, float]:
    totals = layer_totals(spans, container="runtime.run_batch")
    row = {
        "runtime.run_batch.self_s": totals["runtime.run_batch"]["self_s"],
        "runtime.engine_init.s": totals["runtime.engine_init"]["self_s"],
        "runtime.hops": sum(node["consumed"] for node in report.per_node.values()),
    }
    row.update({f"runtime.{key}": getattr(report, key) for key in RUNTIME_COUNTS})
    for b in RUN_BOUNDARIES:
        entry = totals.get(b.label, {})
        row[f"{b.label}.calls"] = entry.get("calls", 0)
        row[f"{b.label}.self_s"] = entry.get("self_s", 0.0)
        row.update({f"{b.label}.{key}": entry.get(key, 0) for key in b.sizes})
    row["cdm.reconvert_ratio"] = row["cdm.to_cdm.facts"] / inputs.unique_facts
    row["covered_s"] = sum(entry["self_s"] for entry in totals.values())
    return row


def _report_unseen(kind: str, boundaries, missing, calls) -> None:
    for b in boundaries:
        where = f"{b.module}.{b.attr}"
        if b in missing:
            print(f"perfbench: {kind} boundary {b.label} is missing: no {where}; reported as 0")
        elif not calls(b):
            print(f"perfbench: {kind} boundary {b.label} ({where}) never fired; reported as 0")


def measure_layers(bench: Bench, seconds: float, spans_out: Path) -> dict[str, float]:
    compile_tracer = Tracer(COMPILE_BOUNDARIES)
    compiles = []
    for _ in range(SETUP_WARMUP):
        rg = bench.compile()
    with compile_tracer.installed():
        for _ in range(TRACED_COMPILES):
            rg = bench.compile()
            compiles.append(layer_totals(compile_tracer.take()))
    metrics = {
        f"{b.label}.s": statistics.median(c.get(b.label, {}).get("self_s", 0.0) for c in compiles)
        for b in COMPILE_BOUNDARIES
    }
    metrics["synthesis.routes"] = len(rg.routes)
    metrics["synthesis.nodes"] = len(rg.nodes)
    _report_unseen(
        "compile", COMPILE_BOUNDARIES, compile_tracer.missing,
        lambda b: any(b.label in c for c in compiles),
    )

    inputs = bench.inputs
    tracer = Tracer(RUN_BOUNDARIES)
    warm_up(bench, rg)
    plain, traced, rows = [], [], []
    deadline = time.perf_counter() + seconds
    while _more(deadline, seconds, len(rows) < MIN_ROUNDS):
        plain_first = len(rows) % 2 == 1  # alternate which side runs first
        if plain_first:
            plain.append(bench.ilp(rg, inputs)[0])
        with tracer.installed():
            elapsed, report = bench.ilp(rg, inputs, tracer)
        spans = tracer.take()
        traced.append(elapsed)
        rows.append(_layer_row(spans, report, inputs))
        if not plain_first:
            plain.append(bench.ilp(rg, inputs)[0])

    spans_out.write_text("".join(json.dumps(asdict(s)) + "\n" for s in spans))
    for key in rows[0]:
        metrics[key] = statistics.median(row[key] for row in rows)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    _report_unseen(
        "runtime", RUN_BOUNDARIES, tracer.missing,
        lambda b: any(row[f"{b.label}.calls"] for row in rows),
    )
    gap = statistics.median(abs(r["covered_s"] - t) / t for r, t in zip(rows, traced))
    print(
        f"perfbench: {len(rows)} traced and {len(plain)} untraced batches; layer self times "
        f"sum to {metrics.pop('covered_s'):.6f} s against a traced batch of "
        f"{statistics.median(traced):.6f} s (median gap {gap:.2%}); spans in {spans_out}"
    )
    return metrics


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, work)
        print(
            f"perfbench: workload {workload.name}, seed {args.seed}, {args.seconds} s, "
            f"trace {args.trace}, base dirs on {filesystem(work)}, Python {sys.version.split()[0]}"
        )
        ticks = cpu_ticks()
        if args.trace:
            spans_out = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
            values = measure_layers(bench, args.seconds, spans_out)
            units = layer_units()
        else:
            values = measure(bench, args.seconds)
            units = END_TO_END
        if ticks and (after := cpu_ticks()) and after[1] > ticks[1]:
            stolen = (after[0] - ticks[0]) / (after[1] - ticks[1])
            print(f"perfbench: {stolen:.1%} of the machine's CPU time was stolen by the hypervisor")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not bench.baseline_ok:  # a fault of the benchmark's own baseline, not of the program
        print("perfbench: the baseline's sink output differs from the reference; baseline_ratio is void")
    values["failed_frac"] = bench.failed / bench.attempted
    for name, unit in {**units, **UNBOUNDED}.items():
        if name in values:
            print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(
        f"perfbench: {bench.failed} of {bench.attempted} messages failed; "
        f"{bench.not_conserved} batches did not conserve messages"
    )
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if bench.failed else 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 1 if combined["failed"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "lila" / "__init__.py").is_file():
        print(f"perfbench: no LiLa sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
