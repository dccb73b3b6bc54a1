"""CLI commands, exit codes, output determinism."""

from __future__ import annotations

import io
import json
import shutil

import pytest

from lila.cli import main

from .conftest import CORPUS, write_soccer_fixtures


def run_cli(*argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    status = main(list(argv), stdout=stdout, stderr=stderr)
    return status, stdout.getvalue(), stderr.getvalue()


@pytest.fixture
def soccer_file(tmp_path):
    target = tmp_path / "soccer_events.lila"
    shutil.copy(CORPUS / "soccer_events.lila", target)
    write_soccer_fixtures(tmp_path)
    return target


# --- check ------------------------------------------------------------------


def test_check_valid_program(soccer_file):
    status, out, err = run_cli("check", str(soccer_file))
    assert status == 0


def test_check_reports_cycle(tmp_path):
    bad = tmp_path / "cycle.lila"
    bad.write_text(
        "@from(file:x.dl,datalog)\n{seed(v).}\n"
        "a(v):-seed(v).\na(v):-a-split(v).\n"
        "@split()\n{?-a(v).}\n"
        "@to(file:y.dl)\n{a-split}\n"
    )
    status, _, err = run_cli("check", str(bad))
    assert status == 1
    assert "cycle" in err


def test_check_missing_file(tmp_path):
    status, _, err = run_cli("check", str(tmp_path / "nope.lila"))
    assert status == 2


def test_check_requires_lila_extension(tmp_path):
    other = tmp_path / "prog.txt"
    other.write_text("@from(file:x.json,json)\n{r(a).}")
    status, _, err = run_cli("check", str(other))
    assert status == 2


def test_check_validation_error(tmp_path):
    bad = tmp_path / "bad.lila"
    bad.write_text("@from(file:x.json,json)\n{r(a).}\n@to(file:y.json,json)\n{zzz}\n")
    status, _, err = run_cli("check", str(bad))
    assert status == 1
    assert "zzz" in err


# --- graph / compile -----------------------------------------------------------


def test_graph_ldg_matches_golden(soccer_file, goldens):
    status, out, _ = run_cli("graph", "--ldg", str(soccer_file))
    assert status == 0
    assert out == (goldens / "soccer_events_ldg.dot").read_text()


def test_graph_rg_matches_golden(soccer_file, goldens):
    status, out, _ = run_cli("graph", "--rg", str(soccer_file))
    assert status == 0
    assert out == (goldens / "soccer_events_rg.dot").read_text()


def test_graph_rg_extended_matches_golden(tmp_path, goldens):
    target = tmp_path / "soccer_extended.lila"
    shutil.copy(CORPUS / "soccer_extended.lila", target)
    status, out, _ = run_cli("graph", "--rg", str(target))
    assert status == 0
    assert out == (goldens / "soccer_extended_rg.dot").read_text()


def test_graph_writes_file(soccer_file, tmp_path):
    out_path = tmp_path / "graph.dot"
    status, out, _ = run_cli("graph", "--rg", str(soccer_file), "--out", str(out_path))
    assert status == 0
    assert out == ""
    assert out_path.read_text().startswith("digraph rg {")


def test_compile_emits_route_json(soccer_file):
    status, out, _ = run_cli("compile", str(soccer_file))
    assert status == 0
    doc = json.loads(out)
    assert len(doc["routes"]) == 4


def test_stdout_reproducible(soccer_file):
    first = run_cli("graph", "--rg", str(soccer_file))
    second = run_cli("graph", "--rg", str(soccer_file))
    assert first == second


# --- run --------------------------------------------------------------------------


def test_run_soccer_reports_counts(soccer_file, tmp_path):
    status, out, err = run_cli(
        "run", str(soccer_file),
        "--bind", "config=playerFeed",
        "--base-dir", str(tmp_path),
        "--split-elements",
    )
    assert status == 0, err
    report = json.loads(out)
    assert report["consumed"] == 2
    assert report["produced"] == 2
    assert report["dropped"] == 2


def test_run_empty_inputs_zero_counters(soccer_file, tmp_path):
    (tmp_path / "gameEvents.json").write_text("[]")
    status, out, _ = run_cli(
        "run", str(soccer_file),
        "--bind", "config=playerFeed",
        "--base-dir", str(tmp_path),
    )
    assert status == 0
    report = json.loads(out)
    assert report["produced"] == 0


def test_run_rejects_unbound_placeholder(soccer_file, tmp_path):
    status, _, err = run_cli("run", str(soccer_file), "--base-dir", str(tmp_path))
    assert status == 1
    assert "$config" in err


def test_run_env_base_dir(soccer_file, tmp_path, monkeypatch):
    monkeypatch.setenv("LILA_BASE_DIR", str(tmp_path))
    status, out, _ = run_cli(
        "run", str(soccer_file), "--bind", "config=playerFeed",
    )
    assert status == 0
    assert json.loads(out)["produced"] == 2


def test_run_watch_mode_terminates(soccer_file, tmp_path):
    status, out, _ = run_cli(
        "run", str(soccer_file),
        "--bind", "config=playerFeed",
        "--base-dir", str(tmp_path),
        "--watch", "--watch-duration-ms", "300",
    )
    assert status == 0
    assert json.loads(out)["produced"] == 2


def test_run_strict_fails_on_unconserved_report(soccer_file, tmp_path, monkeypatch):
    from lila.runtime import Engine, RunReport

    monkeypatch.setattr(Engine, "run_batch", lambda self: RunReport(consumed=1))
    argv = ("run", str(soccer_file), "--bind", "config=playerFeed", "--base-dir", str(tmp_path))
    status, out, _ = run_cli(*argv)
    assert status == 0
    assert json.loads(out)["consumed"] == 1
    status, _, _ = run_cli(*argv, "--strict")
    assert status == 1


# --- bench --------------------------------------------------------------------------


def test_bench_writes_csv_and_dat(tmp_path):
    out = tmp_path / "report.csv"
    status, _, err = run_cli(
        "bench", "filter", "--sizes", "20", "40", "--out", str(out)
    )
    assert status == 0, err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scenario,size,medianMillis,pipeline"
    assert len(lines) == 1 + 4  # 2 sizes x 2 pipelines
    assert (tmp_path / "report.dat").exists()


def test_bench_stdout(tmp_path):
    status, out, _ = run_cli("bench", "filter", "--sizes", "10")
    assert status == 0
    assert out.startswith("scenario,size,medianMillis,pipeline")


def test_bench_rejects_bad_reps():
    status, _, err = run_cli("bench", "filter", "--sizes", "10", "--reps", "2")
    assert status == 1
    assert "repetitions" in err


# --- usage ----------------------------------------------------------------------------


def test_usage_error_exit_code():
    status, _, _ = run_cli("graph")  # missing source and --ldg/--rg
    assert status == 2


def test_version_flag():
    status, _, _ = run_cli("--version")
    assert status == 0
