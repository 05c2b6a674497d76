"""The benchmark's own tests.

    python3 -m pytest perfbench

Run from the root of a checkout. Smoke runs use ``--smoke`` (30 users, a few
epochs), so the whole file takes about 20 seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks as ck
import worker
import workloads
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = bench_spec()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_lists_the_workloads():
    spec = bench_spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.fixture(scope="module")
def smoke_pipeline():
    """A smoke-sized pipeline run's set-up and iteration directories, built once."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    built = WORK / "test-smoke-pipeline"
    shutil.rmtree(built, ignore_errors=True)
    built.mkdir(parents=True)
    cwd = Path.cwd()
    os.chdir(built)
    try:
        w = workloads.WORKLOADS["pipeline"]
        steps = workloads.setup_steps(w, 1, "setup0", smoke=True)
        steps += workloads.timed_steps(w, "setup0", "iter0", smoke=True)
        Path("setup0").mkdir()
        Path("iter0").mkdir()
        clean = ck.Checks()
        worker.run_steps(steps, clean)
        worker.check_outputs(w, clean, Path("setup0"), Path("iter0"), 1, oracles)
    finally:
        os.chdir(cwd)
    assert clean.failed == 0, clean.failures
    assert clean.attempted > len(steps)
    yield w, built, oracles
    shutil.rmtree(built, ignore_errors=True)


@pytest.fixture
def planted(smoke_pipeline, tmp_path, monkeypatch):
    """A copy of the smoke run to corrupt, and a function that re-checks it."""
    w, built, oracles = smoke_pipeline
    shutil.copytree(built / "setup0", tmp_path / "setup0")
    shutil.copytree(built / "iter0", tmp_path / "iter0")
    monkeypatch.chdir(tmp_path)

    def recheck() -> ck.Checks:
        checks = ck.Checks()
        worker.check_outputs(w, checks, Path("setup0"), Path("iter0"), 1, oracles)
        assert checks.attempted > 0
        return checks

    return recheck


def test_planted_corrupt_feature_row_is_a_failed_operation(planted):
    path = Path("iter0/features_test.csv")
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[10] = "nan"
    lines[5] = ",".join(cells)
    path.write_text("".join(lines))
    checks = planted()
    assert checks.failed == 1
    assert "features_test.csv" in checks.failures[0]


def test_planted_relabelled_grade_is_a_failed_operation(planted):
    from persorank.cache import load_sessions, save_sessions
    from persorank.logs import Grade

    path = Path("iter0/sessions.cache")
    sessions = load_sessions(path)
    imp = next(i for s in sessions for i in s.impressions if Grade.NO_CLICK in (i.labels or ()))
    imp.labels[imp.labels.index(Grade.NO_CLICK)] = Grade.R0
    save_sessions(sessions, path)
    failures = planted().failures
    assert failures and all(".counts.json grade_counts." in f for f in failures), failures


def test_planted_dropped_session_is_a_failed_operation(planted):
    from persorank.cache import load_sessions, save_sessions

    path = Path("iter0/sessions.cache")
    sessions = load_sessions(path)
    save_sessions(sessions[:-1], path)
    failures = planted().failures
    assert any(".counts.json test_sessions" in f for f in failures), failures
    assert any(".counts.json total_records" in f for f in failures), failures


def test_fails_without_a_checkout_around_it():
    bare = WORK / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tracer_restores_every_function_it_wrapped():
    sys.path.insert(0, str(ROOT / "src"))
    from persorank import blend, cli, features, ranker

    before = (cli.parse_log, features.context_features, ranker.forward, blend.BlendModel.apply)
    tracer = Tracer("t")
    tracer.install()
    assert cli.parse_log is not before[0]
    tracer.uninstall()
    assert (cli.parse_log, features.context_features, ranker.forward,
            blend.BlendModel.apply) == before


def test_self_time_subtracts_direct_children_only():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("d", 5.0, 6.0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
