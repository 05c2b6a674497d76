"""One workload's set-up or timed section, run in-process; started by run.py.

    python3 worker.py setup --root DIR --workload NAME --seed N --trace 0|1 --result FILE
    python3 worker.py run --root DIR --workload NAME --seed N --seconds S --trace 0|1
        --setup-dir DIR --result FILE

The working directory is the run's scratch directory inside the checkout.
``setup`` builds the workload's inputs SETUP_REPS times (once when traced),
times each build and checks that they are byte-identical. ``run`` repeats
the timed section until S seconds have passed and at least two iterations
are done, then checks the last iteration's outputs and that every iteration wrote the
same bytes. When traced, iterations alternate untraced and traced, so the
tracing overhead is measured in the same process, and the traced iterations'
spans go next to FILE (see `spans.spans_path`). Each run writes its results
as JSON to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import checks as ck
import workloads
from spans import Tracer, layer_metrics, setup_metrics, spans_path

SETUP_REPS = 3
ORACLE_TARGETS_PER_ROLE = 5
EXTRACTION_FILES = ["targets.csv"] + [f"features_{role}.csv" for role in workloads.ROLES]


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_steps(steps, checks: ck.Checks, tracer: Tracer | None = None) -> list:
    """Run CLI calls in order; each is one operation that must exit 0."""
    from persorank.cli import main

    times = []
    for argv in steps:
        start = time.perf_counter()
        code = tracer.call(f"cli.{argv[0]}", main, argv) if tracer else main(argv)
        times.append([argv[0], time.perf_counter() - start])
        checks.record(f"persorank {' '.join(argv)}", code == 0, f"exit code {code}")
    return times


def check_identical(checks: ck.Checks, dirs: list[Path], names: list[str]) -> None:
    """Every directory after the first holds byte-identical copies of names."""
    for d in dirs[1:]:
        for name in names:
            checks.run(f"{d.name}/{name} identical to {dirs[0].name}",
                       ck.same_bytes, dirs[0] / name, d / name)


def check_outputs(w: workloads.Workload, checks: ck.Checks, setup: Path, it: Path,
                  seed: int, oracles) -> int:
    """Correctness of one iteration's outputs; returns the targets carried."""
    from persorank.cache import load_sessions

    feats = setup if workloads.extracts_in_setup(w) else it
    targets = checks.run("targets.csv readable", ck.read_targets, feats / "targets.csv")
    if targets is None:
        return 0
    tables = {}
    for role in workloads.ROLES:
        table = checks.run(f"features_{role}.csv: 10 rows per target, 121 finite values",
                           ck.read_feature_rows, feats / f"features_{role}.csv", targets[role])
        if table is not None:
            tables[role] = table
    sessions = checks.run("sessions.cache loads", load_sessions, feats / "sessions.cache")
    if sessions is not None:
        checks.run("log.tsv.counts.json readable", ck.check_corpus_counts, checks, sessions,
                   setup / "log.tsv.counts.json", workloads.TRAIN_DAYS)
        ck.oracle_sample(checks, sessions, targets, tables, seed,
                         ORACLE_TARGETS_PER_ROLE, oracles)
    checks.run("report.csv readable", ck.check_report, checks, it / "report.csv",
               it / workloads.scored_test_file(w), oracles.oracle_ndcg)
    return sum(len(keys) for keys in targets.values())


def read_summary(path: Path) -> dict[str, float]:
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    return {key: float(value) for key, value in rows}


def do_setup(args, w: workloads.Workload, checks: ck.Checks) -> dict:
    reps = 1 if args.trace else SETUP_REPS
    tracer = Tracer("setup") if args.trace else None
    times, dirs = [], []
    for k in range(reps):
        d = Path(f"setup{k}")
        d.mkdir()
        steps = workloads.setup_steps(w, args.seed, d.name, args.smoke)
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            run_steps(steps, checks, tracer)
            if w.name == "crowd":
                # The heuristic model needs no features; crowd's timed section scores with it.
                from persorank.ranker import ModelKind, train

                train(ModelKind.HEURISTIC, None, None).save(d / "model_heuristic.json")
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        times.append(elapsed)
        dirs.append(d)
    names = ["log.tsv", "log.tsv.counts.json"]
    names += EXTRACTION_FILES if workloads.extracts_in_setup(w) else []
    check_identical(checks, dirs, names)
    return {
        "setup_s": times,
        "setup_dir": str(dirs[-1]),
        "layer_metrics": setup_metrics(tracer) if tracer else {},
    }


def do_run(args, w: workloads.Workload, checks: ck.Checks) -> dict:
    setup = Path(args.setup_dir)
    samples, traced = [], []
    began = time.perf_counter()
    i = 0
    while True:
        it = Path(f"iter{i}")
        it.mkdir()
        tracer = Tracer(it.name) if args.trace and i % 2 == 1 else None
        steps = workloads.timed_steps(w, setup.name, it.name, args.smoke)
        if tracer:
            tracer.install()
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            step_times = run_steps(steps, checks, tracer)
        finally:
            wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
            if tracer:
                tracer.uninstall()
        samples.append({"iteration": i, "traced": tracer is not None, "wall_s": wall,
                        "cpu_s": cpu, "steps": step_times})
        if tracer:
            traced.append(layer_metrics(tracer, wall))
            tracer.write(spans_path(Path(args.result)))
        i += 1
        # Start no iteration that would end past the measuring time, but run at
        # least two (whole pairs when traced) so the outputs can be compared.
        done = time.perf_counter() - began + wall > args.seconds
        if i >= 2 and done and not (args.trace and i % 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sys.path.insert(0, str(Path(args.root) / "tests"))
    import oracles

    iters = [Path(f"iter{k}") for k in range(i)]
    last = iters[-1]
    n_targets = check_outputs(w, checks, setup, last, args.seed, oracles)
    if not workloads.extracts_in_setup(w):
        check_identical(checks, iters, EXTRACTION_FILES)
    check_identical(checks, iters, [workloads.scored_test_file(w), "report.csv", "summary.csv"])
    summary = checks.run("summary.csv readable", read_summary, last / "summary.csv") or {}
    return {
        "samples": samples,
        "targets": n_targets,
        "peak_rss_mb": peak_rss_mb,
        "test_ndcg": summary.get("mean_ndcg", 0.0),
        "test_ndcg_delta": summary.get("mean_delta_ndcg", 0.0),
        "layer_metrics": traced,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-dir", dest="setup_dir")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))
    # Import the whole program before anything is timed.
    import numpy
    import persorank.cli  # noqa: F401

    w = workloads.WORKLOADS[args.workload]
    checks = ck.Checks()
    result = do_setup(args, w, checks) if args.mode == "setup" else do_run(args, w, checks)
    result.update(
        attempted=checks.attempted,
        failures=checks.failures,
        python=platform.python_version(),
        numpy=numpy.__version__,
        blas_threads_env={k: os.environ.get(k) for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
