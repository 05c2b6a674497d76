"""persorank benchmark: one workload at one seed, from the root of a checkout.

    python3 perfbench/run.py --workload pipeline|crowd|train --seed N --seconds S --trace 0|1

Set-up builds the workload's inputs from the seed several times and reports
the median. The timed section drives the pipeline through
``persorank.cli.main`` in a fresh worker process, repeated for S seconds (at
least two iterations), and the outputs are then checked against the oracles of
``tests/oracles.py``. With ``--trace 0`` the last line of standard output is a
JSON object with every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric from spans recorded around the program's public functions.
A run record with the raw samples goes to ``.perfbench_out/``. This process
imports only the standard library, so that the workers' peak RSS is their own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
from statistics import median
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from spans import spans_path
from workloads import SMOKE_USERS, WORKLOADS

HERE = Path(__file__).resolve().parent
# The pipeline is single-process and its matrices are small: on 2 cores, two
# BLAS threads cost about 65% more CPU for no gain in training time.
BLAS_THREADS = 1
DEADLINE_S = 170.0


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "persorank").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_worker(mode: str, args, work: Path, deadline: float, extra: tuple[str, ...] = ()) -> dict:
    """Run worker.py in work/, wait for it, and return its result JSON."""
    result = work / f"{mode}.json"
    log = work / f"{mode}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--root", str(args.root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--result", str(result), *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    with open(log, "w") as fh:
        try:
            code = subprocess.run(cmd, cwd=work, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                  timeout=max(1.0, deadline - time.monotonic())).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise RuntimeError(f"{mode} worker failed ({code})")
    return json.loads(result.read_text())


def end_to_end(setup: dict, run: dict, attempted: int, failed: int) -> dict[str, float]:
    untraced = [s for s in run["samples"] if not s["traced"]]
    return {
        "setup_s": median(setup["setup_s"]),
        "wall_s": median([s["wall_s"] for s in untraced]),
        "cpu_s": median([s["cpu_s"] for s in untraced]),
        "targets_per_s": median([run["targets"] / s["wall_s"] for s in untraced]),
        "peak_rss_mb": run["peak_rss_mb"],
        "test_ndcg": run["test_ndcg"],
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(setup: dict, run: dict) -> dict[str, float]:
    traced = run["layer_metrics"]
    values = {name: median([m[name] for m in traced]) for name in traced[0]}
    values.update(setup["layer_metrics"])
    untraced = median([s["wall_s"] for s in run["samples"] if not s["traced"]])
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_ratio"] = values["trace.wall_s"] / untraced
    values["evaluate.test_ndcg_delta"] = run["test_ndcg_delta"]
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.root = Path.cwd()
    started = time.monotonic()
    deadline = started + DEADLINE_S

    missing = [p for p in ("src/persorank/cli.py", "tests/oracles.py")
               if not (args.root / p).is_file()]
    if missing:
        print(f"error: run from the root of a persorank checkout; missing {missing}",
              file=sys.stderr)
        return 2

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    out_dir = args.root / ".perfbench_out"
    work = args.root / ".perfbench_work" / label
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        setup = run_worker("setup", args, work, deadline)
        run = run_worker("run", args, work, deadline,
                         ("--seconds", str(args.seconds), "--setup-dir", setup["setup_dir"]))
        if args.trace:
            shutil.move(spans_path(work / "run.json"), out_dir / f"{label}.spans.jsonl.gz")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = setup["attempted"] + run["attempted"]
    failures = setup["failures"] + run["failures"]
    if args.trace:
        values = per_layer(setup, run)
    else:
        values = end_to_end(setup, run, attempted, len(failures))
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed["per_layer" if args.trace else "end_to_end"]}
    record = {
        "workload": args.workload,
        "users": SMOKE_USERS if args.smoke else WORKLOADS[args.workload].users,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": git_commit(args.root),
        "src_sha256": source_digest(args.root),
        "python": run["python"],
        "numpy": run["numpy"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_threads_env": run["blas_threads_env"],
        "setup_s_samples": setup["setup_s"],
        "iterations": run["samples"],
        "traced_layer_samples": run["layer_metrics"],
        "test_ndcg": run["test_ndcg"],
        "test_ndcg_delta": run["test_ndcg_delta"],
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "elapsed_s": time.monotonic() - started,
    }
    (out_dir / f"{label}.json").write_text(json.dumps(record, indent=1))

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'test_ndcg_delta (not gated)':36s} {run['test_ndcg_delta']:.6g} ndcg")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
