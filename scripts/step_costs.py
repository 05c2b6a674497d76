"""Wall time and peak RSS of the README flow's commands, each in a fresh process.

    python scripts/step_costs.py --users 400 --synth-seed 11 --partition-seed 1 --work DIR

Times ``python -m persorank --version`` first: the start-up that every
command pays before it does any work. Then runs the commands that build
features (gen, parse, partition, extract) and those that read and write
feature and score tables (a heuristic train, score of the test and of the
validation features, an average blend fitted on the validation scores,
its ``--apply`` to the test scores, eval of the test scores), then a
ranknet train (train seed 2, a fixed NET_EPOCHS epochs) and its score of
the test features, one ``python -m persorank`` process each, with their
files in DIR. Prints a Markdown table with one row per command, labeled
so that the trains, the scores and the two blends can be told apart: its
wall time and the peak resident set size (``ru_maxrss``) of its process. Run it from the root of
a checkout with ``src`` on PYTHONPATH, or with the package
installed. Linux only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

# The ranknet train's epochs, with patience equal so that early stopping never
# cuts them short: its time is that of a fixed amount of work.
NET_EPOCHS = 20


def run(args: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one persorank command in a fresh process."""
    start = time.perf_counter()
    process = subprocess.Popen([sys.executable, "-m", "persorank", *args],
                               stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - start
    code = process.returncode = os.waitstatus_to_exitcode(status)
    if code:
        sys.exit(f"persorank {args[0]} exited {code}")
    return wall, usage.ru_maxrss / 1024  # Linux reports KB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--synth-seed", type=int, required=True)
    parser.add_argument("--partition-seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    work = args.work
    work.mkdir(parents=True, exist_ok=True)
    seed = str(args.partition_seed)
    steps = [  # (row label, command line)
        ("start-up (--version)", ["--version"]),
        ("gen", ["gen", "--out", f"{work}/log.tsv", "-O", f"n_users={args.users}",
                 "-O", f"synth_seed={args.synth_seed}"]),
        ("parse", ["parse", "--log", f"{work}/log.tsv", "--out", f"{work}/sessions.cache"]),
        ("partition", ["partition", "--cache", f"{work}/sessions.cache",
                       "--out", f"{work}/targets.csv", "--seed", seed]),
        ("extract", ["extract", "--cache", f"{work}/sessions.cache",
                     "--targets", f"{work}/targets.csv", "--out-dir", str(work), "--seed", seed]),
        ("train", ["train", "--kind", "heuristic",
                   "--train-features", f"{work}/features_train.csv",
                   "--val-features", f"{work}/features_validation.csv",
                   "--out", f"{work}/model.json"]),
        ("score test", ["score", "--model", f"{work}/model.json",
                        "--features", f"{work}/features_test.csv", "--out", f"{work}/scores.csv"]),
        ("score validation", ["score", "--model", f"{work}/model.json",
                              "--features", f"{work}/features_validation.csv",
                              "--out", f"{work}/scores_validation.csv"]),
        ("blend average", ["blend", "--scores", f"{work}/scores_validation.csv",
                           "--method", "average", "--out", f"{work}/blended_validation.csv",
                           "--model-out", f"{work}/blend.json"]),
        ("blend --apply", ["blend", "--scores", f"{work}/scores.csv",
                           "--apply", f"{work}/blend.json", "--out", f"{work}/blended_test.csv"]),
        ("eval", ["eval", "--scores", f"{work}/scores.csv", "--out-dir", str(work)]),
        ("train ranknet", ["train", "--kind", "ranknet", "--seed", "2",
                           "--epochs", str(NET_EPOCHS), "--patience", str(NET_EPOCHS),
                           "--train-features", f"{work}/features_train.csv",
                           "--val-features", f"{work}/features_validation.csv",
                           "--out", f"{work}/model_ranknet.json"]),
        ("score test (ranknet)", ["score", "--model", f"{work}/model_ranknet.json",
                                  "--features", f"{work}/features_test.csv",
                                  "--out", f"{work}/scores_ranknet.csv"]),
    ]
    print(f"{args.users} users, synth seed {args.synth_seed}, partition seed {seed}\n")
    print("| command | wall s | peak RSS MB |\n|---|---:|---:|")
    for label, step in steps:
        wall, rss = run(step)
        print(f"| {label} | {wall:.2f} | {rss:.1f} |", flush=True)

if __name__ == "__main__":
    main()
