"""Summarize run records: medians, quartile spreads and the extraction slope.

    python3 perfbench/summarize.py [RECORD_DIR]

Reads the JSON run records that run.py writes (default ``.perfbench_out``),
skipping smoke runs. For each workload and end-to-end metric it prints the
median over runs, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and their distance as a share of the median, next to the bound
in ``BENCHMARK.json``. From traced records it prints one derived number, not
gated: the log-log slope of ``features.extract_targets.s`` against users
between ``pipeline`` and ``crowd``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else math.inf


def extraction_slope(records: list[dict]) -> float | None:
    """Log-log slope of traced extraction time between pipeline and crowd."""
    per_workload = defaultdict(list)
    users = {}
    for r in records:
        if r["trace"] and r["workload"] in ("pipeline", "crowd"):
            per_workload[r["workload"]].append(
                r["metrics"]["features.extract_targets.s"]["value"])
            users[r["workload"]] = r["users"]
    if len(per_workload) < 2:
        return None
    t_small = statistics.median(per_workload["pipeline"])
    t_large = statistics.median(per_workload["crowd"])
    return math.log(t_large / t_small) / math.log(users["crowd"] / users["pipeline"])


def main(argv: list[str]) -> int:
    record_dir = Path(argv[0]) if argv else Path(".perfbench_out")
    records = [json.loads(p.read_text()) for p in sorted(record_dir.glob("*.json"))]
    records = [r for r in records if not r.get("smoke")]
    bounds = {}
    bench = Path("BENCHMARK.json")
    if bench.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench.read_text())["end_to_end"]}

    by_workload = defaultdict(list)
    for r in records:
        if not r["trace"]:
            by_workload[r["workload"]].append(r)
    for workload, runs in sorted(by_workload.items()):
        seeds = sorted(r["seed"] for r in runs)
        elapsed = statistics.median(r["elapsed_s"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {seeds}, median run {elapsed:.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None or share < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:18s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {share:.4f} bound {bound}{flag}")
    slope = extraction_slope(records)
    if slope is not None:
        print(f"features.extract_targets.s log-log slope, pipeline -> crowd: {slope:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
