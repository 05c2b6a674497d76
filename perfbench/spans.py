"""Spans and counters recorded from outside the program, and the per-layer metrics.

A `Tracer` replaces public functions of the persorank modules with wrappers,
each installed under the name its caller looks it up by (``persorank.cli.
parse_log`` for the parse stage, ``persorank.features.context_features`` for
the per-context feature block, and so on). Each wrapper records a span
(name, start, end, parent span, run id) and may count into memory. Nothing in
``src/`` changes; `Tracer.uninstall` restores every original.

`layer_metrics` turns one traced iteration's spans into the per-layer metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Subcommands whose time the per-layer metrics report (cli.<sub>.s, .self_s).
CLI_STAGES = ("parse", "partition", "extract", "train", "score", "blend", "eval")
NET_KINDS = ("regression", "ranknet", "listnet")
# Layers whose spans can sit directly under a CLI call.
TOP_LAYERS = ("logs", "cache", "partition", "features", "ranker", "blend", "evaluate")


def spans_path(result: Path) -> Path:
    """Where a worker writing its results to result writes its traced spans."""
    return result.with_name(result.stem + ".spans.jsonl.gz")


class Tracer:
    """Spans and counters of one run id, kept in memory until written out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._context_slot: dict[int, int] = {}

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; the span closes even if fn raises."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            result = self.call(span_name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap the persorank functions at the names their callers use."""
        from persorank import blend, cache, cli, evaluate, features, partition, ranker

        count, samples = self.counts, self.samples

        def tally(key, measure):
            def after(result, args):
                count[key] += measure(result, args)
            return after

        def sessions_made(result, args):
            count["logs.sessions"] += len(result)
            count["logs.impressions"] += sum(len(s.impressions) for s in result)

        def targets_selected(result, args):
            for role in ("train", "validation", "test"):
                count[f"partition.targets.{role}"] += len(result[0].by_role(role))

        def contexts_assembled(result, args):
            for k, context in enumerate(result, 1):
                samples[f"contexts.size.c{k}"].append(len(context))

        # extract_impression passes the six contexts in canonical order; remember
        # which is which, so each context_features call can be named c1..c6.
        def impression_slots(args):
            self._context_slot = {id(c): k for k, c in enumerate(args[3], 1)}
            return "features.extract_impression"

        def pairs_caller(args):
            parent = self.spans[self._stack[-1]][0] if self._stack else ""
            return "blend.query_pairs" if parent.startswith("blend.") else "ranker.query_pairs"

        def trained(result, args):
            count[f"ranker.epochs_run.{args[0].value}"] += result.metadata.get("epochs_run", 0)

        file_size = lambda result, args: os.path.getsize(args[1])  # noqa: E731

        specs = [
            (cli, "generate_lines", "synth.generate_lines",
             tally("synth.records", lambda r, a: len(r[0]))),
            (cli, "parse_log", "logs.parse_log", tally("logs.records", lambda r, a: len(r))),
            (cli, "sessionize", "logs.sessionize", sessions_made),
            (cli, "label_sessions", "logs.label_sessions", None),
            (cache, "save_sessions", "cache.save_sessions", tally("cache.sessions_bytes", file_size)),
            (cache, "load_sessions", "cache.load_sessions", None),
            (cli, "select_targets", "partition.select_targets", targets_selected),
            (partition, "order_sessions", "partition.order_sessions", None),
            (features, "order_sessions", "partition.order_sessions", None),
            (cli, "write_targets", "partition.write_targets", None),
            (cli, "read_targets", "partition.read_targets", None),
            (features, "build", "contexts.build", None),
            (features, "assemble_contexts", "contexts.assemble_contexts", contexts_assembled),
            (features, "extract_targets", "features.extract_targets", None),
            (features, "extract_impression", impression_slots, None),
            (features, "context_features",
             lambda a: f"features.context_features.c{self._context_slot.get(id(a[2]), 0)}", None),
            (features, "write_features", "features.write_features", tally("features.csv_bytes", file_size)),
            (features, "read_features", "features.read_features", None),
            (cli, "train", lambda a: f"ranker.train.{a[0].value}", trained),
            (ranker, "forward", "ranker.forward", None),
            (ranker, "backward", "ranker.backward", None),
            (ranker, "loss_and_score_grad", "ranker.loss_and_score_grad", None),
            (ranker, "query_pairs", pairs_caller, None),
            (ranker, "mean_ndcg", "ranker.mean_ndcg", None),
            (cli, "score_table", "ranker.score_table", None),
            (blend, "blend_learned", "blend.blend_learned", None),
            (blend.BlendModel, "apply", "blend.apply", None),
            (blend, "mean_ndcg", "blend.mean_ndcg", None),
            (blend, "loss_and_score_grad", "blend.loss_and_score_grad", None),
            (evaluate, "evaluate_run", "evaluate.evaluate_run", None),
            (evaluate, "read_scores", "evaluate.read_scores", None),
            (evaluate, "write_scores", "evaluate.write_scores", None),
            (evaluate, "write_report", "evaluate.write_report", None),
            (evaluate, "write_summary", "evaluate.write_summary", None),
        ]
        for owner, attr, name, after in specs:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        """Append this run's spans, one JSON array per line, to a gzip file."""
        with gzip.open(path, "at") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, index, name, start, end, parent]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced timed iteration of wall time wall_s."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    top: dict[str, float] = defaultdict(float)
    cli_self = cli_total = 0.0
    own = self_times(tracer.spans)
    spans = tracer.spans
    for index, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        if name.startswith("cli."):
            total[name + ".self"] += own[index]
            cli_self += own[index]
            cli_total += end - start
        elif parent >= 0 and spans[parent][0].startswith("cli."):
            top[name.split(".")[0]] += end - start

    count = tracer.counts
    m: dict[str, float] = {}
    m["logs.parse_log.s"] = total["logs.parse_log"]
    m["logs.sessionize.s"] = total["logs.sessionize"]
    m["logs.label_sessions.s"] = total["logs.label_sessions"]
    for key in ("logs.records", "logs.sessions", "logs.impressions"):
        m[key] = count[key]
    m["cache.save_sessions.s"] = total["cache.save_sessions"]
    m["cache.load_sessions.s"] = total["cache.load_sessions"]
    m["cache.load_sessions.calls"] = calls["cache.load_sessions"]
    m["cache.sessions_mb"] = count["cache.sessions_bytes"] / 2**20
    m["partition.order_sessions.s"] = total["partition.order_sessions"]
    m["partition.select_targets.s"] = total["partition.select_targets"]
    m["partition.targets_io.s"] = total["partition.write_targets"] + total["partition.read_targets"]
    for role in ("train", "validation", "test"):
        m[f"partition.targets.{role}"] = count[f"partition.targets.{role}"]
    m["contexts.build.s"] = total["contexts.build"]
    m["contexts.assemble_contexts.s"] = total["contexts.assemble_contexts"]
    for k in range(1, 7):
        sizes = tracer.samples.get(f"contexts.size.c{k}", [])
        m[f"contexts.size.c{k}"] = statistics.fmean(sizes) if sizes else 0.0
    c5 = tracer.samples.get("contexts.size.c5", [])
    m["contexts.size.c5.p90"] = statistics.quantiles(c5, n=10)[-1] if len(c5) > 1 else 0.0
    m["features.extract_targets.s"] = total["features.extract_targets"]
    for k in range(1, 7):
        m[f"features.context_features.s.c{k}"] = total[f"features.context_features.c{k}"]
    n_extracted = calls["features.extract_impression"]
    m["features.ms_per_target"] = (
        1000.0 * total["features.extract_targets"] / n_extracted if n_extracted else 0.0
    )
    m["features.write_features.s"] = total["features.write_features"]
    m["features.read_features.s"] = total["features.read_features"]
    m["features.csv_mb"] = count["features.csv_bytes"] / 2**20
    for kind in NET_KINDS:
        seconds = total[f"ranker.train.{kind}"]
        epochs = count[f"ranker.epochs_run.{kind}"]
        m[f"ranker.train.s.{kind}"] = seconds
        m[f"ranker.epochs_run.{kind}"] = epochs
        m[f"ranker.ms_per_epoch.{kind}"] = 1000.0 * seconds / epochs if epochs else 0.0
    for f in ("forward", "backward", "loss_and_score_grad", "query_pairs", "score_table"):
        m[f"ranker.{f}.s"] = total[f"ranker.{f}"]
    m["ranker.validation_ndcg.s"] = total["ranker.mean_ndcg"]
    m["blend.blend_learned.s"] = total["blend.blend_learned"]
    m["blend.apply.s"] = total["blend.apply"]
    m["blend.mean_ndcg.s"] = total["blend.mean_ndcg"]
    m["evaluate.evaluate_run.s"] = total["evaluate.evaluate_run"]
    m["evaluate.read_scores.s"] = total["evaluate.read_scores"]
    m["evaluate.write_scores.s"] = total["evaluate.write_scores"]
    m["evaluate.mean_ndcg.calls"] = calls["ranker.mean_ndcg"] + calls["blend.mean_ndcg"]
    for stage in CLI_STAGES:
        m[f"cli.{stage}.s"] = total[f"cli.{stage}"]
        m[f"cli.{stage}.self_s"] = total[f"cli.{stage}.self"]
    for layer in TOP_LAYERS:
        m[f"top.{layer}.s"] = top[layer]
    m["top.cli_self.s"] = cli_self
    m["trace.unattributed_s"] = wall_s - cli_total
    m["trace.wall_s"] = wall_s
    return m


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    return {
        "synth.generate_lines.s": sum(
            end - start for name, start, end, _ in tracer.spans
            if name == "synth.generate_lines"
        ),
        "synth.records": tracer.counts["synth.records"],
    }
