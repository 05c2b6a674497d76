"""Command-line pipeline driver.

Subcommands cover the full flow: gen, parse, stats, partition, index,
extract, train, score, blend, eval, analyze. Settings resolve as defaults
< ``--config`` file < ``-O key=value`` < flags; a flag that stands for a
config key is parsed into that key, so handlers read settings only from the
config, and every setting is range-checked before a handler runs. Every
artifact is written atomically and accompanied by a JSON run manifest
recording the effective parameters, inputs, outputs, and wall time.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, blend as blend_mod, cache, contexts, evaluate, features
from .config import KEY_TYPES, ConfigError, PipelineConfig, finite_float, load_config, seed
from .logs import (
    CODE_GAINS,
    DataError,
    LogParseError,
    corpus_stats,
    count_grades,
    decoding,
    label_sessions,
    parse_log,
    sessionize,
)
from .partition import ROLES, read_targets, select_targets, write_targets
from .ranker import ModelKind, RankModel, score_table, train
from .synth import generate_lines


def _stage_start() -> tuple[float, datetime]:
    """When a stage starts: a perf counter for its wall time, and a UTC stamp."""
    return time.perf_counter(), datetime.now(timezone.utc)


def _open_log(path: Path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt")
    return open(path)


def _require(path: str | Path) -> Path:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    return path


def _write_manifest(command: str, params: dict, inputs: list, outputs: list,
                    started: tuple[float, datetime], primary_output: str | Path) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "params": params,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "started_utc": started[1].isoformat(),
        "wall_time_s": round(time.perf_counter() - started[0], 6),
    }
    cache.save_json(manifest, Path(str(primary_output) + ".manifest.json"))


def _cmd_gen(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    lines, stats = generate_lines(cfg.generator)
    text = "\n".join(lines) + "\n"
    if cfg.log_path == "-":
        sys.stdout.write(text)
        return 0
    out = Path(cfg.log_path)
    if str(out).endswith(".gz"):
        with cache.atomic_write(out, "wb") as fh:
            with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(text.encode())
    else:
        with cache.atomic_write(out) as fh:
            fh.write(text)
    counts_path = Path(str(out) + ".counts.json")
    with cache.atomic_write(counts_path) as fh:
        json.dump(stats.as_dict(), fh, indent=1, sort_keys=True)
    _write_manifest("gen", {"generator": cfg.generator.__dict__}, [], [out, counts_path],
                    started, out)
    print(f"wrote {out} ({stats.total_records} records) and {counts_path}")
    return 0


def _cmd_parse(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    log_path = _require(cfg.log_path)
    out = Path(cfg.cache_path)
    with decoding(log_path), _open_log(log_path) as fh:
        records = parse_log(fh)
    sessions = sessionize(records)
    del records  # before labeling and the columns raise the peak
    label_sessions(sessions)
    cache.save_sessions(sessions, out)
    _write_manifest("parse", {}, [log_path], [out], started, out)
    n_imps = sum(len(s.impressions) for s in sessions)
    print(f"wrote {out}: {len(sessions)} sessions, {n_imps} impressions")
    return 0


def _cmd_stats(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    cache_path = _require(cfg.cache_path)
    out = Path(args.out or Path(cfg.reports_dir) / "stats.csv")
    columns = cache.load_columns(cache_path)

    stats = corpus_stats(columns, cfg.train_days)
    rows = [("corpus", metric, value) for metric, value in stats.as_dict().items()
            if metric != "grade_counts"]
    for period, counts in stats.grade_counts.items():
        rows += [(f"relevance_{period}", grade, count) for grade, count in counts.items()]

    inputs = [cache_path]
    if args.targets:
        targets_path = _require(args.targets)
        inputs.append(targets_path)
        targets = read_targets(targets_path)
        for role in ("train", "validation"):
            ids = targets.by_role(role)
            grades = columns.grades[columns.rows_of(ids)]
            if (grades < 0).any():
                raise DataError("target user={} session={} serp={} is unlabeled".format(
                    *ids[np.argmax(grades[:, 0] < 0)].tolist()))
            rows += [(f"relevance_{role}_targets", grade, count)
                     for grade, count in count_grades(grades).items()]

    with cache.atomic_write(out) as fh:
        fh.write("section,metric,value\n")
        for section, metric, value in rows:
            fh.write(f"{section},{metric},{value}\n")
    _write_manifest("stats", {"train_days": cfg.train_days}, inputs, [out], started, out)
    print(f"wrote {out}")
    return 0


def _cmd_partition(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    cache_path = _require(cfg.cache_path)
    out = Path(cfg.targets_path)
    columns = cache.load_columns(cache_path)
    targets, report = select_targets(
        columns, train_days=cfg.train_days, seed=cfg.partition_seed
    )
    write_targets(targets, out)
    _write_manifest(
        "partition",
        {"seed": cfg.partition_seed, "train_days": cfg.train_days,
         "report": report.__dict__},
        [cache_path], [out], started, out,
    )
    print(
        f"wrote {out}: train={len(targets.train)} "
        f"validation={len(targets.validation)} test={len(targets.test)} "
        f"(users={report.n_users}, no-train={report.users_without_train}, "
        f"no-validation={report.users_without_validation}, "
        f"no-test={report.users_without_test})"
    )
    return 0


def _cmd_index(args, cfg: PipelineConfig) -> int:
    columns = cache.load_columns(_require(cfg.cache_path))
    at, session = contexts.training_rows(columns, cfg.train_days)
    hit = columns.query_id[at] == args.lookup
    at, session = at[hit], session[hit]
    print(f"query {args.lookup}: {len(at)} occurrences")
    for user, day, session_id, t, docs, gains in zip(
        columns.user_id[session].tolist(), columns.day[session].tolist(),
        columns.session_id[session].tolist(), columns.time_passed[at].tolist(),
        columns.documents[at].tolist(), CODE_GAINS[columns.grades[at]].tolist(),
    ):
        print(f"  user={user} day={day} session={session_id} t={t} docs={docs} gains={gains}")
    return 0


def _cmd_extract(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    cache_path = _require(cfg.cache_path)
    targets_path = _require(cfg.targets_path)
    columns = cache.load_columns(cache_path)
    targets = read_targets(targets_path)
    extracted = features.extract_targets(
        columns, targets, train_days=cfg.train_days, seed=cfg.partition_seed
    )
    outputs = [Path(cfg.features_dir) / f"features_{role}.csv" for role in ROLES]
    for role, path in zip(ROLES, outputs):
        features.write_features(extracted[role], path)
    _write_manifest(
        "extract",
        {"seed": cfg.partition_seed, "train_days": cfg.train_days},
        [cache_path, targets_path], outputs, started, outputs[0],
    )
    print(
        "wrote "
        + ", ".join(f"{p} ({extracted[r].n_targets} targets)"
                    for p, r in zip(outputs, ROLES))
    )
    return 0


def _cmd_train(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    train_path = _require(args.train_features
                          or Path(cfg.features_dir) / "features_train.csv")
    val_path = _require(args.val_features
                        or Path(cfg.features_dir) / "features_validation.csv")
    kind = ModelKind(args.kind)
    out = Path(args.out or Path(cfg.models_dir) / f"model_{kind.value}.json")
    train_table = features.read_features(train_path)
    val_table = features.read_features(val_path)
    model = train(kind, train_table, val_table, cfg.training, seed=cfg.train_seed)
    model.save(out)
    _write_manifest(
        "train",
        {"kind": kind.value, "seed": cfg.train_seed, "settings": cfg.training.__dict__},
        [train_path, val_path], [out], started, out,
    )
    best = model.metadata.get("best_validation_ndcg")
    print(f"wrote {out}" + (f" (validation NDCG@10 {best:.5f})" if best else ""))
    return 0


def _cmd_score(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    model_path = _require(args.model)
    features_path = _require(args.features)
    out = Path(args.out or Path(cfg.reports_dir) / "scores.csv")
    model = RankModel.load(model_path)
    table = features.read_features(features_path)
    scores = score_table(model, table)
    evaluate.write_scores(table, scores, out)
    _write_manifest("score", {"model": str(model_path)},
                    [model_path, features_path], [out], started, out)
    print(f"wrote {out} ({table.n_targets} targets)")
    return 0


def _cmd_blend(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    if args.method == "learned" and not args.apply and len(args.scores) < 2:
        raise ConfigError("learned blending needs at least 2 score files")
    score_paths = [_require(p) for p in args.scores]
    out = Path(args.out or Path(cfg.reports_dir) / "blended_scores.csv")
    loaded = [evaluate.read_scores(p) for p in score_paths]
    table = loaded[0][0]
    if table.n_targets == 0:
        raise DataError(f"{score_paths[0]}: no targets to blend")
    for path, (other, _) in zip(score_paths[1:], loaded[1:]):
        if not (np.array_equal(other.user_ids, table.user_ids)
                and np.array_equal(other.session_ids, table.session_ids)
                and np.array_equal(other.serp_ids, table.serp_ids)):
            raise DataError(f"score files disagree on targets: {path}")
        if not np.array_equal(other.doc_ids, table.doc_ids):
            raise DataError(f"score files disagree on documents: {path}")
    member_scores = [scores.reshape(-1) for _, scores in loaded]
    names = [Path(p).name for p in score_paths]

    if args.apply:
        model = blend_mod.BlendModel.load(_require(args.apply))
        blended = model.apply(member_scores)
    elif args.method == "average":
        blended, model = blend_mod.blend_average(member_scores, names)
    else:
        blended, model = blend_mod.blend_learned(
            member_scores, table.gains, table.base_ranks,
            split_seed=cfg.blend_split_seed, names=names, cutoff=cfg.training.cutoff,
        )

    evaluate.write_scores(table, blended.reshape(table.doc_ids.shape), out)
    outputs = [out]
    if not args.apply:
        model_out = Path(args.model_out
                         or Path(cfg.models_dir) / f"blend_{model.method}.json")
        model.save(model_out)
        outputs.append(model_out)
    _write_manifest(
        "blend",
        {"method": (f"apply:{args.apply}" if args.apply else args.method),
         "members": names},
        score_paths, outputs, started, out,
    )
    extra = ""
    if not args.apply and model.method == "learned":
        extra = f" (holdout NDCG@10 {model.metadata['holdout_mean_ndcg']:.5f})"
    print(f"wrote {', '.join(str(p) for p in outputs)}{extra}")
    return 0


def _cmd_eval(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    scores_path = _require(args.scores)
    out_dir = Path(cfg.reports_dir)
    table, scores = evaluate.read_scores(scores_path)
    report = evaluate.evaluate_run(
        table, scores, cutoff=cfg.training.cutoff, split_seed=args.split_seed
    )
    report_path = out_dir / "report.csv"
    summary_path = out_dir / "summary.csv"
    evaluate.write_report(report, report_path)
    evaluate.write_summary(report, summary_path)
    _write_manifest(
        "eval", {"split_seed": args.split_seed},
        [scores_path], [report_path, summary_path], started, report_path,
    )
    print(
        f"wrote {report_path}, {summary_path}: mean NDCG@{cfg.training.cutoff} "
        f"{report.mean_ndcg:.5f} (base {report.mean_base_ndcg:.5f}, "
        f"mean tau {report.mean_tau:.5f})"
    )
    return 0


def _cmd_analyze(args, cfg: PipelineConfig) -> int:
    started = _stage_start()
    report_path = _require(args.report)
    out_dir = Path(cfg.reports_dir)
    taus, deltas = [], []
    with decoding(report_path), open(report_path, newline="") as fh:
        rows = csv.DictReader(fh)
        if not {"tau", "delta_ndcg"} <= set(rows.fieldnames or ()):
            raise DataError(f"{report_path}: line 1: needs tau and delta_ndcg columns")
        try:
            for row in rows:
                taus.append(finite_float(row["tau"]))
                deltas.append(finite_float(row["delta_ndcg"]))
        except (TypeError, ValueError) as exc:  # TypeError: a short row
            raise DataError(f"{report_path}: line {rows.line_num}: {exc}") from None
    tau_path = out_dir / "tau_hist.csv"
    delta_path = out_dir / "delta_ndcg_hist.csv"
    evaluate.write_histogram(evaluate.histogram(taus, -1.0, 1.0, 20), tau_path)
    evaluate.write_histogram(evaluate.histogram(deltas, -1.0, 1.0, 40), delta_path)
    _write_manifest("analyze", {}, [report_path], [tau_path, delta_path],
                    started, tau_path)
    print(f"wrote {tau_path}, {delta_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persorank",
        description="Personalized search re-ranking pipeline.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("-c", "--config", help="key = value config file")
        p.add_argument(
            "-O", "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a config value",
        )
        return p

    def setting(p, flag, key, help_text):
        """A flag that overrides config key `key`; absent unless given."""
        p.add_argument(flag, dest=key, default=argparse.SUPPRESS,
                       help=f"{help_text} (sets {key})")

    p = add("gen", _cmd_gen, "generate a synthetic click log")
    setting(p, "--out", "log_path", "log file to write (.gz for gzip, - for stdout)")

    p = add("parse", _cmd_parse, "parse and label a log into a session cache")
    setting(p, "--log", "log_path", "input log file (TSV, optionally .gz)")
    setting(p, "--out", "cache_path", "session cache to write")

    p = add("stats", _cmd_stats, "corpus and relevance distribution report")
    setting(p, "--cache", "cache_path", "session cache")
    p.add_argument("--targets", help="optional targets CSV for per-role stats")
    setting(p, "--train-days", "train_days", "days in the training period")
    p.add_argument("--out", help="stats CSV to write")

    p = add("partition", _cmd_partition, "select per-user target queries")
    setting(p, "--cache", "cache_path", "session cache")
    setting(p, "--out", "targets_path", "targets CSV to write")
    setting(p, "--seed", "partition_seed", "tie-break seed")
    setting(p, "--train-days", "train_days", "days in the training period")

    p = add("index", _cmd_index, "print a query's indexed occurrences")
    setting(p, "--cache", "cache_path", "session cache")
    setting(p, "--train-days", "train_days", "days in the training period")
    p.add_argument("--lookup", type=int, metavar="QUERY_ID", required=True,
                   help="query whose occurrences to print")

    p = add("extract", _cmd_extract, "extract features for all targets")
    setting(p, "--cache", "cache_path", "session cache")
    setting(p, "--targets", "targets_path", "targets CSV")
    setting(p, "--out-dir", "features_dir", "directory for feature files")
    setting(p, "--seed", "partition_seed", "session order seed")
    setting(p, "--train-days", "train_days", "days in the training period")

    p = add("train", _cmd_train, "train a scoring model")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in ModelKind])
    p.add_argument("--train-features", dest="train_features")
    p.add_argument("--val-features", dest="val_features")
    p.add_argument("--out", help="model JSON to write")
    setting(p, "--seed", "train_seed", "weight init and shuffle seed")
    setting(p, "--hidden", "hidden_units", "hidden layer width")
    setting(p, "--lr", "learning_rate", "learning rate")
    setting(p, "--epochs", "epochs", "maximum epochs")
    setting(p, "--batch", "batch_queries", "queries per mini-batch")
    setting(p, "--patience", "patience", "early-stopping patience in epochs")

    p = add("score", _cmd_score, "score a feature file with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", help="scores CSV to write")

    p = add("blend", _cmd_blend, "aggregate several score files")
    p.add_argument("--scores", nargs="+", required=True,
                   help="member score files (aligned targets)")
    p.add_argument("--method", choices=["average", "learned"], default="average")
    setting(p, "--split-seed", "blend_split_seed", "learned blend's fit/holdout split seed")
    p.add_argument("--apply", help="apply an existing blend model file")
    p.add_argument("--out", help="blended scores CSV to write")
    p.add_argument("--model-out", dest="model_out", help="blend model JSON")

    p = add("eval", _cmd_eval, "evaluate a score file")
    p.add_argument("--scores", required=True)
    setting(p, "--out-dir", "reports_dir", "directory for the reports")
    p.add_argument("--split-seed", dest="split_seed", type=seed,
                   help="emulate a hidden half/half leaderboard split")

    p = add("analyze", _cmd_analyze, "histogram the per-query report")
    p.add_argument("--report", required=True)
    setting(p, "--out-dir", "reports_dir", "directory for the histograms")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    flags = {k: v for k, v in vars(args).items() if k in KEY_TYPES}
    try:
        cfg = load_config(args.config, args.overrides, flags)
        return args.handler(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, LogParseError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
