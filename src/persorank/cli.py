"""Command-line pipeline driver.

Subcommands cover the full flow: gen, parse, stats, partition, index,
extract, train, score, blend, eval, analyze. Settings resolve as defaults
< ``--config`` file < ``-O key=value`` < flags; a flag that stands for a
config key is parsed into that key, so handlers read settings only from the
config, and every setting is range-checked before a handler runs. Every
artifact is written atomically. ``main`` records each command that writes
files in one JSON run manifest: the effective config, the parameters that
are no config key, inputs, outputs, start time and wall time.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import gzip
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, blend as blend_mod, cache, contexts, evaluate, features
from .config import KEY_TYPES, Config, ConfigError, load_config, seed
from .logs import (
    CODE_GAINS,
    DataError,
    LogParseError,
    SessionColumns,
    corpus_stats,
    count_grades,
    decoding,
    label_sessions,
    parse_columns,
    parse_log,
    sessionize,
)
from .partition import ROLES, read_targets, select_targets, write_targets
from .ranker import ModelKind, RankModel, score_table, train
from .synth import generate_lines


# `main` hands the heap's free pages back after each command (see
# `cache.malloc_trim`), so a run of commands peaks at the largest one's need.
_malloc_trim = cache.malloc_trim


def _open_log(path: Path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt")
    return open(path)


def _require(path: str | Path) -> Path:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    if path.is_dir():
        raise DataError(f"cannot read {path}: {os.strerror(errno.EISDIR)}")
    return path


class _Named(DataError):
    """A DataError that names its input file already, which `_naming` passes on as it is."""


@contextlib.contextmanager
def _naming(*paths: Path):
    """Name the input `paths` in a DataError raised within, unless it is `_Named`.

    Such an error names only a record, a session or a target, which may be
    at fault in any of the inputs that must agree.
    """
    try:
        yield
    except _Named:
        raise
    except DataError as exc:
        raise DataError(f"{', '.join(map(str, paths))}: {exc}") from None


def _outputs(*paths: str | Path) -> list[Path]:
    """Paths to write, each checked to be no directory and to lie in an existing one.

    Handlers check their outputs before they load their inputs, so a path
    that cannot be written fails before the stage's work, not after it.
    """
    paths = [Path(p) for p in paths]
    for path in paths:
        if path.is_dir():
            raise DataError(f"cannot create {path}: {os.strerror(errno.EISDIR)}")
        if not path.parent.is_dir():
            reason = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
            raise DataError(f"cannot create {path}: {os.strerror(reason)}")
    return paths


# Log lines per write of `gen`.
GEN_WRITE_LINES = 1 << 14

# Each handler writes its files, then returns (params, inputs, outputs, the
# line to print) for `main` to record in a manifest beside outputs[0]; a
# handler that writes no file returns None.


def _cmd_gen(args, cfg: Config):
    out = Path(cfg.log_path)
    outputs = [] if cfg.log_path == "-" else _outputs(out, f"{out}.counts.json")
    lines, stats = generate_lines(cfg)
    # The log's text, a block of lines at a time, so that it is never held whole.
    blocks = ("\n".join(lines[start:start + GEN_WRITE_LINES]) + "\n"
              for start in range(0, len(lines), GEN_WRITE_LINES))
    if not outputs:
        sys.stdout.writelines(blocks)
        return None
    if str(out).endswith(".gz"):
        with cache.atomic_write(out, "wb") as fh:
            # No file name in the header: the temp file's is random.
            with gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0) as gz:
                for block in blocks:
                    gz.write(block.encode())
    else:
        with cache.atomic_write(out) as fh:
            fh.writelines(blocks)
    with cache.atomic_write(outputs[1]) as fh:
        json.dump(stats.as_dict(), fh, indent=1, sort_keys=True)
    return ({}, [], outputs,
            f"wrote {out} ({stats.total_records} records) and {outputs[1]}")


def _cmd_parse(args, cfg: Config):
    log_path = _require(cfg.log_path)
    [out] = _outputs(cfg.cache_path)
    try:
        with decoding(log_path), _open_log(log_path) as fh:
            columns = parse_columns(fh)
    except DataError:  # left to the line-by-line path, which meets it in file order
        columns = None
    if columns is None:  # not a canonical log: the result or the error is the reference's
        with decoding(log_path), _open_log(log_path) as fh:
            records = parse_log(fh)
        with _naming(log_path):
            sessions = sessionize(records)
        del records  # before labeling and the columns raise the peak
        label_sessions(sessions)
        columns = SessionColumns.of(sessions)
    cache.save_sessions(columns, out)
    return {}, [log_path], [out], (f"wrote {out}: {len(columns.session_id)} sessions, "
                                   f"{len(columns.serp_id)} impressions")


def _cmd_stats(args, cfg: Config):
    inputs = [_require(cfg.cache_path)] + ([_require(args.targets)] if args.targets else [])
    [out] = _outputs(args.out or Path(cfg.reports_dir) / "stats.csv")
    columns = cache.load_columns(inputs[0])

    stats = corpus_stats(columns, cfg.train_days)
    rows = [("corpus", metric, value) for metric, value in stats.as_dict().items()
            if metric != "grade_counts"]
    for period, counts in stats.grade_counts.items():
        rows += [(f"relevance_{period}", grade, count) for grade, count in counts.items()]

    if args.targets:
        targets = read_targets(inputs[1])
        for role in ("train", "validation"):
            ids = targets.by_role(role)
            with _naming(*inputs):
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
    return {}, inputs, [out], f"wrote {out}"


def _cmd_partition(args, cfg: Config):
    cache_path = _require(cfg.cache_path)
    [out] = _outputs(cfg.targets_path)
    columns = cache.load_columns(cache_path)
    targets, report = select_targets(
        columns, train_days=cfg.train_days, seed=cfg.partition_seed
    )
    write_targets(targets, out)
    return {"report": report.__dict__}, [cache_path], [out], (
        f"wrote {out}: train={len(targets.train)} "
        f"validation={len(targets.validation)} test={len(targets.test)} "
        f"(users={report.n_users}, no-train={report.users_without_train}, "
        f"no-validation={report.users_without_validation}, "
        f"no-test={report.users_without_test})"
    )


def _cmd_index(args, cfg: Config):
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


def _cmd_extract(args, cfg: Config):
    cache_path = _require(cfg.cache_path)
    targets_path = _require(cfg.targets_path)
    outputs = _outputs(*(Path(cfg.features_dir) / f"features_{role}.csv" for role in ROLES))
    columns = cache.load_columns(cache_path)
    targets = read_targets(targets_path)
    with _naming(cache_path, targets_path):
        extraction = features.Extraction.read(columns, targets, train_days=cfg.train_days,
                                              seed=cfg.partition_seed)
    del columns  # before the index is built, so that the two are never held together
    extraction.index()
    # One role at a time, each extracted chunk by chunk as it is written to a
    # temp file; all three go into place together once the last is written,
    # or none does.
    n_targets = [len(extraction.targets[role].ids) for role in ROLES]
    with contextlib.ExitStack() as stack:
        for role, path in zip(ROLES, outputs):
            temp = stack.enter_context(cache.atomic_write(path, mode=None))
            features.write_features(features.extract_chunks(extraction, role), temp)
    return (
        {}, [cache_path, targets_path], outputs,
        "wrote " + ", ".join(f"{p} ({n} targets)" for p, n in zip(outputs, n_targets)),
    )


def _cmd_train(args, cfg: Config):
    train_path = _require(args.train_features
                          or Path(cfg.features_dir) / "features_train.csv")
    val_path = _require(args.val_features
                        or Path(cfg.features_dir) / "features_validation.csv")
    kind = ModelKind(args.kind)
    [out] = _outputs(args.out or Path(cfg.models_dir) / f"model_{kind.value}.json")
    # A feature file's errors name it already, so they are not named again. The
    # list hands the train table over, so `train` holds its only reference and
    # can free it early; the validation file is read when `train` asks for it,
    # once it has standardized the train table, so the two are never held together.
    tables = [features.read_features(train_path)]

    def read_validation() -> features.FeatureTable:
        try:
            return features.read_features(val_path)
        except DataError as exc:
            raise _Named(str(exc)) from None

    with _naming(train_path, val_path):
        model = train(kind, tables.pop(), read_validation, cfg)
    model.save(out)
    best = model.metadata.get("best_validation_ndcg")
    return (
        {"kind": kind.value}, [train_path, val_path], [out],
        f"wrote {out}" + (f" (validation NDCG@{cfg.ndcg_cutoff} {best:.5f})" if best else ""),
    )


def _cmd_score(args, cfg: Config):
    model_path = _require(args.model)
    features_path = _require(args.features)
    [out] = _outputs(args.out or Path(cfg.reports_dir) / "scores.csv")
    model = RankModel.load(model_path)
    table = features.read_features(features_path)
    with _naming(model_path, features_path):
        evaluate.write_scores(score_table(model, table), out)
    return ({"model": str(model_path)}, [model_path, features_path], [out],
            f"wrote {out} ({table.n_targets} targets)")


def _cmd_blend(args, cfg: Config):
    if args.apply and args.model_out:
        raise ConfigError("blend --apply fits no model to write to --model-out")
    if args.apply and args.method:
        raise ConfigError("blend --apply takes its method from the model, not from --method")
    method = args.method or "average"
    if method == "learned" and not args.apply and len(args.scores) < 2:
        raise ConfigError("learned blending needs at least 2 score files")
    score_paths = [_require(p) for p in args.scores]
    apply_path = args.apply and _require(args.apply)
    outputs = [args.out or Path(cfg.reports_dir) / "blended_scores.csv"]
    if not args.apply:
        outputs.append(args.model_out or Path(cfg.models_dir) / f"blend_{method}.json")
    outputs = _outputs(*outputs)
    tables = [evaluate.read_scores(p) for p in score_paths]
    table = tables[0]
    if table.n_targets == 0:
        raise DataError(f"{score_paths[0]}: no targets to blend")
    for path, other in zip(score_paths[1:], tables[1:]):
        if not np.array_equal(other.ids, table.ids):
            raise DataError(f"score files disagree on targets: {path}")
        if not np.array_equal(other.doc_ids, table.doc_ids):
            raise DataError(f"score files disagree on documents: {path}")
    names = [Path(p).name for p in score_paths]
    inputs = score_paths + ([apply_path] if args.apply else [])
    model = blend_mod.BlendModel.load(apply_path) if args.apply else None
    with _naming(*inputs):
        if args.apply:
            blended = model.apply(tables)
        elif method == "average":
            blended, model = blend_mod.blend_average(tables, names)
        else:
            blended, model = blend_mod.blend_learned(
                tables, split_seed=cfg.blend_split_seed, names=names, cutoff=cfg.ndcg_cutoff
            )
        evaluate.write_scores(blended, outputs[0])
    if not args.apply:
        model.save(outputs[1])
    extra = ""
    if not args.apply and model.method == "learned":
        extra = f" (holdout NDCG@{cfg.ndcg_cutoff} {model.metadata['holdout_mean_ndcg']:.5f})"
    params = {"method": (f"apply:{args.apply}" if args.apply else method),
              "members": names}
    return params, inputs, outputs, f"wrote {', '.join(str(p) for p in outputs)}{extra}"


def _cmd_eval(args, cfg: Config):
    scores_path = _require(args.scores)
    out_dir = Path(cfg.reports_dir)
    report_path, summary_path = _outputs(out_dir / "report.csv", out_dir / "summary.csv")
    report = evaluate.evaluate_run(
        evaluate.read_scores(scores_path), cutoff=cfg.ndcg_cutoff, split_seed=args.split_seed
    )
    evaluate.write_report(report, report_path)
    evaluate.write_summary(report, summary_path)
    return {"split_seed": args.split_seed}, [scores_path], [report_path, summary_path], (
        f"wrote {report_path}, {summary_path}: mean NDCG@{cfg.ndcg_cutoff} "
        f"{report.mean_ndcg:.5f} (base {report.mean_base_ndcg:.5f}, "
        f"mean tau {report.mean_tau:.5f})"
    )


def _cmd_analyze(args, cfg: Config):
    report_path = _require(args.report)
    out_dir = Path(cfg.reports_dir)
    tau_path, delta_path = _outputs(out_dir / "tau_hist.csv", out_dir / "delta_ndcg_hist.csv")
    taus, deltas = [], []
    with decoding(report_path), open(report_path, newline="") as fh:
        rows = csv.DictReader(fh)
        if not {"tau", "delta_ndcg"} <= set(rows.fieldnames or ()):
            raise DataError(f"{report_path}: line 1: needs tau and delta_ndcg columns")
        try:
            for row in rows:
                tau, delta = float(row["tau"]), float(row["delta_ndcg"])
                if not (-1.0 <= tau <= 1.0 and -1.0 <= delta <= 1.0):
                    raise ValueError("tau and delta_ndcg must lie in [-1, 1]")
                taus.append(tau)
                deltas.append(delta)
        except (TypeError, ValueError) as exc:  # TypeError: a short row
            raise DataError(f"{report_path}: line {rows.line_num}: {exc}") from None
    evaluate.write_histogram(evaluate.histogram(taus, -1.0, 1.0, 20), tau_path)
    evaluate.write_histogram(evaluate.histogram(deltas, -1.0, 1.0, 40), delta_path)
    return {}, [report_path], [tau_path, delta_path], f"wrote {tau_path}, {delta_path}"


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
    p.add_argument("--method", choices=["average", "learned"],
                   help="how to fit the blend (default: average)")
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
    start, started_utc = time.perf_counter(), datetime.now(timezone.utc)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    flags = {k: v for k, v in vars(args).items() if k in KEY_TYPES}
    try:
        cfg = load_config(args.config, args.overrides, flags)
        wrote = args.handler(args, cfg)
        if wrote is not None:
            params, inputs, outputs, line = wrote
            manifest = {
                "command": args.command,
                "version": __version__,
                "params": params,
                "config": dataclasses.asdict(cfg),
                "inputs": [str(p) for p in inputs],
                "outputs": [str(p) for p in outputs],
                "started_utc": started_utc.isoformat(),
                "wall_time_s": round(time.perf_counter() - start, 6),
            }
            cache.save_json(manifest, Path(f"{outputs[0]}.manifest.json"))
            print(line)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, LogParseError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
