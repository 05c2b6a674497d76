import argparse
import csv
import dataclasses
import gzip
import io
import json
import os
import pickle
import platform
import random
import re
import stat
import subprocess
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import persorank
from persorank import cache as cache_mod
from persorank.blend import blend_average
from persorank.cli import build_parser, main
from persorank.config import KEY_TYPES, Config
from persorank.features import N_FEATURES
from persorank.ranker import ModelKind, RankModel, Standardizer, init_params
from test_blend import scored
from test_config import BOUNDARY_VALUES

GEN_OVERRIDES = [
    "-O", "n_users=25", "-O", "n_queries=200", "-O", "n_terms=150",
    "-O", "n_documents=1200", "-O", "n_domains=100", "-O", "synth_seed=31",
]


def run(*argv):
    return main(list(argv))


def run_pipeline(workdir: Path, train_kind="ranknet", lr="0.1", gzip_log=False):
    """gen -> parse -> partition -> extract -> train -> score -> eval -> analyze."""
    workdir.mkdir(parents=True, exist_ok=True)
    log = workdir / ("log.tsv.gz" if gzip_log else "log.tsv")
    cache = workdir / "sessions.cache"
    targets = workdir / "targets.csv"
    assert run("gen", "--out", str(log), *GEN_OVERRIDES) == 0
    assert run("parse", "--log", str(log), "--out", str(cache)) == 0
    assert run("partition", "--cache", str(cache), "--out", str(targets),
               "--seed", "5") == 0
    assert run("extract", "--cache", str(cache), "--targets", str(targets),
               "--out-dir", str(workdir), "--seed", "5") == 0
    model = workdir / "model.json"
    assert run("train", "--kind", train_kind,
               "--train-features", str(workdir / "features_train.csv"),
               "--val-features", str(workdir / "features_validation.csv"),
               "--out", str(model), "--seed", "2", "--lr", lr,
               "--epochs", "30", "--hidden", "16") == 0
    scores = workdir / "scores.csv"
    assert run("score", "--model", str(model),
               "--features", str(workdir / "features_validation.csv"),
               "--out", str(scores)) == 0
    assert run("eval", "--scores", str(scores), "--out-dir", str(workdir)) == 0
    assert run("analyze", "--report", str(workdir / "report.csv"),
               "--out-dir", str(workdir)) == 0
    return workdir


class TestPipeline:
    def test_full_pipeline_produces_artifacts(self, tmp_path):
        run_pipeline(tmp_path)
        for name in (
            "log.tsv", "log.tsv.counts.json", "sessions.cache", "targets.csv",
            "features_train.csv", "features_validation.csv", "features_test.csv",
            "model.json", "scores.csv", "report.csv", "summary.csv",
            "tau_hist.csv", "delta_ndcg_hist.csv",
        ):
            assert (tmp_path / name).exists(), name

    def test_largest_day_count_is_generated_and_parsed(self, tmp_path):
        """gen holds only the days it logs, and its test days still fit a log line."""
        log, cache_file = tmp_path / "log.tsv", tmp_path / "s.cache"
        assert run("gen", "--out", str(log), "-O", "n_users=2",
                   "-O", "n_days=999999999999999999", "-O", "train_days=1") == 0
        assert run("parse", "--log", str(log), "--out", str(cache_file)) == 0
        days = cache_mod.load_columns(cache_file).day
        assert days.min() == 1 and days.max() > 10**15  # the test days, drawn from 2..n_days

    def test_gzip_log_round_trip(self, tmp_path):
        log = tmp_path / "log.tsv.gz"
        assert run("gen", "--out", str(log), *GEN_OVERRIDES) == 0
        assert run("parse", "--log", str(log),
                   "--out", str(tmp_path / "s.cache")) == 0

    def test_gzip_log_is_deterministic(self, tmp_path):
        log, written = tmp_path / "log.tsv.gz", []
        for _ in range(2):
            assert run("gen", "--out", str(log), *GEN_OVERRIDES) == 0
            written.append(log.read_bytes())
        assert written[0] == written[1]
        assert not written[0][3] & gzip.FNAME  # the header names no (temp) file

    def test_log_written_in_blocks_is_the_whole_text(self, tmp_path, monkeypatch, capsys):
        # At this size the default block is the whole log; 100 lines makes 46 blocks.
        assert run("gen", "--out", str(tmp_path / "log.tsv"), *GEN_OVERRIDES) == 0
        text = (tmp_path / "log.tsv").read_bytes()
        monkeypatch.setattr("persorank.cli.GEN_WRITE_LINES", 100)
        for name in "blocks.tsv", "blocks.tsv.gz":
            assert run("gen", "--out", str(tmp_path / name), *GEN_OVERRIDES) == 0
        capsys.readouterr()
        assert run("gen", "--out", "-", *GEN_OVERRIDES) == 0
        assert capsys.readouterr().out.encode() == text
        assert (tmp_path / "blocks.tsv").read_bytes() == text
        whole = io.BytesIO()  # the whole text in one write, as the log was once written
        with gzip.GzipFile(filename="", fileobj=whole, mode="wb", mtime=0) as gz:
            gz.write(text)
        assert (tmp_path / "blocks.tsv.gz").read_bytes() == whole.getvalue()

    def test_pipeline_deterministic_across_runs(self, tmp_path):
        a = run_pipeline(tmp_path / "a")
        b = run_pipeline(tmp_path / "b")
        for name in (
            "log.tsv", "targets.csv", "features_train.csv",
            "features_validation.csv", "features_test.csv", "scores.csv",
            "report.csv", "summary.csv", "tau_hist.csv", "delta_ndcg_hist.csv",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_blend_subcommand(self, tmp_path):
        w = run_pipeline(tmp_path)
        heur_model = w / "model_h.json"
        assert run("train", "--kind", "heuristic",
                   "--train-features", str(w / "features_train.csv"),
                   "--val-features", str(w / "features_validation.csv"),
                   "--out", str(heur_model)) == 0
        heur_scores = w / "scores_h.csv"
        assert run("score", "--model", str(heur_model),
                   "--features", str(w / "features_validation.csv"),
                   "--out", str(heur_scores)) == 0
        blended = w / "blended.csv"
        blend_model = w / "blend.json"
        assert run("blend", "--scores", str(w / "scores.csv"), str(heur_scores),
                   "--method", "learned", "--split-seed", "3",
                   "--out", str(blended), "--model-out", str(blend_model)) == 0
        assert blended.exists() and blend_model.exists()
        payload = json.loads(blend_model.read_text())
        assert payload["method"] == "learned"
        assert len(payload["weights"]) == 2
        # apply the saved blend model to the same members
        applied = w / "applied.csv"
        assert run("blend", "--scores", str(w / "scores.csv"), str(heur_scores),
                   "--apply", str(blend_model), "--out", str(applied)) == 0
        assert applied.read_bytes() == blended.read_bytes()
        assert run("eval", "--scores", str(blended), "--out-dir", str(w)) == 0

    @pytest.mark.parametrize("method", ["average", "learned"])
    def test_blend_applied_to_its_fitting_scores_rewrites_its_output(self, scored_run,
                                                                      tmp_path, method):
        members = [str(scored_run / "scores.csv"), str(regression_scores(scored_run, tmp_path))]
        fitted, applied, blend_file = (str(tmp_path / n) for n in ("f.csv", "a.csv", "b.json"))
        assert run("blend", "--scores", *members, "--method", method, "--out", fitted,
                   "--model-out", blend_file) == 0
        assert run("blend", "--scores", *members, "--apply", blend_file, "--out", applied) == 0
        assert Path(applied).read_bytes() == Path(fitted).read_bytes()

    def test_average_blend_single_member_matches_eval(self, tmp_path):
        w = run_pipeline(tmp_path)
        blended = w / "blend_avg.csv"
        assert run("blend", "--scores", str(w / "scores.csv"),
                   "--method", "average", "--out", str(blended),
                   "--model-out", str(w / "avg.json")) == 0
        assert run("eval", "--scores", str(blended), "--out-dir", str(w / "x")) == 2
        (w / "x").mkdir()
        assert run("eval", "--scores", str(blended), "--out-dir", str(w / "x")) == 0

    def test_test_features_are_not_read_by_train_or_learned_blend(self, tmp_path):
        w = run_pipeline(tmp_path)
        features_dir = ["-O", f"features_dir={w}"]

        def train_and_blend(tag):
            model = w / f"model_{tag}.json"
            assert run("train", "--kind", "ranknet", "--out", str(model), *features_dir,
                       "--seed", "2", "--lr", "0.1", "--epochs", "30", "--hidden", "16") == 0
            blend_model = w / f"blend_{tag}.json"
            assert run("blend", "--scores", str(w / "scores.csv"), str(w / "scores.csv"),
                       "--method", "learned", "--out", str(w / f"blended_{tag}.csv"),
                       "--model-out", str(blend_model)) == 0
            return model.read_bytes(), blend_model.read_bytes()

        intact = train_and_blend("intact")
        (w / "features_test.csv").unlink()
        assert train_and_blend("held_out") == intact


def counted_by_hand(log: Path, cache: Path, targets: Path, train_days: int) -> Counter:
    """The nonzero counts of stats, from the log lines and the cached sessions' labels.

    Keys are (section, metric) as in stats.csv. Nothing here goes through
    `corpus_stats`, `count_grades` or `rows_of`, so a miscount there shows.
    """
    lines = log.read_text().splitlines()
    days, users, queries, documents, counts = {}, set(), set(), set(), Counter()
    for line in lines:
        fields = line.split("\t")
        if fields[1] == "M":
            days[fields[0]] = int(fields[2])
            users.add(fields[3])
            period = "training" if int(fields[2]) <= train_days else "test"
            counts[("corpus", f"{period}_sessions")] += 1
        elif fields[2] in ("Q", "T"):
            queries.add(fields[4])
            documents.update(pair.split(",")[0] for pair in fields[6:])
        elif days[fields[0]] <= train_days:
            counts[("corpus", "training_clicks")] += 1
    counts.update({("corpus", "unique_users"): len(users),
                   ("corpus", "unique_queries"): len(queries),
                   ("corpus", "unique_documents"): len(documents),
                   ("corpus", "total_records"): len(lines)})
    by_ref = {}
    for session in cache_mod.load_sessions(cache):
        period = "training" if session.day <= train_days else "test"
        for imp in session.impressions:
            by_ref[(session.user_id, session.session_id, imp.serp_id)] = imp
            counts.update((f"relevance_{period}", grade.value) for grade in imp.labels)
    with open(targets, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["role"] != "test":
                ref = (int(row["user_id"]), int(row["session_id"]), int(row["serp_id"]))
                counts.update((f"relevance_{row['role']}_targets", grade.value)
                              for grade in by_ref[ref].labels)
    return +counts


def stats_run(w: Path, train_days: int) -> dict:
    """gen -> parse -> partition -> stats --targets, all at `train_days`; stats.csv's rows."""
    days = ["--train-days", str(train_days)]
    assert run("gen", "--out", str(w / "log.tsv"), *GEN_OVERRIDES) == 0
    assert run("parse", "--log", str(w / "log.tsv"), "--out", str(w / "s.cache")) == 0
    assert run("partition", "--cache", str(w / "s.cache"), "--out", str(w / "t.csv"),
               *days) == 0
    assert run("stats", "--cache", str(w / "s.cache"), "--targets", str(w / "t.csv"),
               "--out", str(w / "stats.csv"), *days) == 0
    with open(w / "stats.csv") as fh:
        return {(row["section"], row["metric"]): int(row["value"]) for row in csv.DictReader(fh)}


class TestStats:
    def test_totals_match_generator_bookkeeping(self, tmp_path):
        w = tmp_path
        rows = stats_run(w, 27)  # the generator's training period
        assert +Counter(rows) == counted_by_hand(w / "log.tsv", w / "s.cache", w / "t.csv", 27)
        bookkeeping = json.loads((w / "log.tsv.counts.json").read_text())
        for metric, value in bookkeeping.items():
            if metric != "grade_counts":
                assert rows[("corpus", metric)] == value, metric
        for period in ("training", "test"):
            for grade, count in bookkeeping["grade_counts"][period].items():
                assert rows[(f"relevance_{period}", grade)] == count
        assert ("relevance_train_targets", "r2") in rows

    def test_longer_log_counts_match_generator_bookkeeping(self, tmp_path):
        """gen plans its training days from the same train_days key that stats reads."""
        settings = ["-O", "n_days=40", "-O", "n_users=20"]
        log, cache, out = tmp_path / "log.tsv", tmp_path / "s.cache", tmp_path / "stats.csv"
        assert run("gen", "--out", str(log), *settings) == 0
        assert run("parse", "--log", str(log), "--out", str(cache), *settings) == 0
        assert run("stats", "--cache", str(cache), "--out", str(out), *settings) == 0
        with open(out) as fh:
            rows = {(row["section"], row["metric"]): int(row["value"])
                    for row in csv.DictReader(fh)}
        bookkeeping = json.loads((tmp_path / "log.tsv.counts.json").read_text())
        for metric in ("training_sessions", "test_sessions", "training_clicks"):
            assert rows[("corpus", metric)] == bookkeeping[metric], metric
        for period in ("training", "test"):
            for grade, count in bookkeeping["grade_counts"][period].items():
                assert rows[(f"relevance_{period}", grade)] == count, (period, grade)

    def test_other_training_period_matches_a_count_by_hand(self, tmp_path):
        rows = stats_run(tmp_path, 20)
        assert +Counter(rows) == counted_by_hand(
            tmp_path / "log.tsv", tmp_path / "s.cache", tmp_path / "t.csv", 20)

    def test_unlabeled_target_is_data_error(self, scored_run, tmp_path, capsys):
        columns = cache_mod.load_columns(scored_run / "s.cache")
        with open(scored_run / "t.csv", newline="") as fh:
            ref = next(csv.DictReader(fh))  # the first train target
        columns.grades[columns.rows_of(
            [(int(ref["user_id"]), int(ref["session_id"]), int(ref["serp_id"]))])] = -1
        bad = write_cache(tmp_path / "s.cache", columns.arrays())
        capsys.readouterr()
        assert run("stats", "--cache", str(bad), "--targets", str(scored_run / "t.csv"),
                   "--out", str(tmp_path / "stats.csv")) == 2
        assert "is unlabeled" in capsys.readouterr().err


class TestLookup:
    def test_index_lookup_prints_occurrences(self, tmp_path, capsys):
        w = tmp_path
        assert run("gen", "--out", str(w / "log.tsv"), *GEN_OVERRIDES) == 0
        assert run("parse", "--log", str(w / "log.tsv"),
                   "--out", str(w / "s.cache")) == 0
        capsys.readouterr()
        qid = cache_mod.load_columns(w / "s.cache").query_id[0]  # a query of the corpus
        assert run("index", "--cache", str(w / "s.cache"),
                   "--lookup", str(qid)) == 0
        out = capsys.readouterr().out
        assert f"query {qid}:" in out
        assert "user=" in out

    def test_index_needs_a_query_to_look_up(self, tmp_path):
        assert run("index", "--cache", str(tmp_path / "s.cache")) == 1

    def test_index_takes_no_seed(self, scored_run, capsys):
        assert run("index", "--cache", str(scored_run / "s.cache"), "--lookup", "1",
                   "--seed", "1") == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestErrors:
    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_eval_before_score_names_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "scores.csv"
        assert run("eval", "--scores", str(missing), "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert str(missing) in err

    def test_bad_config_value_is_usage_error(self, tmp_path):
        assert run("gen", "--out", str(tmp_path / "x.tsv"), "-O", "n_days=2") == 1

    def test_gen_refuses_session_ids_beyond_what_parse_reads(self, tmp_path, capsys,
                                                             monkeypatch):
        """10**18 training days would number sessions past 18 digits: refused before planning."""
        def plan(cfg):
            raise AssertionError("gen planned a log for a config it should refuse")

        monkeypatch.setattr("persorank.cli.generate_lines", plan)
        out = tmp_path / "x.tsv"
        assert run("gen", "--out", str(out), "-O", "n_days=999999999999999999",
                   "-O", "train_days=999999999999999998") == 1
        err = capsys.readouterr().err
        assert "n_users" in err and "train_days" in err and not out.exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        assert run("gen", "--out", str(tmp_path / "x.tsv"), "-O", "nope=3") == 1

    def test_config_file_feeds_defaults(self, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(
            "# tiny corpus\n"
            "n_users = 6\n"
            "n_queries = 80\nn_terms = 60\nn_documents = 400\nn_domains = 40\n"
            f"log_path = {tmp_path / 'log.tsv'}\n"
        )
        assert run("gen", "-c", str(cfg)) == 0
        assert (tmp_path / "log.tsv").exists()
        counts = json.loads((tmp_path / "log.tsv.counts.json").read_text())
        assert counts["unique_users"] == 6

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(persorank.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-m", "persorank", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert "usage: persorank" in done.stdout

    def test_malformed_log_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\tM\t3\t100\ngarbage line\n")
        assert run("parse", "--log", str(bad), "--out", str(tmp_path / "c")) == 2

    @pytest.mark.parametrize("kind,field,value", [
        ("M", 3, str(2**63 + 5)),
        ("Q", 6, f"{2**64},1"),
        ("Q", 5, f"1,{2**64}"),
        ("C", 1, str(-2**63 - 1)),
    ], ids=["user_id", "document_id", "term_id", "click_time"])
    def test_log_number_outside_int64_is_data_error(self, tmp_path, capsys, kind, field,
                                                    value):
        log = tmp_path / "log.tsv"
        assert run("gen", "--out", str(log), *GEN_OVERRIDES) == 0
        lines = log.read_text().splitlines(keepends=True)
        at = next(i for i in range(len(lines) // 2, len(lines))
                  if kind in lines[i].split("\t")[1:3])
        fields = lines[at].rstrip("\n").split("\t")
        fields[field] = value
        lines[at] = "\t".join(fields) + "\n"
        log.write_text("".join(lines))
        capsys.readouterr()
        assert run("parse", "--log", str(log), "--out", str(tmp_path / "s.cache")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: line {at + 1}: ") and "does not fit in int64" in err

    def test_corrupt_cache_is_data_error(self, tmp_path):
        fake = tmp_path / "fake.cache"
        fake.write_bytes(b"not a cache")
        assert run("partition", "--cache", str(fake),
                   "--out", str(tmp_path / "t.csv")) == 2


def manifests(*dirs: Path) -> set[Path]:
    return {p for d in dirs for p in d.rglob("*.manifest.json")}


def _blend_case(w: Path, o: Path, apply: bool):
    scores = w / "scores.csv"
    members = [scores, scores]
    if apply:
        fit = o.parent / "fit"
        fit.mkdir()
        assert run("blend", "--scores", *map(str, members), "--method", "learned",
                   "--out", str(fit / "b.csv"), "--model-out", str(fit / "b.json")) == 0
        inputs, outputs = [*members, fit / "b.json"], [o / "applied.csv"]
        argv = ["blend", "--scores", *map(str, members), "--apply", str(fit / "b.json"),
                "--out", str(outputs[0])]
        method = f"apply:{fit / 'b.json'}"
    else:
        inputs, outputs = members, [o / "b.csv", o / "b.json"]
        argv = ["blend", "--scores", *map(str, members), "--method", "learned",
                "--out", str(outputs[0]), "--model-out", str(outputs[1])]
        method = "learned"
    return argv, inputs, outputs, {"method": method, "members": ["scores.csv"] * 2}


# case: (scored run w, empty output directory o) -> (argv, the inputs and
# outputs the manifest lists, its params)
MANIFEST_CASES = {
    "gen": lambda w, o: (
        ["gen", "--out", str(o / "log.tsv"), *GEN_OVERRIDES], [],
        [o / "log.tsv", o / "log.tsv.counts.json"], {}),
    "parse": lambda w, o: (
        ["parse", "--log", str(w / "log.tsv"), "--out", str(o / "s.cache")],
        [w / "log.tsv"], [o / "s.cache"], {}),
    "stats_targets": lambda w, o: (
        ["stats", "--cache", str(w / "s.cache"), "--targets", str(w / "t.csv"),
         "--out", str(o / "stats.csv")],
        [w / "s.cache", w / "t.csv"], [o / "stats.csv"], {}),
    "partition": lambda w, o: (
        ["partition", "--cache", str(w / "s.cache"), "--out", str(o / "t.csv"), "--seed", "4"],
        [w / "s.cache"], [o / "t.csv"],
        {"report": {"n_users": 25, "users_without_sessions": 0, "users_without_train": 0,
                    "users_without_validation": 5, "users_without_test": 0}}),
    "extract": lambda w, o: (
        ["extract", "--cache", str(w / "s.cache"), "--targets", str(w / "t.csv"),
         "--out-dir", str(o)],
        [w / "s.cache", w / "t.csv"],
        [o / f"features_{role}.csv" for role in ("train", "validation", "test")], {}),
    "train": lambda w, o: (
        ["train", "--kind", "ranknet", "--train-features", str(w / "features_train.csv"),
         "--val-features", str(w / "features_validation.csv"), "--out", str(o / "m.json"),
         "--epochs", "2", "--hidden", "16"],
        [w / "features_train.csv", w / "features_validation.csv"], [o / "m.json"],
        {"kind": "ranknet"}),
    "score": lambda w, o: (
        ["score", "--model", str(w / "model.json"),
         "--features", str(w / "features_test.csv"), "--out", str(o / "s.csv")],
        [w / "model.json", w / "features_test.csv"], [o / "s.csv"],
        {"model": str(w / "model.json")}),
    "blend_learned": lambda w, o: _blend_case(w, o, apply=False),
    "blend_apply": lambda w, o: _blend_case(w, o, apply=True),
    "eval": lambda w, o: (
        ["eval", "--scores", str(w / "scores.csv"), "--out-dir", str(o), "--split-seed", "4"],
        [w / "scores.csv"], [o / "report.csv", o / "summary.csv"], {"split_seed": 4}),
    "analyze": lambda w, o: (
        ["analyze", "--report", str(w / "report.csv"), "--out-dir", str(o)],
        [w / "report.csv"], [o / "tau_hist.csv", o / "delta_ndcg_hist.csv"], {}),
}


class TestManifests:
    def test_manifest_written_with_required_fields(self, tmp_path):
        log = tmp_path / "log.tsv"
        assert run("gen", "--out", str(log), *GEN_OVERRIDES) == 0
        manifest = json.loads((tmp_path / "log.tsv.manifest.json").read_text())
        for key in ("command", "version", "params", "config", "inputs", "outputs",
                    "started_utc", "wall_time_s"):
            assert key in manifest
        assert manifest["command"] == "gen"
        assert manifest["config"] == dataclasses.asdict(Config(
            log_path=str(log), n_users=25, n_queries=200, n_terms=150, n_documents=1200,
            n_domains=100, synth_seed=31))

    @pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
    def test_one_manifest_beside_the_first_output(self, scored_run, tmp_path, case):
        out = tmp_path / "out"
        out.mkdir()
        argv, inputs, outputs, params = MANIFEST_CASES[case](scored_run, out)
        before = manifests(scored_run, tmp_path)
        assert run(*argv) == 0
        new = manifests(scored_run, tmp_path) - before
        assert new == {Path(f"{outputs[0]}.manifest.json")}
        manifest = json.loads(new.pop().read_text())
        assert manifest["command"] == argv[0]
        assert manifest["inputs"] == [str(p) for p in inputs]
        assert manifest["outputs"] == [str(p) for p in outputs]
        assert manifest["params"] == params
        assert dataclasses.asdict(Config(**manifest["config"])) == manifest["config"]

    def test_manifest_config_holds_flags_and_overrides(self, scored_run, tmp_path):
        argv, _, outputs, _ = MANIFEST_CASES["train"](scored_run, tmp_path)
        assert run(*argv, "-O", "patience=3") == 0
        manifest = json.loads(Path(f"{outputs[0]}.manifest.json").read_text())
        assert manifest["config"] == dataclasses.asdict(Config(hidden_units=16, epochs=2,
                                                               patience=3))

    @pytest.mark.parametrize("argv", [
        lambda w: ["gen", "--out", "-", *GEN_OVERRIDES],
        lambda w: ["index", "--cache", str(w / "s.cache"), "--lookup", "1"],
    ], ids=["gen_to_stdout", "index"])
    def test_commands_writing_no_file_write_no_manifest(self, scored_run, tmp_path,
                                                         monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        before = manifests(scored_run, tmp_path)
        assert run(*argv(scored_run)) == 0
        assert manifests(scored_run, tmp_path) == before
        assert list(tmp_path.iterdir()) == []

    def test_no_leftover_temp_files(self, tmp_path):
        run_pipeline(tmp_path)
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []

    def test_started_utc_is_the_start_of_the_stage(self, tmp_path):
        log = tmp_path / "log.tsv"
        before = datetime.now(timezone.utc)
        assert run("gen", "--out", str(log), *GEN_OVERRIDES) == 0
        after = datetime.now(timezone.utc)
        manifest = json.loads((tmp_path / "log.tsv.manifest.json").read_text())
        started = datetime.fromisoformat(manifest["started_utc"])
        assert before <= started
        assert started + timedelta(seconds=manifest["wall_time_s"]) <= after

    @pytest.mark.parametrize("argv,code", [
        (["gen", "--out", "log.tsv", *GEN_OVERRIDES], 0),
        (["parse", "--log", "missing.tsv", "--out", "s.cache"], 2),
    ], ids=["success", "data_error"])
    def test_freed_heap_is_returned_after_each_command(self, tmp_path, monkeypatch, capsys,
                                                        argv, code):
        trims = []
        monkeypatch.setattr("persorank.cli._malloc_trim", trims.append)
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == code
        assert trims == [0]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_malloc_trim_is_found_on_glibc(self):
        assert persorank.cli._malloc_trim is not None


class TestAtomicWrite:
    def test_concurrent_writers_get_distinct_temp_files(self, tmp_path):
        out = tmp_path / "out.csv"
        with cache_mod.atomic_write(out) as a, cache_mod.atomic_write(out) as b:
            assert a.name != b.name
            assert Path(a.name).parent == Path(b.name).parent == tmp_path
            a.write("first\n")
            b.write("second\n")
        assert out.read_text() == "first\n"  # the writer that finished last wins
        assert list(tmp_path.glob("*.tmp")) == []

    def test_written_files_get_umask_default_mode(self, tmp_path):
        mask = os.umask(0o022)
        try:
            with cache_mod.atomic_write(tmp_path / "a.txt") as fh:
                fh.write("x")
            with cache_mod.atomic_write(tmp_path / "b.txt", newline="") as fh:
                fh.write("y\r\n")
        finally:
            os.umask(mask)
        for name in ("a.txt", "b.txt"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with cache_mod.atomic_write(out) as fh:
                fh.write("partial")
                raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("make_model", [
        lambda: RankModel(kind=ModelKind.HEURISTIC),
        lambda: blend_average([scored(np.arange(10.0)), scored(np.ones(10))])[1],
    ], ids=["rank_model", "blend_model"])
    def test_model_files_are_replaced_atomically(self, tmp_path, make_model):
        out, link = tmp_path / "model.json", tmp_path / "link.json"
        model = make_model()
        model.save(out)
        first = out.read_bytes()
        os.link(out, link)  # a reader holding the old file
        model.metadata = {"second": 2}
        model.save(out)
        assert out.read_bytes() != first
        assert link.read_bytes() == first  # replaced by rename, not rewritten in place
        second = out.read_bytes()
        model.metadata = {"first": 1, "unserializable": object()}
        with pytest.raises(TypeError):
            model.save(out)
        assert out.read_bytes() == second
        assert sorted(tmp_path.iterdir()) == [link, out]


def regression_scores(w: Path, out_dir: Path, *settings: str) -> Path:
    """The validation scores of a 2-epoch regression model trained on the features in `w`."""
    model, scores = out_dir / "regression.json", out_dir / "scores_regression.csv"
    assert run("train", "--kind", "regression", "--train-features", str(w / "features_train.csv"),
               "--val-features", str(w / "features_validation.csv"), "--out", str(model),
               "--epochs", "2", "--hidden", "16", *settings) == 0
    assert run("score", "--model", str(model), "--features", str(w / "features_validation.csv"),
               "--out", str(scores)) == 0
    return scores


@pytest.fixture(scope="module")
def scored_run(tmp_path_factory):
    """A small extract -> heuristic score run whose files the probes corrupt."""
    w = tmp_path_factory.mktemp("scored")
    assert run("gen", "--out", str(w / "log.tsv"), *GEN_OVERRIDES) == 0
    assert run("parse", "--log", str(w / "log.tsv"), "--out", str(w / "s.cache")) == 0
    assert run("partition", "--cache", str(w / "s.cache"), "--out", str(w / "t.csv")) == 0
    assert run("extract", "--cache", str(w / "s.cache"), "--targets", str(w / "t.csv"),
               "--out-dir", str(w)) == 0
    assert run("train", "--kind", "heuristic",
               "--train-features", str(w / "features_train.csv"),
               "--val-features", str(w / "features_validation.csv"),
               "--out", str(w / "model.json")) == 0
    assert run("score", "--model", str(w / "model.json"),
               "--features", str(w / "features_validation.csv"),
               "--out", str(w / "scores.csv")) == 0
    assert run("eval", "--scores", str(w / "scores.csv"), "--out-dir", str(w)) == 0
    return w


class TestSettings:
    def test_flag_beats_override_beats_config_file(self, scored_run, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("partition_seed = 2\n")
        cache_file = str(scored_run / "s.cache")

        def targets(name, *settings):
            out = tmp_path / name
            assert run("partition", "--cache", cache_file, "--out", str(out), *settings) == 0
            return out.read_bytes()

        seeds = {seed: targets(f"t{seed}.csv", "-O", f"partition_seed={seed}")
                 for seed in (1, 2, 9)}
        assert len(set(seeds.values())) == 3  # each seed picks different targets
        assert targets("file.csv", "-c", str(cfg)) == seeds[2]
        assert targets("override.csv", "-c", str(cfg), "-O", "partition_seed=1") == seeds[1]
        assert targets("flag.csv", "--seed", "9", "-c", str(cfg),
                       "-O", "partition_seed=1") == seeds[9]

    @pytest.mark.parametrize("command,setting", [
        ("train", ["--hidden", "5"]),
        ("train", ["--lr", "0"]),
        ("train", ["--epochs", "0"]),
        ("train", ["--batch", "0"]),
        ("train", ["-O", "hidden_units=5"]),
        ("partition", ["--train-days", "0"]),
        ("partition", ["--train-days", "30"]),
        ("train", ["--seed", "-1"]),
        ("partition", ["--seed", "-1"]),
        ("partition", ["-O", "synth_seed=-1"]),
        ("train", ["--lr", "nan"]),
        ("train", ["-O", "learning_rate=inf"]),
        ("train", ["--patience", "0"]),
        ("train", ["-O", "patience=-5"]),
    ], ids=["hidden", "lr", "epochs", "batch", "hidden_units", "train_days",
            "train_days_not_below_n_days",
            "train_seed", "partition_seed", "synth_seed", "lr_nan", "learning_rate_inf",
            "patience", "patience_negative"])
    def test_out_of_range_setting_is_usage_error(self, scored_run, tmp_path, capsys,
                                                 command, setting):
        w = scored_run
        inputs = {
            "train": ["--kind", "ranknet",
                      "--train-features", str(w / "features_train.csv"),
                      "--val-features", str(w / "features_validation.csv")],
            "partition": ["--cache", str(w / "s.cache")],
        }
        assert run(command, *inputs[command], "--out", str(tmp_path / "out"), *setting) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--kind", "heuristic", "--hidden", "5"],
        ["train", "--kind", "ranknet", "--hidden", "5"],
        ["blend", "--method", "learned", "--split-seed", "-1"],
        ["eval", "--split-seed", "-1"],
        ["partition", "-O", "n_users=0"],
        ["blend", "--method", "learned", "--scores", "{missing}"],
        ["blend", "--apply", "{missing}.json", "--model-out", "{missing}.json"],
        ["blend", "--apply", "{missing}.json", "--method", "average"],
        ["partition", "-c", "{missing}.cfg"],
        ["partition", "-c", "{directory}"],
    ], ids=["heuristic_hidden", "ranknet_hidden", "blend_split_seed", "eval_split_seed",
            "n_users", "learned_blend_of_one_member", "blend_apply_with_model_out",
            "blend_apply_with_method", "missing_config_file", "config_path_is_a_directory"])
    def test_settings_are_checked_before_inputs_are_read(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing")
        argv = [arg.format(missing=missing, directory=tmp_path) for arg in argv]
        inputs = {
            "train": ["--train-features", missing, "--val-features", missing,
                      "--out", str(tmp_path / "out")],
            "blend": ["--scores", missing, missing, "--out", str(tmp_path / "out")],
            "eval": ["--scores", missing, "--out-dir", str(tmp_path)],
            "partition": ["--cache", missing, "--out", str(tmp_path / "out")],
        }
        # Flags after the inputs, so a case's own --scores replaces the default two.
        assert run(argv[0], *inputs[argv[0]], *argv[1:]) == 1
        assert "error: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("settings,cutoff", [([], 10), (["-O", "ndcg_cutoff=5"], 5)],
                             ids=["default", "cutoff_5"])
    def test_train_and_blend_print_the_cutoff_they_used(self, scored_run, tmp_path, capsys,
                                                        settings, cutoff):
        scores = regression_scores(scored_run, tmp_path, *settings)
        best = json.loads((tmp_path / "regression.json").read_text())["metadata"][
            "best_validation_ndcg"]
        assert (f"{tmp_path / 'regression.json'} (validation NDCG@{cutoff} {best:.5f})\n"
                in capsys.readouterr().out)
        blend_file = tmp_path / "b.json"
        assert run("blend", "--scores", str(scored_run / "scores.csv"), str(scores),
                   "--method", "learned", "--out", str(tmp_path / "b.csv"),
                   "--model-out", str(blend_file), *settings) == 0
        holdout = json.loads(blend_file.read_text())["metadata"]["holdout_mean_ndcg"]
        assert capsys.readouterr().out.endswith(f" (holdout NDCG@{cutoff} {holdout:.5f})\n")

    def test_blend_apply_with_model_out_is_usage_error(self, scored_run, tmp_path, capsys):
        scores = str(scored_run / "scores.csv")
        assert run("blend", "--scores", scores, "--out", str(tmp_path / "b.csv"),
                   "--model-out", str(tmp_path / "b.json")) == 0
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run("blend", "--scores", scores, "--apply", str(tmp_path / "b.json"),
                   "--out", str(tmp_path / "applied.csv"),
                   "--model-out", str(tmp_path / "applied.json")) == 1
        assert capsys.readouterr().err == (
            "error: blend --apply fits no model to write to --model-out\n")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("method", ["average", "learned"])
    def test_blend_apply_with_method_is_usage_error(self, scored_run, tmp_path, capsys, method):
        scores = str(scored_run / "scores.csv")
        assert run("blend", "--scores", scores, "--out", str(tmp_path / "b.csv"),
                   "--model-out", str(tmp_path / "b.json")) == 0
        assert json.loads((tmp_path / "b.json").read_text())["method"] == "average"
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run("blend", "--scores", scores, "--apply", str(tmp_path / "b.json"),
                   "--method", method, "--out", str(tmp_path / "applied.csv")) == 1
        assert capsys.readouterr().err == (
            "error: blend --apply takes its method from the model, not from --method\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_diverging_learning_rate_is_usage_error(self, scored_run, tmp_path, capsys):
        w = scored_run
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("train", "--kind", "regression",
                       "--train-features", str(w / "features_train.csv"),
                       "--val-features", str(w / "features_validation.csv"),
                       "--out", str(tmp_path / "m.json"), "--lr", "1e300", "--epochs", "5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: learning_rate 1e+300 diverges") and "at epoch " in err
        assert list(tmp_path.iterdir()) == []

    def test_readme_flag_table_matches_parser(self):
        """Every flag that sets a config key is in the README's flag table, and only those
        keys; every config key is in its key table."""
        (subcommands,) = [a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)]
        flag_keys = {
            (flag, action.dest)
            for sub in subcommands.choices.values()
            for action in sub._actions if action.dest in KEY_TYPES
            for flag in action.option_strings
        }
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| flag | key |\n|---|---|\n")[1].split("\n\n")[0]
        rows = [line.split("|")[1:3] for line in table.splitlines()]
        assert ({key for _, keys in rows for key in re.findall(r"`(\w+)`", keys)}
                == {key for _, key in flag_keys})
        for flag, key in flag_keys:
            assert any(f"`{key}`" in keys and flag in flags for flags, keys in rows), (flag, key)
        # The key table lists every config key once, in field order, with its default.
        table = readme.split("| key | default | range |\n|---|---|---|\n")[1].split("\n\n")[0]
        rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]]
                for line in table.splitlines()]
        assert rows == [[f.name, str(f.default)] for f in dataclasses.fields(Config)]

    def test_threads_below_one_is_usage_error(self, scored_run, tmp_path):
        w = scored_run
        assert run("extract", "--cache", str(w / "s.cache"), "--targets", str(w / "t.csv"),
                   "--out-dir", str(tmp_path), "--threads", "0") == 1
        assert list(tmp_path.iterdir()) == []


def rewrite_rows(src: Path, dst: Path, edit) -> Path:
    """Copy a CSV, passing its rows (header first) through `edit`."""
    with open(src, newline="") as fh:
        rows = edit(list(csv.reader(fh)))
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return dst


def header_only(rows):
    return rows[:1]


def unlabeled(rows):
    col = rows[0].index("gain")
    return rows[:1] + [row[:col] + [""] + row[col + 1 :] for row in rows[1:]]


def first_target_dropped(rows):
    return rows[:1] + rows[11:]


def first_documents_swapped(rows):
    return rows[:1] + [rows[2], rows[1]] + rows[3:]


def first_query_changed(rows):
    """The first target's ten rows name another query: the same user, session and serp."""
    col = rows[0].index("query_id")
    return rows[:1] + [row[:col] + [str(int(row[col]) + 1)] + row[col + 1:]
                       for row in rows[1:11]] + rows[11:]


def column_dropped(name):
    def edit(rows):
        col = rows[0].index(name)
        return [row[:col] + row[col + 1 :] for row in rows]
    return edit


def first_row_set(name, value):
    def edit(rows):
        rows[1][rows[0].index(name)] = value
        return rows
    return edit


def corrupt_field(src: Path, dst: Path, column: str, value: str | None) -> Path:
    """Copy a CSV, setting `column` of its first data row to `value` (None drops it)."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    if value is None:
        del rows[1][col]
    else:
        rows[1][col] = value
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return dst


def cache_arrays(path: Path) -> dict:
    return cache_mod.load_columns(path).arrays()


def write_cache(path: Path, arrays: dict) -> Path:
    with open(path, "wb") as fh:
        fh.write(cache_mod.SESSIONS_MAGIC)
        np.savez(fh, **arrays)
    return path


def with_array(name, value):
    """A cache edit setting array `name` to value(old array); None drops it."""
    def edit(arrays):
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value(arrays[name].copy())
        return arrays
    return edit


def first_raised(counts):
    counts[0] += 1
    return counts


def first_negative(counts):
    """The first count -1, the second raised to keep the total."""
    counts[1] += counts[0] + 1
    counts[0] = -1
    return counts


def first_set(value):
    def edit(array):
        array.flat[0] = value
        return array
    return edit


CACHE_EDITS = {
    "object_array": with_array("terms", lambda a: a.astype(object)),
    "missing_array": with_array("click_time", None),
    "wrong_dtype": with_array("day", lambda a: a.astype(np.int32)),
    "documents_not_10_wide": with_array("documents", lambda a: a[:, :9]),
    "impressions_miscounted": with_array("n_impressions", first_raised),
    "negative_count": with_array("n_impressions", first_negative),
    "grade_code_4": with_array("grades", first_set(4)),
    "grade_code_minus_2": with_array("grades", first_set(-2)),
}
CACHE_COMMANDS = {
    "partition": lambda cache, w: ["partition", "--cache", cache, "--out", f"{w}/t.csv"],
    "extract": lambda cache, w: ["extract", "--cache", cache, "--targets", f"{w}/targets.csv",
                                 "--out-dir", w],
    "stats": lambda cache, w: ["stats", "--cache", cache, "--out", f"{w}/stats.csv"],
    "index": lambda cache, w: ["index", "--cache", cache, "--lookup", "1"],
}


def ff_inside(data: bytes) -> bytes:
    """`data` with a 0xff byte, which is never valid UTF-8, in its middle."""
    return data[:len(data) // 2] + b"\xff" + data[len(data) // 2:]


def gzip_cut(data: bytes) -> bytes:
    packed = gzip.compress(data)
    return packed[:len(packed) // 2]


# case: (file of the scored run to corrupt, the corruption, the corrupt file's
# suffix, the command reading it as `bad` with scratch directory `w`, exit code)
UNDECODABLE = {
    "log": ("log.tsv", ff_inside, ".tsv",
            lambda bad, w: ["parse", "--log", bad, "--out", f"{w}/c"], 2),
    "gz_log_not_gzip": ("log.tsv", lambda data: data, ".tsv.gz",
                        lambda bad, w: ["parse", "--log", bad, "--out", f"{w}/c"], 2),
    "gz_log_truncated": ("log.tsv", gzip_cut, ".tsv.gz",
                         lambda bad, w: ["parse", "--log", bad, "--out", f"{w}/c"], 2),
    "targets": ("t.csv", ff_inside, ".csv",
                lambda bad, w: ["extract", "--cache", f"{w}/s.cache", "--targets", bad,
                                "--out-dir", w], 2),
    "features": ("features_validation.csv", ff_inside, ".csv",
                 lambda bad, w: ["score", "--model", f"{w}/model.json", "--features", bad,
                                 "--out", f"{w}/s.csv"], 2),
    "scores": ("scores.csv", ff_inside, ".csv",
               lambda bad, w: ["eval", "--scores", bad, "--out-dir", w], 2),
    "report": ("report.csv", ff_inside, ".csv",
               lambda bad, w: ["analyze", "--report", bad, "--out-dir", w], 2),
    "config": (None, lambda data: b"partition_seed = 2\n\xff\n", ".cfg",
               lambda bad, w: ["partition", "--cache", f"{w}/s.cache", "--out", f"{w}/t.csv",
                               "-c", bad], 1),
}


# The work function of each command of MANIFEST_CASES, which must not run when
# an output cannot be created.
WORK = {
    "gen": "persorank.cli.generate_lines",
    "parse": "persorank.cli.parse_columns",
    "stats_targets": "persorank.cli.corpus_stats",
    "partition": "persorank.cli.select_targets",
    "extract": "persorank.features.extract_targets",
    "train": "persorank.cli.train",
    "score": "persorank.cli.score_table",
    "blend_learned": "persorank.blend.blend_learned",
    "blend_apply": "persorank.blend.BlendModel.apply",
    "eval": "persorank.evaluate.evaluate_run",
    "analyze": "persorank.evaluate.histogram",
}


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_undecodable_input_is_data_or_usage_error(self, scored_run, tmp_path, capsys, case):
        source, corrupt, suffix, argv, code = UNDECODABLE[case]
        for name in ("s.cache", "model.json"):
            (tmp_path / name).write_bytes((scored_run / name).read_bytes())
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(corrupt((scored_run / source).read_bytes() if source else b""))
        capsys.readouterr()
        assert run(*argv(str(bad), str(tmp_path))) == code
        err = capsys.readouterr().err
        assert err.startswith("data error: " if code == 2 else "error: ") and str(bad) in err

    @pytest.mark.parametrize("command", ["index", "extract"])
    def test_unlabeled_training_impression_is_data_error(self, scored_run, tmp_path, capsys,
                                                         command):
        arrays = cache_arrays(scored_run / "s.cache")
        training = np.repeat(arrays["day"] <= 27, arrays["n_impressions"])
        arrays["grades"][np.argmax(training)] = -1  # a whole impression, as load_columns allows
        bad = write_cache(tmp_path / "s.cache", arrays)
        (tmp_path / "targets.csv").write_bytes((scored_run / "t.csv").read_bytes())
        capsys.readouterr()
        assert run(*CACHE_COMMANDS[command](str(bad), str(tmp_path))) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "is unlabeled" in err

    def score(self, w, features):
        return run("score", "--model", str(w / "model.json"), "--features", str(features),
                   "--out", str(w / "probe_scores.csv"))

    def test_valid_files_pass(self, scored_run):
        w = scored_run
        assert self.score(w, w / "features_validation.csv") == 0
        assert run("eval", "--scores", str(w / "scores.csv"),
                   "--out-dir", str(w)) == 0

    def test_short_feature_row_is_data_error(self, scored_run, tmp_path):
        bad = corrupt_field(scored_run / "features_validation.csv", tmp_path / "f.csv",
                            "gain", None)
        assert self.score(scored_run, bad) == 2

    def test_non_integer_feature_id_is_data_error(self, scored_run, tmp_path):
        bad = corrupt_field(scored_run / "features_validation.csv", tmp_path / "f.csv",
                            "doc_id", "d17")
        assert self.score(scored_run, bad) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_data_error(self, scored_run, tmp_path, value):
        bad = corrupt_field(scored_run / "features_validation.csv", tmp_path / "f.csv",
                            "c3_g7", value)
        assert self.score(scored_run, bad) == 2

    def test_non_finite_feature_is_rejected_by_train(self, scored_run, tmp_path):
        bad = corrupt_field(scored_run / "features_validation.csv", tmp_path / "f.csv",
                            "c1_g1", "nan")
        assert run("train", "--kind", "heuristic",
                   "--train-features", str(scored_run / "features_train.csv"),
                   "--val-features", str(bad), "--out", str(tmp_path / "m.json")) == 2

    def test_nan_score_is_data_error(self, scored_run, tmp_path):
        bad = corrupt_field(scored_run / "scores.csv", tmp_path / "s.csv", "score", "nan")
        assert run("eval", "--scores", str(bad), "--out-dir", str(tmp_path)) == 2

    def test_short_score_row_is_data_error(self, scored_run, tmp_path):
        bad = corrupt_field(scored_run / "scores.csv", tmp_path / "s.csv", "score", None)
        assert run("eval", "--scores", str(bad), "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("gain", ["1024", "3.5", "-1"])
    def test_gain_that_parse_never_assigns_is_data_error(self, scored_run, tmp_path, capsys,
                                                          gain):
        scores = corrupt_field(scored_run / "scores.csv", tmp_path / "s.csv", "gain", gain)
        val = corrupt_field(scored_run / "features_validation.csv", tmp_path / "f.csv", "gain",
                            gain)
        capsys.readouterr()
        assert run("eval", "--scores", str(scores), "--out-dir", str(tmp_path)) == 2
        assert f"{scores}: line 2 holds a gain not in [0, 1, 2]" in capsys.readouterr().err
        assert run("train", "--kind", "ranknet", "-O", "epochs=1",
                   "--train-features", str(scored_run / "features_train.csv"),
                   "--val-features", str(val), "--out", str(tmp_path / "m.json")) == 2
        assert f"{val}: line 2 holds a gain not in [0, 1, 2]" in capsys.readouterr().err

    @pytest.mark.parametrize("rank,line", [("2", 3), ("11", 2), ("0.5", 2)],
                             ids=["repeated", "11", "0.5"])
    def test_base_ranks_not_1_to_10_are_data_error(self, scored_run, tmp_path, capsys, rank,
                                                    line):
        scores = corrupt_field(scored_run / "scores.csv", tmp_path / "s.csv", "base_rank", rank)
        val = corrupt_field(scored_run / "features_validation.csv", tmp_path / "f.csv",
                            "base_rank", rank)
        what = "holds a base_rank that is not 1..10 once per target"
        capsys.readouterr()
        assert run("eval", "--scores", str(scores), "--out-dir", str(tmp_path)) == 2
        assert f"{scores}: line {line} {what}" in capsys.readouterr().err
        assert run("train", "--kind", "ranknet", "-O", "epochs=1",
                   "--train-features", str(scored_run / "features_train.csv"),
                   "--val-features", str(val), "--out", str(tmp_path / "m.json")) == 2
        assert f"{val}: line {line} {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,where", [
        (first_row_set("user_id", "9" * 20), "line 2"),
        (first_row_set("doc_id", "-" + "9" * 20), "line 2"),
        (lambda rows: rows[:3] + [[]] + rows[4:], "line 4"),
        (lambda rows: rows[:3] + [[]] + rows[3:], "row count"),
    ], ids=["user_id_beyond_int64", "doc_id_below_int64", "blank_line", "inserted_blank_line"])
    def test_malformed_score_row_is_data_error(self, scored_run, tmp_path, capsys, edit, where):
        bad = rewrite_rows(scored_run / "scores.csv", tmp_path / "s.csv", edit)
        capsys.readouterr()
        assert run("eval", "--scores", str(bad), "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"{bad}: {where}" in err

    def test_eval_of_target_listing_a_document_twice(self, scored_run, tmp_path):
        def second_doc_repeats_first(rows):
            col = rows[0].index("doc_id")
            rows[2][col] = rows[1][col]
            return rows

        dup = rewrite_rows(scored_run / "scores.csv", tmp_path / "s.csv",
                           second_doc_repeats_first)
        assert run("eval", "--scores", str(dup), "--out-dir", str(tmp_path)) == 0

    def test_truncated_session_cache_is_data_error(self, scored_run, tmp_path):
        cut = tmp_path / "s.cache"
        cut.write_bytes((scored_run / "s.cache").read_bytes()[:200])
        assert run("partition", "--cache", str(cut), "--out", str(tmp_path / "t.csv")) == 2

    @pytest.mark.parametrize("command", sorted(CACHE_COMMANDS))
    @pytest.mark.parametrize("case", ["version_1_pickle", "cut_at_200_bytes", *CACHE_EDITS])
    def test_malformed_session_cache_is_data_error(self, scored_run, tmp_path, capsys,
                                                    command, case):
        good = scored_run / "s.cache"
        bad = tmp_path / "s.cache"
        if case == "version_1_pickle":
            bad.write_bytes(b"PRNK.SESSIONS.1\n" + pickle.dumps(cache_mod.load_sessions(good)))
        elif case == "cut_at_200_bytes":
            bad.write_bytes(good.read_bytes()[:200])
        else:
            write_cache(bad, CACHE_EDITS[case](cache_arrays(good)))
        (tmp_path / "targets.csv").write_bytes((scored_run / "t.csv").read_bytes())
        capsys.readouterr()
        assert run(*CACHE_COMMANDS[command](str(bad), str(tmp_path))) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err

    def test_rewritten_cache_arrays_load(self, scored_run, tmp_path):
        # The probes above start from a cache that write_cache reproduces faithfully.
        copy = write_cache(tmp_path / "s.cache", cache_arrays(scored_run / "s.cache"))
        (tmp_path / "targets.csv").write_bytes((scored_run / "t.csv").read_bytes())
        assert cache_mod.load_sessions(copy) == cache_mod.load_sessions(scored_run / "s.cache")
        for command in CACHE_COMMANDS.values():
            assert run(*command(str(copy), str(tmp_path))) == 0

    def test_truncated_model_is_data_error(self, scored_run, tmp_path):
        cut = tmp_path / "model.json"
        cut.write_bytes((scored_run / "model.json").read_bytes()[:30])
        assert run("score", "--model", str(cut),
                   "--features", str(scored_run / "features_validation.csv"),
                   "--out", str(tmp_path / "s.csv")) == 2

    @pytest.mark.parametrize("row", ["train,abc,1,0", "bogus,1,1,0",
                                     "train,99999999999999999999,1,0"],
                             ids=["non_integer_id", "unknown_role", "id_beyond_int64"])
    def test_malformed_target_row_is_data_error(self, scored_run, tmp_path, capsys, row):
        targets = tmp_path / "t.csv"
        targets.write_text(f"role,user_id,session_id,serp_id\n{row}\n")
        cache_file = str(scored_run / "s.cache")
        for argv in (["extract", "--cache", cache_file, "--targets", str(targets),
                      "--out-dir", str(tmp_path)],
                     ["stats", "--cache", cache_file, "--targets", str(targets),
                      "--out", str(tmp_path / "stats.csv")]):
            capsys.readouterr()
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and f"{targets}: line 2" in err, argv

    @pytest.mark.parametrize("role", ["train", "test"], ids=["same_role", "other_role"])
    def test_repeated_target_is_data_error(self, scored_run, tmp_path, capsys, role):
        lines = (scored_run / "t.csv").read_text().splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if line.startswith("train,"))
        ids = lines[first - 1].split(",", 1)[1]
        targets = tmp_path / "t.csv"
        targets.write_text("\n".join(lines + [f"{role},{ids}"]) + "\n")
        cache_file = str(scored_run / "s.cache")
        for argv in (["extract", "--cache", cache_file, "--targets", str(targets),
                      "--out-dir", str(tmp_path)],
                     ["stats", "--cache", cache_file, "--targets", str(targets),
                      "--out", str(tmp_path / "stats.csv")]):
            capsys.readouterr()
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {targets}: line {len(lines) + 1}: target "), argv
            assert err.endswith(f"is listed twice, first at line {first}\n"), argv

    def test_target_missing_from_cache_names_both_files(self, scored_run, tmp_path, capsys):
        targets = tmp_path / "t.csv"
        targets.write_text("role,user_id,session_id,serp_id\ntrain,1,999999999,0\n")
        cache_file = str(scored_run / "s.cache")
        for argv in (["extract", "--cache", cache_file, "--targets", str(targets),
                      "--out-dir", str(tmp_path)],
                     ["stats", "--cache", cache_file, "--targets", str(targets),
                      "--out", str(tmp_path / "stats.csv")]):
            capsys.readouterr()
            assert run(*argv) == 2, argv
            assert capsys.readouterr().err == (
                f"data error: {cache_file}, {targets}: target user=1 session=999999999 "
                "serp=0 not found in the parsed sessions\n"), argv

    def blend(self, tmp_path, *members, method="average"):
        return run("blend", "--scores", *map(str, members), "--method", method,
                   "--out", str(tmp_path / "b.csv"), "--model-out", str(tmp_path / "b.json"))

    def test_eval_of_header_only_scores_is_data_error(self, scored_run, tmp_path):
        empty = rewrite_rows(scored_run / "scores.csv", tmp_path / "s.csv", header_only)
        assert run("eval", "--scores", str(empty), "--out-dir", str(tmp_path)) == 2

    def test_blend_of_header_only_scores_is_data_error(self, scored_run, tmp_path):
        empty = rewrite_rows(scored_run / "scores.csv", tmp_path / "s.csv", header_only)
        assert self.blend(tmp_path, empty, empty) == 2

    @pytest.mark.parametrize("edit", [lambda rows: rows[:11], unlabeled],
                             ids=["one_query", "unlabeled"])
    def test_learned_blend_of_unusable_pool_is_data_error(self, scored_run, tmp_path, edit):
        pool = rewrite_rows(scored_run / "scores.csv", tmp_path / "s.csv", edit)
        assert self.blend(tmp_path, pool, pool, method="learned") == 2

    @pytest.mark.parametrize("edit,what", [(first_target_dropped, "targets"),
                                           (first_documents_swapped, "documents"),
                                           (first_query_changed, "targets")],
                             ids=["first_target_dropped", "first_documents_swapped",
                                  "first_query_changed"])
    def test_blend_members_that_disagree_is_data_error(self, scored_run, tmp_path, capsys,
                                                       edit, what):
        scores = scored_run / "scores.csv"
        other = rewrite_rows(scores, tmp_path / "other.csv", edit)
        capsys.readouterr()
        assert self.blend(tmp_path, scores, other) == 2
        assert capsys.readouterr().err == f"data error: score files disagree on {what}: {other}\n"

    def test_blend_apply_with_wrong_member_count_is_data_error(self, scored_run, tmp_path):
        scores = scored_run / "scores.csv"
        assert self.blend(tmp_path, scores, scores, scores, scores) == 0
        assert run("blend", "--scores", str(scores), "--apply", str(tmp_path / "b.json"),
                   "--out", str(tmp_path / "applied.csv")) == 2

    def test_model_with_cut_weights_is_data_error(self, scored_run, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "model.json"
        RankModel(kind=ModelKind.RANKNET,
                  standardizer=Standardizer(np.zeros(N_FEATURES), np.ones(N_FEATURES)),
                  params=init_params(N_FEATURES, 12, rng)).save(path)
        features_file = scored_run / "features_validation.csv"
        assert run("score", "--model", str(path), "--features", str(features_file),
                   "--out", str(tmp_path / "s.csv")) == 0
        payload = json.loads(path.read_text())
        payload["weights"]["w1"] = payload["weights"]["w1"][:5]
        path.write_text(json.dumps(payload))
        assert run("score", "--model", str(path), "--features", str(features_file),
                   "--out", str(tmp_path / "s.csv")) == 2

    @pytest.mark.parametrize("key,value", [
        ("weights", [0.5, 0.5, 0.5]),
        ("weights", [float("nan"), 1.0]),
        ("weights", [[1.0], [2.0]]),
        ("member_scales", [0.0, 1.0]),
        ("member_means", [1.0, float("inf")]),
        ("bias", float("nan")),
    ], ids=["three_weights", "nan_weight", "nested_weights", "zero_scale", "inf_mean",
            "nan_bias"])
    def test_blend_apply_of_malformed_blend_file_is_data_error(self, scored_run, tmp_path,
                                                               capsys, key, value):
        scores = scored_run / "scores.csv"
        assert self.blend(tmp_path, scores, scores) == 0
        blend_file = tmp_path / "b.json"
        payload = json.loads(blend_file.read_text())
        payload[key] = value
        blend_file.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run("blend", "--scores", str(scores), str(scores), "--apply", str(blend_file),
                   "--out", str(tmp_path / "applied.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"{blend_file}: {key}" in err

    @pytest.mark.parametrize("command", sorted(WORK))
    @pytest.mark.parametrize("parent", ["missing", "t.csv", "out"],
                             ids=["missing_directory", "file_as_directory",
                                  "directory_as_output"])
    def test_output_that_cannot_be_created_is_data_error(self, scored_run, tmp_path, capsys,
                                                         monkeypatch, command, parent):
        (tmp_path / "t.csv").write_bytes((scored_run / "t.csv").read_bytes())
        argv, _, outputs, _ = MANIFEST_CASES[command](scored_run, tmp_path / parent)
        if parent == "out":
            outputs[0].mkdir(parents=True)

        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{WORK[command]} ran before the outputs were checked")

        monkeypatch.setattr(WORK[command], must_not_run)
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot create {outputs[0]}: ") and ".tmp" not in err

    def test_directory_as_input_is_data_error(self, tmp_path, capsys):
        capsys.readouterr()
        assert run("parse", "--log", str(tmp_path), "--out", str(tmp_path / "s.cache")) == 2
        assert capsys.readouterr().err == f"data error: cannot read {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body", [42, [42]], ids=["not_a_list", "not_sessions"])
    def test_session_cache_of_other_objects_is_data_error(self, tmp_path, body):
        bogus = tmp_path / "s.cache"
        bogus.write_bytes(cache_mod.SESSIONS_MAGIC + pickle.dumps(body))
        assert run("partition", "--cache", str(bogus), "--out", str(tmp_path / "t.csv")) == 2

    @pytest.mark.parametrize("edit,line", [
        (column_dropped("tau"), 1),
        (column_dropped("delta_ndcg"), 1),
        (first_row_set("tau", "abc"), 2),
        (first_row_set("delta_ndcg", "nan"), 2),
        (first_row_set("tau", "inf"), 2),
        (lambda rows: rows[:1] + [rows[1][:-1]] + rows[2:], 2),
        (first_row_set("tau", "1e308"), 2),
        (first_row_set("delta_ndcg", "-1e308"), 2),
        (first_row_set("tau", "3.5"), 2),
    ], ids=["no_tau", "no_delta_ndcg", "tau_abc", "delta_ndcg_nan", "tau_inf", "short_row",
            "tau_1e308", "delta_ndcg_minus_1e308", "tau_3.5"])
    def test_analyze_of_malformed_report_is_data_error(self, scored_run, tmp_path, capsys,
                                                       edit, line):
        assert run("eval", "--scores", str(scored_run / "scores.csv"),
                   "--out-dir", str(tmp_path)) == 0
        report = rewrite_rows(tmp_path / "report.csv", tmp_path / "bad.csv", edit)
        out = tmp_path / "hist"
        out.mkdir()
        capsys.readouterr()
        assert run("analyze", "--report", str(report), "--out-dir", str(out)) == 2
        assert f"{report}: line {line}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_train_on_a_spread_that_overflows_is_data_error(self, scored_run, tmp_path,
                                                             capsys):
        bad = corrupt_field(scored_run / "features_train.csv", tmp_path / "f.csv",
                            "c1_g1", "1e308")
        val = scored_run / "features_validation.csv"
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run("train", "--kind", "ranknet", "--train-features", str(bad),
                   "--val-features", str(val), "--out", str(out / "m.json"),
                   "--epochs", "2", "--hidden", "16") == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad}, {val}: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("method", ["average", "learned"])
    def test_blend_of_scores_whose_spread_overflows_is_data_error(self, scored_run, tmp_path,
                                                                  capsys, method):
        def huge(rows):
            col = rows[0].index("score")
            return rows[:1] + [row[:col] + [repr(1e300 * (i % 7))] + row[col + 1:]
                               for i, row in enumerate(rows[1:])]

        scores = rewrite_rows(scored_run / "scores.csv", tmp_path / "s.csv", huge)
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert self.blend(out, scores, scores, method=method) == 2
        assert capsys.readouterr().err.startswith(f"data error: {scores}, {scores}: ")
        assert list(out.iterdir()) == []

    @staticmethod
    def ranknet(w: Path, out: Path) -> Path:
        """A small ranknet model trained on `w`'s feature files."""
        assert run("train", "--kind", "ranknet", "--train-features", str(w / "features_train.csv"),
                   "--val-features", str(w / "features_validation.csv"), "--out", str(out),
                   "--epochs", "2", "--hidden", "16") == 0
        return out

    def test_feature_that_overflows_when_standardized_is_data_error(self, scored_run, tmp_path,
                                                                     capsys):
        train_file, val = scored_run / "features_train.csv", scored_run / "features_validation.csv"
        model = self.ranknet(scored_run, tmp_path / "m.json")
        # c1_g1's training scale is below 1, so 1e308 standardizes to more than float64 holds.
        bad = corrupt_field(val, tmp_path / "f.csv", "c1_g1", "1e308")
        out = tmp_path / "out"
        out.mkdir()
        for argv, inputs in (
            (["train", "--kind", "ranknet", "--train-features", str(train_file),
              "--val-features", str(bad), "--out", str(out / "m.json"),
              "--epochs", "2", "--hidden", "16"], f"{train_file}, {bad}"),
            (["score", "--model", str(model), "--features", str(bad),
              "--out", str(out / "s.csv")], f"{model}, {bad}"),
        ):
            capsys.readouterr()
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {inputs}: ") and "column 1 " in err, err
        assert list(out.iterdir()) == []

    def test_model_whose_scores_overflow_is_data_error(self, scored_run, tmp_path, capsys):
        features_file = scored_run / "features_validation.csv"
        model = self.ranknet(scored_run, tmp_path / "m.json")
        payload = json.loads(model.read_text())
        payload["weights"]["w2"] = [1e308] * 16
        model.write_text(json.dumps(payload))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run("score", "--model", str(model), "--features", str(features_file),
                   "--out", str(out / "s.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {model}, {features_file}: ") and "finite" in err
        assert list(out.iterdir()) == []

    def test_blend_whose_scores_overflow_is_data_error(self, scored_run, tmp_path, capsys):
        scores = scored_run / "scores.csv"
        assert self.blend(tmp_path, scores, scores) == 0
        blend_file = tmp_path / "b.json"
        payload = json.loads(blend_file.read_text())
        payload["weights"], payload["bias"] = [1e308, 1e308], 1e308
        blend_file.write_text(json.dumps(payload))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run("blend", "--scores", str(scores), str(scores), "--apply", str(blend_file),
                   "--out", str(out / "applied.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {scores}, {scores}, {blend_file}: ")
        assert "finite" in err
        assert list(out.iterdir()) == []

    def test_train_with_header_only_validation_is_data_error(self, scored_run, tmp_path):
        empty = rewrite_rows(scored_run / "features_validation.csv", tmp_path / "v.csv",
                             header_only)
        assert run("train", "--kind", "ranknet",
                   "--train-features", str(scored_run / "features_train.csv"),
                   "--val-features", str(empty), "--out", str(tmp_path / "m.json"),
                   "--epochs", "2", "--hidden", "16") == 2


# Each input kind of `scored_run`, with the commands that read it: each
# builds the argv for a mutated copy `bad`, the other inputs in `w` and the
# outputs in `out`.
FUZZ_CONSUMERS = {
    "log.tsv": [lambda bad, w, out: ["parse", "--log", bad, "--out", f"{out}/s.cache"]],
    "s.cache": [
        lambda bad, w, out: ["partition", "--cache", bad, "--out", f"{out}/t.csv"],
        lambda bad, w, out: ["extract", "--cache", bad, "--targets", f"{w}/t.csv",
                             "--out-dir", out],
    ],
    "t.csv": [
        lambda bad, w, out: ["extract", "--cache", f"{w}/s.cache", "--targets", bad,
                             "--out-dir", out],
        lambda bad, w, out: ["stats", "--cache", f"{w}/s.cache", "--targets", bad,
                             "--out", f"{out}/stats.csv"],
    ],
    "features_validation.csv": [
        lambda bad, w, out: ["score", "--model", f"{w}/model.json", "--features", bad,
                             "--out", f"{out}/scores.csv"],
        lambda bad, w, out: ["train", "--kind", "heuristic",
                             "--train-features", f"{w}/features_train.csv",
                             "--val-features", bad, "--out", f"{out}/model.json"],
        lambda bad, w, out: ["train", "--kind", "ranknet", "--epochs", "2", "--hidden", "16",
                             "--train-features", f"{w}/features_train.csv",
                             "--val-features", bad, "--out", f"{out}/model.json"],
    ],
    "features_train.csv": [
        lambda bad, w, out: ["train", "--kind", "ranknet", "--epochs", "2", "--hidden", "16",
                             "--train-features", bad,
                             "--val-features", f"{w}/features_validation.csv",
                             "--out", f"{out}/model.json"],
    ],
    "model.json": [lambda bad, w, out: ["score", "--model", bad, "--features",
                                        f"{w}/features_validation.csv",
                                        "--out", f"{out}/scores.csv"]],
    "scores.csv": [
        lambda bad, w, out: ["eval", "--scores", bad, "--out-dir", out],
        lambda bad, w, out: ["blend", "--scores", bad, f"{w}/scores.csv",
                             "--out", f"{out}/b.csv", "--model-out", f"{out}/b.json"],
    ],
    "blend.json": [lambda bad, w, out: ["blend", "--scores", f"{w}/scores.csv",
                                        f"{w}/scores.csv", "--apply", bad,
                                        "--out", f"{out}/b.csv"]],
    "report.csv": [lambda bad, w, out: ["analyze", "--report", bad, "--out-dir", out]],
}
FUZZ_DRAWS = 3  # seeded draws of each mutation
NUMBER = re.compile(rb"(?<![\w.+-])-?[0-9]+(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?(?![\w.])")


def mutations(data: bytes, rng: random.Random):
    """(name, mutated bytes): a truncation, changed bytes, a duplicated line, a deleted line,
    and, in a text input, one number field of one line set to each of `BOUNDARY_VALUES`."""
    lines = data.splitlines(keepends=True)
    yield "truncated", data[:rng.randrange(len(data))]
    changed = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        changed[rng.randrange(len(data))] = rng.randrange(256)
    yield "changed bytes", bytes(changed)
    at = rng.randrange(len(lines))
    yield "duplicated line", b"".join(lines[:at + 1] + lines[at:])
    at = rng.randrange(len(lines))
    yield "deleted line", b"".join(lines[:at] + lines[at + 1:])
    if not data.isascii():
        return  # the session cache: no text
    at = rng.choice([n for n, line in enumerate(lines) if NUMBER.search(line)])
    field = rng.choice(list(NUMBER.finditer(lines[at])))
    for value in BOUNDARY_VALUES:
        line = lines[at][:field.start()] + value.encode() + lines[at][field.end():]
        yield f"line {at + 1} field {field.group().decode()!r} set to {value!r}", b"".join(
            lines[:at] + [line] + lines[at + 1:])


@pytest.fixture(scope="module")
def fuzz_inputs(scored_run, tmp_path_factory):
    """`scored_run`'s files, with a ranknet model in place of its heuristic one, plus an
    average blend model of its scores."""
    w = tmp_path_factory.mktemp("fuzz_inputs")
    for name in FUZZ_CONSUMERS:
        if name not in ("blend.json", "model.json"):
            (w / name).write_bytes((scored_run / name).read_bytes())
    assert run("train", "--kind", "ranknet", "--epochs", "2", "--hidden", "16",
               "--train-features", str(w / "features_train.csv"),
               "--val-features", str(w / "features_validation.csv"),
               "--out", str(w / "model.json")) == 0
    assert run("blend", "--scores", str(w / "scores.csv"), str(w / "scores.csv"),
               "--out", str(w / "b.csv"), "--model-out", str(w / "blend.json")) == 0
    return w


class TestMutatedInputs:
    @pytest.mark.parametrize("name", sorted(FUZZ_CONSUMERS))
    def test_mutated_input_is_read_or_data_error(self, fuzz_inputs, tmp_path, capsys, name):
        data = (fuzz_inputs / name).read_bytes()
        out = tmp_path / "out"
        out.mkdir()
        for draw in range(FUZZ_DRAWS):
            rng = random.Random(f"{name}:{draw}")
            for mutation, mutated in mutations(data, rng):
                bad = tmp_path / f"bad_{name}"
                bad.write_bytes(mutated)
                for consumer in FUZZ_CONSUMERS[name]:
                    argv = consumer(str(bad), str(fuzz_inputs), str(out))
                    capsys.readouterr()
                    code = run(*argv)
                    err = capsys.readouterr().err
                    case = f"{mutation} (draw {draw}): {' '.join(argv)}: {err}"
                    assert code in (0, 2), case
                    assert code == 0 or str(bad) in err or "line" in err, case
