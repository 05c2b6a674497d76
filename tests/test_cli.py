import argparse
import csv
import gzip
import json
import os
import pickle
import platform
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
from persorank.config import KEY_TYPES
from persorank.features import N_FEATURES
from persorank.ranker import ModelKind, RankModel, Standardizer, init_params

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
        outputs = [o / "applied.csv"]
        argv = ["blend", "--scores", *map(str, members), "--apply", str(fit / "b.json"),
                "--out", str(outputs[0])]
        method = f"apply:{fit / 'b.json'}"
    else:
        outputs = [o / "b.csv", o / "b.json"]
        argv = ["blend", "--scores", *map(str, members), "--method", "learned",
                "--out", str(outputs[0]), "--model-out", str(outputs[1])]
        method = "learned"
    return argv, members, outputs, {"method": method, "members": ["scores.csv"] * 2}


# case: (scored run w, empty output directory o) -> (argv, the inputs and
# outputs the manifest lists, its params)
MANIFEST_CASES = {
    "gen": lambda w, o: (
        ["gen", "--out", str(o / "log.tsv"), *GEN_OVERRIDES], [],
        [o / "log.tsv", o / "log.tsv.counts.json"],
        {"generator": {"n_users": 25, "n_days": 30, "queries_per_user_per_day": 3,
                       "n_queries": 200, "n_terms": 150, "n_documents": 1200,
                       "n_domains": 100, "preference_strength": 0.9,
                       "repeat_query_prob": 0.5, "rng_seed": 31}}),
    "parse": lambda w, o: (
        ["parse", "--log", str(w / "log.tsv"), "--out", str(o / "s.cache")],
        [w / "log.tsv"], [o / "s.cache"], {}),
    "stats_targets": lambda w, o: (
        ["stats", "--cache", str(w / "s.cache"), "--targets", str(w / "t.csv"),
         "--out", str(o / "stats.csv")],
        [w / "s.cache", w / "t.csv"], [o / "stats.csv"], {"train_days": 27}),
    "partition": lambda w, o: (
        ["partition", "--cache", str(w / "s.cache"), "--out", str(o / "t.csv"), "--seed", "4"],
        [w / "s.cache"], [o / "t.csv"],
        {"seed": 4, "train_days": 27,
         "report": {"n_users": 25, "users_without_sessions": 0, "users_without_train": 0,
                    "users_without_validation": 5, "users_without_test": 0}}),
    "extract": lambda w, o: (
        ["extract", "--cache", str(w / "s.cache"), "--targets", str(w / "t.csv"),
         "--out-dir", str(o)],
        [w / "s.cache", w / "t.csv"],
        [o / f"features_{role}.csv" for role in ("train", "validation", "test")],
        {"seed": 1, "train_days": 27}),
    "train": lambda w, o: (
        ["train", "--kind", "ranknet", "--train-features", str(w / "features_train.csv"),
         "--val-features", str(w / "features_validation.csv"), "--out", str(o / "m.json"),
         "--epochs", "2", "--hidden", "16"],
        [w / "features_train.csv", w / "features_validation.csv"], [o / "m.json"],
        {"kind": "ranknet", "seed": 2,
         "settings": {"hidden": 16, "learning_rate": 0.001, "epochs": 2,
                      "batch_queries": 100, "patience": 10, "cutoff": 10}}),
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
        for key in ("command", "version", "params", "inputs", "outputs",
                    "started_utc", "wall_time_s"):
            assert key in manifest
        assert manifest["command"] == "gen"
        assert manifest["params"]["generator"]["rng_seed"] == 31

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
        lambda: blend_average([np.arange(10.0), np.ones(10)])[1],
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
        ("train", ["--seed", "-1"]),
        ("partition", ["--seed", "-1"]),
        ("partition", ["-O", "synth_seed=-1"]),
        ("train", ["--lr", "nan"]),
        ("train", ["-O", "learning_rate=inf"]),
        ("train", ["--patience", "0"]),
        ("train", ["-O", "patience=-5"]),
    ], ids=["hidden", "lr", "epochs", "batch", "hidden_units", "train_days",
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
        ["partition", "-c", "{missing}.cfg"],
        ["partition", "-c", "{directory}"],
    ], ids=["heuristic_hidden", "ranknet_hidden", "blend_split_seed", "eval_split_seed",
            "n_users", "learned_blend_of_one_member", "missing_config_file",
            "config_path_is_a_directory"])
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

    def test_readme_flag_table_matches_parser(self):
        """Every flag that sets a config key is in the README's table, and only those keys."""
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

    @pytest.mark.parametrize("edit", [first_target_dropped, first_documents_swapped])
    def test_blend_members_that_disagree_is_data_error(self, scored_run, tmp_path, edit):
        scores = scored_run / "scores.csv"
        other = rewrite_rows(scores, tmp_path / "other.csv", edit)
        assert self.blend(tmp_path, scores, other) == 2

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
    ], ids=["no_tau", "no_delta_ndcg", "tau_abc", "delta_ndcg_nan", "tau_inf", "short_row"])
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

    def test_train_with_header_only_validation_is_data_error(self, scored_run, tmp_path):
        empty = rewrite_rows(scored_run / "features_validation.csv", tmp_path / "v.csv",
                             header_only)
        assert run("train", "--kind", "ranknet",
                   "--train-features", str(scored_run / "features_train.csv"),
                   "--val-features", str(empty), "--out", str(tmp_path / "m.json"),
                   "--epochs", "2", "--hidden", "16") == 2
