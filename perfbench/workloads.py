"""The benchmark's workloads: the CLI calls of each one's set-up and timed section.

Every step is the argument list of one ``persorank`` subcommand, run in-process
through ``persorank.cli.main`` exactly as a user would type it. Paths are
relative to the run's work directory: ``setup`` holds what set-up built,
``it`` is the directory of one timed iteration. The synthetic log is the load,
so ``gen`` always belongs to set-up; ``--seed`` of the benchmark becomes the
generator's ``synth_seed`` and nothing else. Every other setting is the
generator's and pipeline's default, apart from the ones named here.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("heuristic", "regression", "ranknet", "listnet")
NETS = KINDS[1:]
ROLES = ("train", "validation", "test")
PARTITION_SEED = 1
TRAIN_DAYS = 27  # the config default, matching the generator's 30 days
NET_FLAGS = ["--seed", "2", "--hidden", "64", "--lr", "0.1"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline",
            users=300,
            why="the README flow users run, from parse to eval, so every module does real work",
        ),
        Workload(
            name="crowd",
            users=600,
            why="more users make other users' contexts 5-6 grow, so extraction and indexing dominate and no ranker runs",
        ),
        Workload(
            name="train",
            users=200,
            why="features are built in set-up and only read, so ranker, blend and evaluate do nearly all the work",
        ),
    )
}

# `train` runs a fixed number of epochs (patience set equal, so early stopping
# never cuts the work short); `pipeline` keeps the default early stopping.
TRAIN_EPOCHS = 200
SMOKE_USERS = 30
SMOKE_EPOCHS = 3


def _gen(w: Workload, seed: int, d: str, smoke: bool) -> list[str]:
    users = SMOKE_USERS if smoke else w.users
    return ["gen", "--out", f"{d}/log.tsv", "-O", f"n_users={users}", "-O", f"synth_seed={seed}"]


def _extract(log: str, d: str) -> list[list[str]]:
    seed = str(PARTITION_SEED)
    return [
        ["parse", "--log", log, "--out", f"{d}/sessions.cache"],
        ["partition", "--cache", f"{d}/sessions.cache", "--out", f"{d}/targets.csv",
         "--seed", seed],
        ["extract", "--cache", f"{d}/sessions.cache", "--targets", f"{d}/targets.csv",
         "--out-dir", d, "--seed", seed],
    ]


def _train(kind: str, feats: str, it: str, extra: list[str]) -> list[str]:
    args = ["train", "--kind", kind,
            "--train-features", f"{feats}/features_train.csv",
            "--val-features", f"{feats}/features_validation.csv",
            "--out", f"{it}/model_{kind}.json"]
    return args if kind == "heuristic" else args + NET_FLAGS + extra


def _score(kind: str, role: str, models: str, feats: str, it: str) -> list[str]:
    return ["score", "--model", f"{models}/model_{kind}.json",
            "--features", f"{feats}/features_{role}.csv",
            "--out", f"{it}/scores_{kind}_{role}.csv"]


def _blend_and_eval(kinds, it: str) -> list[list[str]]:
    return [
        ["blend", "--scores", *[f"{it}/scores_{k}_validation.csv" for k in kinds],
         "--method", "learned", "--split-seed", "3",
         "--out", f"{it}/blended_validation.csv", "--model-out", f"{it}/blend.json"],
        ["blend", "--scores", *[f"{it}/scores_{k}_test.csv" for k in kinds],
         "--apply", f"{it}/blend.json", "--out", f"{it}/blended_test.csv"],
        ["eval", "--scores", f"{it}/blended_test.csv", "--out-dir", it, "--split-seed", "4"],
    ]


def extracts_in_setup(w: Workload) -> bool:
    """Whether parse -> partition -> extract runs in set-up instead of being timed."""
    return w.name == "train"


def setup_steps(w: Workload, seed: int, d: str, smoke: bool = False) -> list[list[str]]:
    steps = [_gen(w, seed, d, smoke)]
    if extracts_in_setup(w):
        steps += _extract(f"{d}/log.tsv", d)
    return steps


def timed_steps(w: Workload, setup: str, it: str, smoke: bool = False) -> list[list[str]]:
    if w.name == "pipeline":
        steps = _extract(f"{setup}/log.tsv", it)
        steps += [_train(k, it, it, []) for k in KINDS]
        steps += [_score(k, r, it, it, it) for k in KINDS for r in ("validation", "test")]
        return steps + _blend_and_eval(KINDS, it)
    if w.name == "crowd":
        return _extract(f"{setup}/log.tsv", it) + [
            _score("heuristic", "test", setup, it, it),
            ["eval", "--scores", f"{it}/scores_heuristic_test.csv", "--out-dir", it,
             "--split-seed", "4"],
        ]
    epochs = str(SMOKE_EPOCHS if smoke else TRAIN_EPOCHS)
    fixed = ["--epochs", epochs, "--patience", epochs]
    steps = [_train(k, setup, it, fixed) for k in NETS]
    steps += [_score(k, r, it, setup, it) for k in NETS for r in ("validation", "test")]
    return steps + _blend_and_eval(NETS, it)


def scored_test_file(w: Workload) -> str:
    """The score file of the test-role targets that eval reports on."""
    return "scores_heuristic_test.csv" if w.name == "crowd" else "blended_test.csv"
