"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete. Pinned values were measured on the first verified run of
the exact recipes below; network-dependent numbers carry a small tolerance
for BLAS variation across machines, pure-Python numbers are pinned tightly.
"""

import dataclasses
import io
import random
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from persorank import features
from persorank.blend import blend_average, blend_learned
from persorank.cli import main as cli_main
from persorank.contexts import Context, ItemKind
from persorank.evaluate import kendall_tau, mean_ndcg, ndcg_at, rank_by_score
from persorank.features import N_FEATURES, context_features
from persorank.logs import Grade, SessionColumns, label_impression
from persorank.partition import select_targets, write_targets
from persorank.ranker import (
    ModelKind,
    RankModel,
    backward,
    forward,
    init_params,
    loss_and_score_grad,
    score_table,
    train,
    training_loss,
)
from persorank.config import Config

from conftest import extract_all, generated_sessions
from oracles import OracleScan, finite_difference_grads, oracle_extract, oracle_ndcg
from test_blend import scored
from test_features import random_context
from test_logs import make_session


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL")
        raise
    else:
        print(f"\n[criterion {number}] {name}: PASS")


# --- desk-scale run shared by criteria 4 and 6 --------------------------

DESK_GEN = Config(
    n_users=400,
    queries_per_user_per_day=3,
    n_queries=1200,
    n_terms=600,
    n_documents=8000,
    n_domains=500,
    preference_strength=0.9,
    repeat_query_prob=0.5,
    synth_seed=7,
)
DESK_PARTITION_SEED = 1
DESK_TRAIN_SEED = 2
DESK_WEAK_SEED = 5
DESK_BLEND_SPLIT_SEED = 3

# pinned on the first verified run (pure-Python paths, tight tolerance)
PIN_BASE = 0.5678549300978792
PIN_HEURISTIC = 0.6323708758627706
# pinned on the first verified run (training paths, BLAS tolerance)
PIN_REGRESSION = 0.6821198145394243
PIN_RANKNET = 0.6878654304315611
PIN_LISTNET = 0.6840726019988639
PIN_LEARNED_HOLDOUT = 0.695775245968721
PIN_AVERAGE_HOLDOUT = 0.6679604837672498
PIN_WEAKEST_HOLDOUT = 0.5399632122262561
NET_TOL = 5e-3


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    sessions, _ = generated_sessions(DESK_GEN)
    columns = SessionColumns.of(sessions)
    targets, _ = select_targets(
        columns, train_days=DESK_GEN.train_days, seed=DESK_PARTITION_SEED
    )
    extracted = extract_all(
        columns, targets, train_days=DESK_GEN.train_days, seed=DESK_PARTITION_SEED
    )
    tables = {}
    for role in ("train", "validation"):
        path = tmp / f"{role}.csv"
        features.write_features(extracted[role], path)
        tables[role] = features.read_features(path)
    return {
        "sessions": sessions,
        "targets": targets,
        "train": tables["train"],
        "validation": tables["validation"],
        "tmp": tmp,
    }


def test_criterion_1_ndcg_oracle_equivalence():
    with criterion(1, "NDCG oracle equivalence (10,000 instances, < 5 s)"):
        rng = random.Random(1234)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(10_000):
            gains = [rng.randint(0, 2) for _ in range(10)]
            order = list(range(10))
            rng.shuffle(order)
            got = ndcg_at(order, gains)
            want = oracle_ndcg(order, gains)
            worst = max(worst, abs(got - want))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-12, f"max deviation {worst}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_feature_oracle_equivalence():
    with criterion(2, "feature extraction vs brute force (500 targets, < 60 s)"):
        cfg = Config(
            n_users=1000,
            queries_per_user_per_day=2,
            n_queries=2500,
            n_terms=800,
            n_documents=12000,
            n_domains=800,
            preference_strength=0.9,
            repeat_query_prob=0.5,
            synth_seed=17,
        )
        sessions, stats = generated_sessions(cfg)
        n_impressions = sum(len(s.impressions) for s in sessions)
        assert stats.unique_users >= 1000
        assert n_impressions >= 50_000
        columns = SessionColumns.of(sessions)
        targets, _ = select_targets(columns, train_days=cfg.train_days, seed=5)

        start = time.perf_counter()
        extracted = extract_all(
            columns, targets, train_days=cfg.train_days, seed=5
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"full extraction took {elapsed:.1f}s"

        by_key = {}
        for role in ("train", "validation", "test"):
            table = extracted[role]
            keys = map(tuple, table.ids[:, [0, 2, 3]].tolist())  # user, session, serp
            for t, key in enumerate(keys):
                by_key[key] = table.x[t]

        scan = OracleScan(sessions, seed=5)
        rng = random.Random(99)
        all_refs = [
            tuple(ref)
            for role in ("train", "validation", "test")
            for ref in targets.by_role(role).tolist()
        ]
        integer_features = {0, 2, 3, 10, 11, 12, 13, 16, 17}
        for ref in rng.sample(all_refs, 500):
            got = by_key[ref]
            want = oracle_extract(scan, cfg.train_days, *ref)
            for got_doc, want_doc in zip(got, want):
                assert got_doc[120] == want_doc[120]
                for block in range(6):
                    for j in range(20):
                        a = got_doc[block * 20 + j]
                        b = want_doc[block * 20 + j]
                        if j in integer_features:
                            assert a == b
                        else:
                            assert abs(a - b) <= 1e-12


def test_criterion_3_labeling_rules():
    with criterion(3, "dwell-time labeling rules"):
        # dwell boundaries 49 / 50 / 399 / 400 (a later click elsewhere keeps
        # the last-click override away from the document under test)
        for dwell, expected in (
            (49, Grade.R0), (50, Grade.R1), (399, Grade.R1), (400, Grade.R2),
        ):
            session = make_session(
                [(0, 0, [(3, 10)]), (1, 10 + dwell, [(5, 1000 + dwell)])]
            )
            labels = label_impression(session.impressions[0], session)
            assert labels[3] is expected, f"dwell {dwell}"

        # last click of the session is satisfied regardless of dwell
        session = make_session([(0, 0, [(3, 10)])])
        assert label_impression(session.impressions[0], session)[3] is Grade.R2

        # multi-click documents graded by their longest dwell
        session = make_session([(0, 0, [(3, 10), (3, 30)]), (1, 480, [(5, 490)])])
        assert label_impression(session.impressions[0], session)[3] is Grade.R2
        session = make_session([(0, 0, [(3, 10), (3, 30)]), (1, 75, [(5, 80)])])
        assert label_impression(session.impressions[0], session)[3] is Grade.R0

        # zero-click impressions are all NO_CLICK, and counts always sum to 10
        session = make_session([(0, 0, [])])
        labels = label_impression(session.impressions[0], session)
        assert labels == [Grade.NO_CLICK] * 10
        assert len(labels) == 10


def test_criterion_4_partitioner(desk, tmp_path):
    with criterion(4, "partitioner guarantees and reproducibility"):
        sessions = desk["sessions"]
        targets = desk["targets"]
        lookup = {
            (s.user_id, s.session_id, i.serp_id): (s, i)
            for s in sessions
            for i in s.impressions
        }
        for role in ("train", "validation"):
            refs = targets.by_role(role).tolist()
            assert refs
            for ref in refs:
                _, imp = lookup[tuple(ref)]
                assert any(g.gain > 0 for g in imp.labels)
        tests_by_user = {t[0]: tuple(t) for t in targets.test.tolist()}
        for ref in map(tuple, targets.validation.tolist()):
            test_ref = tests_by_user[ref[0]]
            assert ref[1] == test_ref[1]
            _, v_imp = lookup[ref]
            _, t_imp = lookup[test_ref]
            assert v_imp.time_passed < t_imp.time_passed

        again, _ = select_targets(
            SessionColumns.of(sessions), train_days=DESK_GEN.train_days, seed=DESK_PARTITION_SEED
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_targets(targets, a)
        write_targets(again, b)
        assert a.read_bytes() == b.read_bytes()


def test_criterion_5_gradient_checks():
    with criterion(5, "analytic gradients vs central finite differences"):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for kind in (ModelKind.REGRESSION, ModelKind.RANKNET, ModelKind.LISTNET):
            x = rng.normal(size=(30, N_FEATURES))
            gains = rng.integers(0, 3, size=(3, 10)).astype(float)
            gains[:, 0] = 2.0
            params = init_params(N_FEATURES, 10, rng)
            scores, hidden = forward(params, x)
            _, dscores = loss_and_score_grad(kind, scores, gains)
            analytic = backward(params, x, hidden, dscores)
            numeric = finite_difference_grads(
                lambda p: training_loss(kind, p, x, gains), params, step=1e-5
            )
            values = [
                (analytic.w1.reshape(-1), numeric["w1"].reshape(-1)),
                (analytic.b1, numeric["b1"]),
                (analytic.w2, numeric["w2"]),
                (np.array([analytic.b2]), np.array([numeric["b2"]])),
            ]
            for a_arr, n_arr in values:
                for a, n in zip(a_arr, n_arr):
                    err = abs(a - n) / max(1e-8, abs(a) + abs(n))
                    worst = max(worst, err)
        assert worst < 1e-4, f"max relative error {worst}"


def test_criterion_6_desk_scale_ordering(desk):
    with criterion(6, "desk-scale model ordering and blend ordering"):
        tr, va = desk["train"], desk["validation"]
        base = mean_ndcg(-va.base_ranks, va.gains, va.base_ranks)
        members = {"heuristic": score_table(RankModel(kind=ModelKind.HEURISTIC), va)}
        heuristic = mean_ndcg(members["heuristic"].x[..., 0], va.gains, va.base_ranks)

        strong = Config(hidden_units=64, learning_rate=0.1, epochs=60, patience=10)
        weak = Config(hidden_units=16, learning_rate=0.001, epochs=60, patience=10)
        trained_ndcg = {}
        for name, kind, settings, seed in (
            ("regression", ModelKind.REGRESSION, strong, DESK_TRAIN_SEED),
            ("ranknet", ModelKind.RANKNET, strong, DESK_TRAIN_SEED),
            ("listnet", ModelKind.LISTNET, strong, DESK_TRAIN_SEED),
            ("regression_weak", ModelKind.REGRESSION, weak, DESK_WEAK_SEED),
            ("ranknet_weak", ModelKind.RANKNET, weak, DESK_WEAK_SEED),
        ):
            model = train(kind, tr, va, dataclasses.replace(settings, train_seed=seed))
            members[name] = score_table(model, va)
            trained_ndcg[name] = mean_ndcg(
                members[name].x[..., 0], va.gains, va.base_ranks
            )
        best = max(
            trained_ndcg["regression"], trained_ndcg["ranknet"],
            trained_ndcg["listnet"],
        )

        # ordering with the required gaps
        assert heuristic - base > 0.005
        assert best - heuristic > 0.005

        # regression pins
        assert base == pytest.approx(PIN_BASE, abs=1e-9)
        assert heuristic == pytest.approx(PIN_HEURISTIC, abs=1e-9)
        assert trained_ndcg["regression"] == pytest.approx(PIN_REGRESSION, abs=NET_TOL)
        assert trained_ndcg["ranknet"] == pytest.approx(PIN_RANKNET, abs=NET_TOL)
        assert trained_ndcg["listnet"] == pytest.approx(PIN_LISTNET, abs=NET_TOL)

        # blend ordering on the held-out half of the validation split
        tables, names = list(members.values()), list(members)
        _, learned = blend_learned(
            tables, split_seed=DESK_BLEND_SPLIT_SEED, names=names,
        )
        averaged, _ = blend_average(tables, names)
        holdout = np.random.default_rng(DESK_BLEND_SPLIT_SEED).permutation(
            va.n_targets
        )[va.n_targets // 2:]
        average_holdout, *member_holdout = [
            mean_ndcg(t.x[holdout, :, 0], va.gains[holdout], va.base_ranks[holdout])
            for t in [averaged, *tables]
        ]
        learned_holdout = learned.metadata["holdout_mean_ndcg"]
        weakest_holdout = min(member_holdout)
        assert learned_holdout >= average_holdout >= weakest_holdout
        assert learned_holdout == pytest.approx(PIN_LEARNED_HOLDOUT, abs=NET_TOL)
        assert average_holdout == pytest.approx(PIN_AVERAGE_HOLDOUT, abs=NET_TOL)
        assert weakest_holdout == pytest.approx(PIN_WEAKEST_HOLDOUT, abs=NET_TOL)


def test_criterion_7_invariance_suite():
    with criterion(7, "invariance suite"):
        rng = np.random.default_rng(77)

        # score-shift invariance of the pairwise and listwise losses
        for kind in (ModelKind.RANKNET, ModelKind.LISTNET):
            for _ in range(50):
                gains = rng.integers(0, 3, size=(4, 10)).astype(float)
                gains[:, 0] = 2.0
                scores = rng.normal(size=40)
                shifted = (
                    scores.reshape(4, 10) + rng.normal(size=(4, 1)) * 100
                ).reshape(-1)
                loss_a, _ = loss_and_score_grad(kind, scores, gains)
                loss_b, _ = loss_and_score_grad(kind, shifted, gains)
                assert abs(loss_a - loss_b) < 1e-9

        # affine-rescaling invariance of blended rankings (argsort level)
        for _ in range(25):
            n = 30
            gains = rng.integers(0, 3, size=(n, 10)).astype(float)
            gains[:, 0] = 2.0
            base = np.tile(np.arange(1.0, 11.0), (n, 1))
            m1 = rng.normal(size=n * 10)
            m2 = rng.normal(size=n * 10)
            scale = float(rng.uniform(0.01, 100.0))
            shift = float(rng.normal() * 50)
            for blender in (
                lambda a, b: blend_average([a, b])[0],
                lambda a, b: blend_learned([a, b], split_seed=1)[0],
            ):
                plain = blender(scored(m1, gains), scored(m2, gains)).x[..., 0]
                scaled = blender(scored(m1 * scale + shift, gains), scored(m2, gains)).x[..., 0]
                for t in range(n):
                    assert rank_by_score(plain[t], base[t]) == rank_by_score(
                        scaled[t], base[t]
                    )

        # feature permutation invariance and inequality invariants
        py_rng = random.Random(770)
        for i in range(10_000):
            kind = py_rng.choice([ItemKind.DOCUMENT, ItemKind.DOMAIN])
            ctx = random_context(py_rng, kind)
            item = (
                py_rng.randrange(12)
                if kind is ItemKind.DOCUMENT
                else py_rng.randrange(5)
            )
            g = context_features(item, (1, 2), ctx)
            assert g[11] + g[12] + g[13] <= g[10]
            if g[10] > 0:
                assert g[3] <= g[1] <= g[2]
            assert g[15] <= g[11] + 1e-12
            assert g[14] <= g[10] + 1e-12
            if i % 20 == 0:
                shuffled = Context(ctx.kind, ctx.occurrences[:])
                py_rng.shuffle(shuffled.occurrences)
                assert context_features(item, (1, 2), shuffled) == pytest.approx(
                    g, abs=1e-12
                )


def test_criterion_8_kendall_tau():
    with criterion(8, "Kendall tau fixtures and antisymmetry"):
        assert kendall_tau(list(range(10)), list(range(10))) == 1.0
        assert kendall_tau(list(range(10)), list(reversed(range(10)))) == -1.0
        a = list(range(10))
        b = a[:]
        b[6], b[7] = b[7], b[6]
        assert kendall_tau(a, b) == 43 / 45
        rng = random.Random(88)
        for _ in range(1000):
            x = rng.sample(range(10), 10)
            y = rng.sample(range(10), 10)
            assert kendall_tau(x, y) == -kendall_tau(x, list(reversed(y)))


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "end-to-end pipeline determinism"):
        overrides = [
            "-O", "n_users=40", "-O", "n_queries=300", "-O", "n_terms=200",
            "-O", "n_documents=1500", "-O", "n_domains=120", "-O", "synth_seed=7",
        ]

        def run_once(workdir):
            workdir.mkdir()
            quiet = redirect_stdout(io.StringIO())
            log = workdir / "log.tsv"
            cache = workdir / "sessions.cache"
            targets = workdir / "targets.csv"
            with quiet:
                assert cli_main(["gen", "--out", str(log)] + overrides) == 0
                assert cli_main(
                    ["parse", "--log", str(log), "--out", str(cache)]
                ) == 0
                assert cli_main(
                    ["partition", "--cache", str(cache), "--out", str(targets),
                     "--seed", "1"]
                ) == 0
                assert cli_main(
                    ["extract", "--cache", str(cache), "--targets", str(targets),
                     "--out-dir", str(workdir), "--seed", "1"]
                ) == 0
                model = workdir / "model.json"
                assert cli_main(
                    ["train", "--kind", "ranknet",
                     "--train-features", str(workdir / "features_train.csv"),
                     "--val-features", str(workdir / "features_validation.csv"),
                     "--out", str(model), "--seed", "2", "--lr", "0.1",
                     "--epochs", "25", "--hidden", "16"]
                ) == 0
                scores = workdir / "scores.csv"
                assert cli_main(
                    ["score", "--model", str(model),
                     "--features", str(workdir / "features_validation.csv"),
                     "--out", str(scores)]
                ) == 0
                assert cli_main(
                    ["eval", "--scores", str(scores), "--out-dir", str(workdir),
                     "--split-seed", "4"]
                ) == 0
                assert cli_main(
                    ["analyze", "--report", str(workdir / "report.csv"),
                     "--out-dir", str(workdir)]
                ) == 0

        run_once(tmp_path / "first")
        run_once(tmp_path / "second")
        compared = [
            "log.tsv", "log.tsv.counts.json", "targets.csv",
            "features_train.csv", "features_validation.csv",
            "features_test.csv", "model.json", "scores.csv",
            "report.csv", "summary.csv", "tau_hist.csv", "delta_ndcg_hist.csv",
        ]
        for name in compared:
            first = (tmp_path / "first" / name).read_bytes()
            second = (tmp_path / "second" / name).read_bytes()
            assert first == second, f"{name} differs between runs"
