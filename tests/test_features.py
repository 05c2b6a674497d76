import dataclasses
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persorank import contexts, features
from persorank.cache import save_sessions
from persorank.cli import main
from persorank.contexts import (
    Context,
    ItemKind,
    assemble_contexts,
    build_from_sessions,
    make_occurrence,
)
from persorank.features import (
    HEADER,
    N_FEATURES,
    FeatureTable,
    context_features,
    event_flags,
    extract_impression,
    read_features,
    similarity,
    write_features,
)
from persorank.evaluate import write_scores
from persorank.logs import DataError, Grade, Impression, Session, SessionColumns, parse_columns
from persorank.partition import ROLES, TargetSet, rank_sessions, select_targets, write_targets
from persorank.config import Config
from persorank.synth import generate_lines

from conftest import extract_all, traced_peak
from oracles import (
    OracleEntry,
    OracleScan,
    _entry_events,
    oracle_block,
    oracle_extract,
    oracle_sim,
)


def make_occ(docs, grades, terms=(1, 2), domains=None, user=1, day=1, sid=1, t=0):
    imp = Impression(
        serp_id=0,
        query_id=5,
        terms=tuple(terms),
        documents=tuple(docs),
        domains=tuple(domains) if domains else tuple(d % 4 for d in docs),
        time_passed=t,
        labels=list(grades),
    )
    session = Session(session_id=sid, user_id=user, day=day, impressions=[imp])
    return make_occurrence(session, imp, rank=0)


def grades_for(docs, graded: dict):
    return [graded.get(d, Grade.NO_CLICK) for d in docs]


class TestSimilarity:
    def test_half_overlap(self):
        assert similarity({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_identical(self):
        assert similarity((1, 2), (1, 2)) == 1.0

    def test_disjoint(self):
        assert similarity((1,), (2,)) == 0.0

    def test_both_empty(self):
        assert similarity((), ()) == 0.0


class TestEventFlags:
    def test_skipped_click_below(self):
        docs = list(range(10))
        occ = make_occ(docs, grades_for(docs, {4: Grade.R1}))
        flags = event_flags(2, occ, ItemKind.DOCUMENT)  # item at rank 3, click at 5
        assert flags.skipped and not flags.missed and not flags.clicked
        assert flags.r_skipped == 3 and flags.r_missed == 0

    def test_missed_click_above(self):
        docs = list(range(10))
        occ = make_occ(docs, grades_for(docs, {1: Grade.R0}))
        flags = event_flags(6, occ, ItemKind.DOCUMENT)  # item at rank 7, click at 2
        assert flags.missed and not flags.skipped
        assert flags.r_missed == 7

    def test_no_clicks_neither_skipped_nor_missed(self):
        docs = list(range(10))
        occ = make_occ(docs, grades_for(docs, {}))
        flags = event_flags(3, occ, ItemKind.DOCUMENT)
        assert flags.shown and not (flags.clicked or flags.skipped or flags.missed)
        assert flags.r_shown == 4

    def test_clicked(self):
        docs = list(range(10))
        occ = make_occ(docs, grades_for(docs, {3: Grade.R0}))
        flags = event_flags(3, occ, ItemKind.DOCUMENT)
        assert flags.clicked and flags.r_clicked == 4

    def test_absent_item(self):
        docs = list(range(10))
        occ = make_occ(docs, grades_for(docs, {}))
        assert event_flags(99, occ, ItemKind.DOCUMENT) == (
            False, False, False, False, 0, 0, 0, 0,
        )

    def test_multi_slot_domain_uses_topmost(self):
        docs = list(range(10))
        domains = [7, 3, 7, 3, 0, 0, 0, 0, 0, 0]
        occ = make_occ(docs, grades_for(docs, {4: Grade.R1}), domains=domains)
        flags = event_flags(3, occ, ItemKind.DOMAIN)  # slots 2 and 4; click at 5
        assert flags.skipped and flags.r_skipped == 2


class TestContextFeatures:
    def test_empty_context_is_all_zero(self):
        ctx = Context(ItemKind.DOCUMENT, [])
        assert context_features(7, (1, 2), ctx) == [0.0] * 20

    def test_worked_example_two_clicked_occurrences(self):
        # item 50 clicked at rank 1 with gain 2, then at rank 4 with gain 1
        docs_a = [50, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        occ_a = make_occ(docs_a, grades_for(docs_a, {50: Grade.R2}), sid=1, t=0)
        docs_b = [1, 2, 3, 50, 4, 5, 6, 7, 8, 9]
        occ_b = make_occ(docs_b, grades_for(docs_b, {50: Grade.R1}), sid=2, t=5)
        ctx = Context(ItemKind.DOCUMENT, [occ_a, occ_b])
        g = context_features(50, (1, 2), ctx)
        assert g[0] == 3.0       # total gain
        assert g[1] == 1.5       # mean gain over slots
        assert g[2] == 2.0 and g[3] == 1.0
        assert g[10] == 2.0 and g[11] == 2.0      # shown, clicked counts
        assert g[14] == 1.25     # 1/1 + 1/4 shown discount
        assert g[15] == 1.25     # clicked discount
        assert g[16] == 4.0 and g[17] == 1.0      # max/min clicked rank
        assert g[4] == 1.0 and g[5] == 1.0        # same-query similarity

    def test_skipped_occurrence_features(self):
        # item 2 shown at rank 2, unclicked; single click at rank 5
        docs = [9, 2, 8, 7, 6, 1, 3, 4, 5, 0]
        occ = make_occ(
            docs, grades_for(docs, {6: Grade.R1}), terms=(1, 2, 3), sid=3
        )
        ctx = Context(ItemKind.DOCUMENT, [occ])
        g = context_features(2, (2, 3, 4), ctx)
        assert g[12] == 1.0                        # skipped count
        assert g[18] == 0.5                        # skipped discount 1/2
        assert g[6] == similarity((2, 3, 4), (1, 2, 3))
        assert g[6] == 0.5
        assert g[11] == 0.0 and g[13] == 0.0

    def test_domain_multi_slot_gains_use_all_slots(self):
        docs = list(range(10))
        domains = [3, 0, 3, 0, 0, 0, 0, 0, 0, 0]
        graded = {0: Grade.R2, 2: Grade.R1}  # domain 3 slots at ranks 1 and 3
        occ = make_occ(docs, grades_for(docs, graded), domains=domains)
        ctx = Context(ItemKind.DOMAIN, [occ])
        g = context_features(3, (1, 2), ctx)
        assert g[0] == 3.0        # gains 2 + 1 across both slots
        assert g[1] == 1.5        # two slots
        assert g[10] == 1.0       # but only one occurrence
        assert g[15] == 1.0       # clicked discount uses topmost clicked slot
        assert g[16] == 1.0 and g[17] == 1.0


def random_context(rng: random.Random, kind=ItemKind.DOCUMENT, same_query=False):
    occurrences = []
    for k in range(rng.randint(0, 6)):
        docs = rng.sample(range(12), 10)
        graded = {}
        for d in rng.sample(docs, rng.randint(0, 4)):
            graded[d] = rng.choice([Grade.R0, Grade.R1, Grade.R2])
        terms = (1, 2) if same_query else tuple(
            rng.sample(range(8), rng.randint(1, 3))
        )
        occurrences.append(
            make_occ(
                docs,
                grades_for(docs, graded),
                terms=terms,
                domains=[d % 5 for d in docs],
                sid=k + 1,
                t=k,
            )
        )
    return Context(kind, occurrences)


class TestInvariants:
    def test_feature_inequalities(self):
        rng = random.Random(0)
        for _ in range(2000):
            kind = rng.choice([ItemKind.DOCUMENT, ItemKind.DOMAIN])
            ctx = random_context(rng, kind)
            item = rng.randrange(12) if kind is ItemKind.DOCUMENT else rng.randrange(5)
            g = context_features(item, (1, 2), ctx)
            assert g[11] + g[12] + g[13] <= g[10]
            if g[10] > 0:
                assert g[3] <= g[1] <= g[2]
            assert g[15] <= g[11] + 1e-12
            assert g[14] <= g[10] + 1e-12
            assert g[18] <= g[12] + 1e-12
            assert g[19] <= g[13] + 1e-12
            if g[11] > 0:
                assert 1 <= g[17] <= g[16] <= 10

    def test_same_query_similarity_degeneracy(self):
        rng = random.Random(1)
        for _ in range(500):
            ctx = random_context(rng, same_query=True)
            item = rng.randrange(12)
            g = context_features(item, (1, 2), ctx)
            assert g[4] in (0.0, 1.0) and g[5] in (0.0, 1.0)
            assert (g[5] == 1.0) == (g[11] > 0)

    def test_permutation_invariance(self):
        rng = random.Random(2)
        for _ in range(200):
            ctx = random_context(rng)
            item = rng.randrange(12)
            before = context_features(item, (1, 2), ctx)
            shuffled = Context(ctx.kind, ctx.occurrences[:])
            rng.shuffle(shuffled.occurrences)
            after = context_features(item, (1, 2), shuffled)
            assert before == pytest.approx(after, abs=1e-12)

    def test_matches_naive_oracle_on_random_contexts(self):
        rng = random.Random(3)
        for _ in range(500):
            kind = rng.choice([ItemKind.DOCUMENT, ItemKind.DOMAIN])
            ctx = random_context(rng, kind)
            item = rng.randrange(12) if kind is ItemKind.DOCUMENT else rng.randrange(5)
            q_terms = (1, 3)
            got = context_features(item, q_terms, ctx)
            entries = [
                OracleEntry(
                    o.terms,
                    o.documents if kind is ItemKind.DOCUMENT else o.domains,
                    o.grades,
                    o.day,
                    o.session_id,
                    o.time_passed,
                )
                for o in ctx.occurrences
            ]
            expected = oracle_block(item, q_terms, entries)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_similarity_matches_oracle(self):
        rng = random.Random(4)
        for _ in range(300):
            a = tuple(rng.sample(range(10), rng.randint(0, 5)))
            b = tuple(rng.sample(range(10), rng.randint(0, 5)))
            assert similarity(a, b) == pytest.approx(oracle_sim(a, b), abs=1e-15)


class TestExtract:
    def test_unseen_everything_gives_zero_blocks_plus_base_rank(self):
        imp = Impression(
            serp_id=0,
            query_id=1,
            terms=(1,),
            documents=tuple(range(10)),
            domains=tuple(range(10)),
            time_passed=0,
            labels=[Grade.NO_CLICK] * 10,
        )
        empty = [
            Context(k, [])
            for k in (
                ItemKind.DOCUMENT, ItemKind.DOMAIN, ItemKind.DOCUMENT,
                ItemKind.DOMAIN, ItemKind.DOCUMENT, ItemKind.DOMAIN,
            )
        ]
        table = extract_impression(9, imp, 4, empty)
        assert table.x.shape == (1, 10, N_FEATURES) and N_FEATURES == 121
        assert table.x[0, :, :120].tolist() == [[0.0] * 120] * 10
        assert table.x[0, :, 120].tolist() == list(range(1, 11))
        assert table.base_ranks.tolist() == [list(range(1, 11))]
        assert table.gains.tolist() == [[0.0] * 10]
        assert table.ids.tolist() == [[9, 1, 4, 0]]  # user, query, session, serp

    def test_vector_length_everywhere(self, small_corpus):
        extracted = extract_all(
            small_corpus.columns,
            small_corpus.targets,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        for role, table in extracted.items():
            assert table.x.shape == (table.n_targets, 10, 121)
            assert table.doc_ids.shape == table.base_ranks.shape == (table.n_targets, 10)
            assert np.isfinite(table.x).all()

    def test_csv_round_trip(self, small_corpus, tmp_path):
        extracted = extract_all(
            small_corpus.columns,
            small_corpus.targets,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        path = tmp_path / "features.csv"
        write_features(extracted["train"], path)
        with open(path) as fh:
            assert fh.readline().strip() == ",".join(HEADER)
        table = read_features(path)
        assert table.n_targets == extracted["train"].n_targets > 0
        assert np.array_equal(table.doc_ids, extracted["train"].doc_ids)
        assert np.array_equal(table.x, extracted["train"].x)
        assert np.array_equal(table.gains, extracted["train"].gains)
        assert table.base_ranks.tolist() == [[float(r) for r in range(1, 11)]] * table.n_targets

    def test_written_table_reads_back_field_by_field(self, small_corpus, tmp_path):
        extracted = extract_all(
            small_corpus.columns,
            small_corpus.targets,
            train_days=small_corpus.train_days,
            seed=small_corpus.partition_seed,
        )
        for role, table in extracted.items():
            path = tmp_path / f"{role}.csv"
            write_features(table, path)
            assert_same_table(read_features(path), table)

    def test_unlabeled_target_leaves_every_gain_of_its_role_empty(self, small_corpus, tmp_path):
        # One unlabeled test target among labeled ones: the whole role loads unlabeled.
        key = min(map(tuple, small_corpus.targets.by_role("test").tolist()))
        sessions = [
            dataclasses.replace(s, impressions=[
                dataclasses.replace(imp, labels=None)
                if (s.user_id, s.session_id, imp.serp_id) == key else imp
                for imp in s.impressions
            ])
            for s in small_corpus.sessions
        ]
        kwargs = dict(train_days=small_corpus.train_days, seed=small_corpus.partition_seed)
        labeled = extract_all(small_corpus.columns, small_corpus.targets, **kwargs)["test"]
        table = extract_all(SessionColumns.of(sessions), small_corpus.targets, **kwargs)["test"]
        assert table.gains is None and table.n_targets > 1
        assert_same_table(table, dataclasses.replace(labeled, gains=None))
        path = tmp_path / "features.csv"
        write_features(table, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[-1] == b"" and len(lines) == 10 * table.n_targets + 2
        assert all(line.endswith(b",") for line in lines[1:-1])
        assert_same_table(read_features(path), table)

    def test_extract_is_deterministic(self, small_corpus, tmp_path):
        kwargs = dict(
            train_days=small_corpus.train_days, seed=small_corpus.partition_seed
        )
        a = extract_all(small_corpus.columns, small_corpus.targets, **kwargs)
        b = extract_all(small_corpus.columns, small_corpus.targets, **kwargs)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_features(a["validation"], pa)
        write_features(b["validation"], pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_features_do_not_depend_on_id_values(self, small_corpus):
        # User ids stay: session order draws its tie-breaks per user id.
        def relabel(i):
            """A fixed bijection of ids below 2**32 onto a distant, shuffled range."""
            return 10**9 + (i * 2654435761) % 2**32

        def relabeled(imp):
            return dataclasses.replace(
                imp,
                query_id=relabel(imp.query_id),
                terms=tuple(map(relabel, imp.terms)),
                documents=tuple(map(relabel, imp.documents)),
                domains=tuple(map(relabel, imp.domains)),
                clicks=[(relabel(url), t) for url, t in imp.clicks],
            )

        sessions = [
            dataclasses.replace(s, impressions=[relabeled(imp) for imp in s.impressions])
            for s in small_corpus.sessions
        ]
        kwargs = dict(train_days=small_corpus.train_days, seed=small_corpus.partition_seed)
        before = extract_all(small_corpus.columns, small_corpus.targets, **kwargs)
        after = extract_all(SessionColumns.of(sessions), small_corpus.targets, **kwargs)
        for role, b in before.items():
            a = after[role]
            assert a.n_targets == b.n_targets > 0
            assert np.array_equal(a.ids[:, [0, 2, 3]], b.ids[:, [0, 2, 3]])  # all but the query
            assert a.ids[:, 1].tolist() == [relabel(q) for q in b.ids[:, 1].tolist()]
            assert a.doc_ids.tolist() == [[relabel(d) for d in docs] for docs in b.doc_ids.tolist()]
            assert a.x.tobytes() == b.x.tobytes()
            assert np.array_equal(a.gains, b.gains)


def set_field(col, value):
    def edit(fields):
        fields[col] = value
        return fields
    return edit


class TestWriteFeatures:
    # Signed zeros, subnormals, extremes, and values whose repr needs 17 digits.
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
               1.7976931348623157e308, 1 / 3, 0.1, 1.0, 2.0, -7.5]

    def random_table(self, rng, n_targets, labeled):
        x = np.where(rng.random((n_targets, 10, N_FEATURES)) < 0.5,
                     rng.choice(self.SPECIAL, (n_targets, 10, N_FEATURES)),
                     rng.normal(size=(n_targets, 10, N_FEATURES))
                     * 10.0 ** rng.integers(-320, 300, (n_targets, 10, N_FEATURES)))
        # The base_rank column is 1..10 in some order, as `read_features` requires.
        x[..., -1] = rng.permuted(np.tile(np.arange(1.0, 11.0), (n_targets, 1)), axis=1)
        ids = rng.integers(-2**62, 2**62, (n_targets, 4))
        return FeatureTable(ids, doc_ids=rng.integers(-2**62, 2**62, (n_targets, 10)), x=x,
                            base_ranks=x[..., -1].copy(),
                            gains=rng.integers(0, 3, (n_targets, 10)) * 1.0 if labeled else None)

    @staticmethod
    def expected_bytes(table):
        """The file, formatted one value at a time with `repr`."""
        lines = [",".join(HEADER)]
        for t in range(table.n_targets):
            ids = table.ids[t].tolist()
            for j in range(10):
                gain = "" if table.gains is None else str(int(table.gains[t, j]))
                values = [repr(float(v)) for v in table.x[t, j]]
                lines.append(",".join([*map(str, ids), str(table.doc_ids[t, j]), *values, gain]))
        return "".join(line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize("n_targets,labeled", [(0, True), (1, False), (7, True), (70, False)])
    def test_each_value_is_written_as_its_repr(self, tmp_path, n_targets, labeled):
        table = self.random_table(np.random.default_rng(n_targets), n_targets, labeled)
        path = tmp_path / "features.csv"
        write_features(table, path)
        assert path.read_bytes() == self.expected_bytes(table)
        # A table read back holds x as a strided view of the file's columns.
        again = tmp_path / "again.csv"
        write_features(read_features(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("n_targets,labeled", [(5, True), (2, False), (0, True)],
                             ids=["signed_zeros", "fewer_targets_than_a_block", "no_targets"])
    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch, n_targets, labeled):
        """Blocks of 1, 3 or 32 targets give the same feature and score files."""
        table = self.random_table(np.random.default_rng(n_targets), n_targets, labeled)
        table.x[:2, :, :3] = 0.0  # a block of 1 or 3 may hold only one of the zeros
        table.x[2:4, :, :3] = -0.0
        scores = dataclasses.replace(table, x=table.x[..., :1].copy())
        written = set()
        for size in (1, 3, 32):
            monkeypatch.setattr(features, "WRITE_TARGETS", size)
            write_features(table, tmp_path / f"features_{size}.csv")
            write_scores(scores, tmp_path / f"scores_{size}.csv")
            written.add(((tmp_path / f"features_{size}.csv").read_bytes(),
                         (tmp_path / f"scores_{size}.csv").read_bytes()))
        assert len(written) == 1
        [(feature_bytes, _)] = written
        assert feature_bytes == self.expected_bytes(table)

    def test_signed_zeros_stay_apart(self, tmp_path):
        table = self.random_table(np.random.default_rng(0), 1, True)
        table.x[0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
        path = tmp_path / "features.csv"
        write_features(table, path)
        assert b",0.0,-0.0,0.0,-0.0," in path.read_bytes()


class TestReadFeatures:
    @pytest.mark.parametrize("line,edit", [
        (13, lambda fields: fields[:-1]),
        (13, lambda fields: fields + ["0"]),
        (13, set_field(2, "99")),
        (12, set_field(0, "u1")),
        (13, set_field(4, "d7")),
        (13, set_field(10, "x")),
        (13, set_field(10, "nan")),
        (13, set_field(-1, "g")),
        (13, set_field(-1, "inf")),
        (12, set_field(0, "9" * 20)),
        (13, set_field(4, "9" * 20)),
        (13, set_field(-1, "nan")),
        (13, lambda fields: []),
        (13, lambda fields: set_field(10, "inf")(set_field(-1, "")(fields))),
        (13, set_field(4, "1.5")),
        (12, set_field(0, "1e3")),
    ], ids=["short_row", "long_row", "target_change", "user_id", "doc_id", "value",
            "nan_value", "gain", "inf_gain", "user_id_beyond_int64", "doc_id_beyond_int64",
            "nan_gain", "blank_line", "inf_value_without_gain", "fractional_doc_id",
            "float_user_id"])
    def test_malformed_row_is_data_error_naming_its_line(self, tmp_path, line, edit):
        x = np.full((2, 10, N_FEATURES), 0.5)
        x[:, :, -1] = np.arange(1, 11)
        table = FeatureTable(
            ids=np.array([[1, 2, 3, 0], [1, 2, 3, 1]]), doc_ids=np.arange(20).reshape(2, 10), x=x,
            base_ranks=x[:, :, -1].copy(), gains=np.arange(20).reshape(2, 10) % 3 * 1.0,
        )
        path = tmp_path / "features.csv"
        write_features(table, path)
        assert read_features(path).n_targets == 2
        lines = path.read_text().splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"line {line}\b"):
            read_features(path)

    def test_all_blank_body_is_data_error_naming_its_first_line(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(",".join(HEADER) + "\n" * 11)
        with pytest.raises(DataError, match=r"line 2 is blank"):
            read_features(path)

    def valid_file(self, tmp_path):
        table = TestWriteFeatures().random_table(np.random.default_rng(3), 2, True)
        path = tmp_path / "features.csv"
        write_features(table, path)
        return path, path.read_text().splitlines()

    def test_bad_value_in_a_file_of_partial_groups_reports_the_row_count(self, tmp_path):
        path, lines = self.valid_file(tmp_path)
        lines[4] = ",".join(set_field(10, "x")(lines[4].split(",")))
        path.write_text("\n".join(lines + lines[-1:]) + "\n")
        with pytest.raises(DataError, match=r"row count 21 is not a multiple of 10"):
            read_features(path)

    def test_file_that_is_whole_when_read_again_is_data_error(self, tmp_path, monkeypatch):
        path, lines = self.valid_file(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:-1]) + "\n")
        reads = iter([bad, path])
        monkeypatch.setattr(features, "open", lambda _, **kw: open(next(reads), **kw),
                            raising=False)
        with pytest.raises(DataError, match=r"bad\.csv: changed while it was read"):
            read_features(bad)


def scalar_table(sessions, refs, train_days, seed):
    """`extract_impression` over `assemble_contexts` for each (user, session, serp) in `refs`."""
    qidx, hist, ranks = build_from_sessions(sessions, train_days, seed)
    lookup = {
        (s.user_id, s.session_id, imp.serp_id): imp
        for s in sessions
        for imp in s.impressions
    }
    tables = []
    for user_id, session_id, serp_id in refs:
        imp = lookup[(user_id, session_id, serp_id)]
        key = (ranks[(user_id, session_id)], imp.time_passed)
        six = assemble_contexts(user_id, imp.query_id, key, qidx, hist)
        tables.append(extract_impression(user_id, imp, session_id, six))
    return FeatureTable(*(
        np.concatenate([getattr(t, field.name) for t in tables])
        for field in dataclasses.fields(FeatureTable)
    ))


def assert_same_table(got, want):
    """Every field of two tables is equal bitwise: ids, doc ids, values, base ranks, gains."""
    assert got.x.shape == want.x.shape
    assert (got.gains is None) == (want.gains is None)
    for field in dataclasses.fields(FeatureTable):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b is not None:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name  # also tells -0.0 from 0.0


TARGET_SESSION = 10**6


def check_hand_built(sessions, user_id, imp, day=28):
    """Extract a target logged on `day` beside hand-built training sessions; return its values.

    By default the target's session falls in the test period, so every
    training row of its user is earlier. The batched values must equal the
    scalar reference.
    """
    sessions = sessions + [Session(TARGET_SESSION, user_id, day, [imp])]
    refs = [(user_id, TARGET_SESSION, imp.serp_id)]
    got = extract_all(SessionColumns.of(sessions), TargetSet(test=np.array(refs)),
                      train_days=27, seed=0)["test"]
    assert_same_table(got, scalar_table(sessions, refs, 27, 0))
    return got.x[0]


def block(values, k):
    """Context k's (10, 20) block of one target's (10, 121) values."""
    return values[:, (k - 1) * 20 : k * 20]


def serp(serp_id, docs, domains, clicks=None, terms=(1, 2), query=5, time=0):
    clicks = clicks or {}
    return Impression(
        serp_id=serp_id,
        query_id=query,
        terms=tuple(terms),
        documents=tuple(docs),
        domains=tuple(domains),
        time_passed=time,
        labels=[clicks.get(pos, Grade.NO_CLICK) for pos in range(1, len(docs) + 1)],
    )


TERM_SETS = [(1, 2), (1, 2, 3), (4,)]


def exact_block(item, terms, entries):
    """`oracle_block` with its similarity and discount sums taken exactly, then rounded once."""
    values = oracle_block(item, terms, entries)
    sims = {1: [], 2: [], 3: []}  # clicked, skipped, missed
    discounts = [Fraction(0)] * 4  # shown, clicked, skipped, missed
    for entry in entries:
        events = _entry_events(entry, item)
        if events is None:
            continue
        _, clicked, skipped, missed, top, r_clicked = events
        a, b = set(terms), set(entry.terms)
        sim = Fraction(len(a & b), len(a | b) or 1)
        discounts[0] += Fraction(1, top)
        for k, flag, rank in ((1, clicked, r_clicked), (2, skipped, top), (3, missed, top)):
            if flag:
                sims[k].append(sim)
                discounts[k] += Fraction(1, rank)
    for k, column in zip((1, 2, 3), (4, 6, 8)):
        values[column] = float(sum(sims[k]) / len(sims[k])) if sims[k] else 0.0
    for k, column in zip(range(4), (14, 15, 18, 19)):
        values[column] = float(discounts[k])
    return values


TARGET_0_TO_9 = serp(1, range(10), [d % 4 for d in range(10)])


def shown_at_ranks_1_3_1(users, query):
    """Three rows of `users` and `query` that show document 0 at ranks 1, 3 and 1, in row order."""
    return [Session(k + 1, user, k + 1, [serp(0, docs, [d % 4 for d in docs], query=query)])
            for k, (user, docs) in enumerate(zip(users, [
                list(range(10)), [5, 6, 0, 7, 8, 9, 1, 2, 3, 4], list(range(10))]))]


TARGET_TERMS_1 = serp(1, range(10), range(10), terms=(1,))
# It names the target, not the context pair.
OVERFLOW_TEXT = (rf"^target \(user 1, session {TARGET_SESSION}, serp 1\): "
                 r"exact similarity sums exceed 2\*\*53$")


def union_sizes_1_to_45(own):
    """Rows whose union sizes with `TARGET_TERMS_1` are 1 to 45, each clicking document 0.

    The lcm of 1 to 45 is above 2**53, so exact means would not fit. The rows
    are the target user's rows of another query (context 3) if `own`, else
    other users' rows of the target's query (context 5).
    """
    docs = list(range(10))
    return [Session(k, 1 if own else 1 + k, k % 27 + 1, [
        serp(0, docs, docs, {1: Grade.R1}, terms=range(1, k + 1), query=6 if own else 5)])
        for k in range(1, 46)]


class TestColumnar:
    def test_matches_scalar_on_every_small_corpus_target(self, small_corpus):
        kwargs = dict(train_days=small_corpus.train_days, seed=small_corpus.partition_seed)
        extracted = extract_all(small_corpus.columns, small_corpus.targets, **kwargs)
        checked = 0
        for role in ("train", "validation", "test"):
            refs = sorted(map(tuple, small_corpus.targets.by_role(role).tolist()))
            want = scalar_table(small_corpus.sessions, refs, **kwargs)
            assert_same_table(extracted[role], want)
            checked += len(refs)
        assert checked > 50

    def test_chunk_size_does_not_change_features(self, small_corpus, monkeypatch):
        def extract():
            return extract_all(
                small_corpus.columns,
                small_corpus.targets,
                train_days=small_corpus.train_days,
                seed=small_corpus.partition_seed,
            )

        default = extract()
        n_targets = sum(table.n_targets for table in default.values())
        for chunk in (1, n_targets + 1):
            monkeypatch.setattr(features, "CHUNK_TARGETS", chunk)
            for role, table in extract().items():
                assert_same_table(table, default[role])

    def test_domain_filling_several_slots(self):
        domains = [3, 0, 3, 0, 7, 7, 1, 2, 3, 4]
        sessions = [
            Session(1, 2, 1, [serp(0, range(10), domains, {1: Grade.R1, 3: Grade.R2})]),
            Session(2, 3, 2, [serp(0, range(10, 20), domains, {6: Grade.R0})]),
            Session(3, 4, 3, [serp(0, range(10), domains, {9: Grade.R2})]),
            Session(4, 1, 4, [serp(0, range(10), domains, {3: Grade.R1})]),
        ]
        target = serp(1, range(10), [3, 3, 7, 0, 9, 1, 2, 4, 3, 8])
        values = check_hand_built(sessions, 1, target)
        # Domain 3 fills slots 1, 3 and 9 of every row: three rows of others.
        assert block(values, 6)[0, [0, 10]].tolist() == [5.0, 3.0]
        assert block(values, 2)[0, [0, 10]].tolist() == [1.0, 1.0]

    def test_domain_clicked_only_at_its_lower_slot(self):
        domains = [3, 0, 1, 3, 2, 4, 5, 6, 7, 8]
        sessions = [Session(1, 2, 1, [serp(0, range(10), domains, {4: Grade.R1, 7: Grade.R0})])]
        target = serp(1, range(10, 20), [3, 1, 2, 4, 5, 6, 7, 8, 9, 0])
        values = check_hand_built(sessions, 1, target)
        # Domain 3 is shown at rank 1 and clicked at rank 4, its topmost clicked slot.
        assert block(values, 6)[0, [10, 11, 14, 15, 16, 17]].tolist() == [
            1.0, 1.0, 1.0, 0.25, 4.0, 4.0]

    def test_domain_slots_with_different_gains(self):
        domains = [5, 1, 5, 2, 3, 5, 4, 6, 7, 8]
        sessions = [
            Session(1, 2, 1, [serp(0, range(10), domains, {1: Grade.R1, 3: Grade.R2})]),
            Session(2, 3, 2, [serp(0, range(10), domains, {6: Grade.R2, 9: Grade.R0})]),
        ]
        target = serp(1, range(10, 20), [5, 1, 2, 3, 4, 6, 7, 8, 9, 0])
        values = check_hand_built(sessions, 1, target)
        # Domain 5 fills slots 1, 3 and 6: gains 1, 2 and 0 in one row, 0, 0 and 2 in the other.
        assert block(values, 6)[0, :4].tolist() == [5.0, 5 / 6, 2.0, 0.0]

    def test_domain_at_ranks_one_and_ten(self):
        domains = [4, 0, 1, 2, 3, 5, 6, 7, 8, 4]
        sessions = [Session(1, 2, 1, [serp(0, range(10), domains, {5: Grade.R0, 10: Grade.R2})])]
        target = serp(1, range(10, 20), [4, 0, 1, 2, 3, 5, 6, 7, 8, 9])
        values = check_hand_built(sessions, 1, target)
        # One occurrence of domain 4, led by rank 1 and clicked at rank 10.
        assert block(values, 6)[0, [0, 1, 10, 11, 14, 15, 16]].tolist() == [
            2.0, 1.0, 1.0, 1.0, 1.0, 0.1, 10.0]

    def test_document_listed_twice_clicked_at_its_earlier_listing(self):
        docs = [0, 1, 2, 3, 4, 0, 6, 7, 8, 9]
        sessions = [Session(1, 2, 1, [serp(0, docs, [d % 4 for d in docs], {1: Grade.R2})])]
        target = serp(1, [0, 9, 8, 7, 6, 5, 4, 3, 2, 1], [0, 1, 2, 3, 0, 1, 2, 3, 0, 1])
        values = check_hand_built(sessions, 1, target)
        # Document 0 counts at rank 6 only, below the row's one click: missed, no gain.
        assert block(values, 5)[0, [0, 10, 11, 13, 14, 19]].tolist() == [
            0.0, 1.0, 0.0, 1.0, 1 / 6, 1 / 6]

    @given(st.data())
    @settings(max_examples=60)
    def test_matches_scalar_on_tiny_corpora_with_multi_slot_domains(self, data):
        grades = st.sampled_from([Grade.NO_CLICK, Grade.NO_CLICK, Grade.R0, Grade.R1, Grade.R2])
        sessions = []
        for session_id in range(1, data.draw(st.integers(1, 6)) + 1):
            impressions = []
            for serp_id in range(data.draw(st.integers(1, 2))):
                pool = data.draw(st.lists(st.integers(0, 5), min_size=2, max_size=3, unique=True))
                clicks = data.draw(st.lists(grades, min_size=10, max_size=10))
                impressions.append(serp(
                    serp_id, data.draw(st.lists(st.integers(0, 11), min_size=10, max_size=10)),
                    data.draw(st.lists(st.sampled_from(pool), min_size=10, max_size=10)),
                    dict(enumerate(clicks, start=1)), terms=data.draw(st.sampled_from(TERM_SETS)),
                    query=data.draw(st.sampled_from([5, 6])), time=10 * serp_id))
            sessions.append(Session(session_id, data.draw(st.integers(1, 3)),
                                    data.draw(st.integers(1, 29)), impressions))
        refs = sorted((s.user_id, s.session_id, imp.serp_id)
                      for s in sessions for imp in s.impressions)
        got = extract_all(SessionColumns.of(sessions), TargetSet(test=np.array(refs)),
                          train_days=27, seed=0)["test"]
        assert_same_table(got, scalar_table(sessions, refs, 27, 0))
        # The kernel and the reference share their summation rule; the index-free
        # exact oracle checks both, for every context.
        scan = OracleScan(sessions, seed=0)
        for ref, values in zip(refs, got.x):
            assert values.tolist() == oracle_extract(scan, 27, *ref, block=exact_block)

    def test_target_users_rows_interleaved_with_others(self):
        docs = list(range(10))
        doms = [d % 4 for d in docs]
        sessions = [
            Session(day, user, day, [serp(0, docs, doms, {day % 10 + 1: Grade.R1})])
            for day, user in enumerate([1, 2, 1, 3, 1, 2, 1, 3], start=1)
        ]
        target = serp(9, docs, doms)
        values = check_hand_built(sessions, 1, target)
        assert (block(values, 1)[:, 10] == 4.0).all()  # user 1's own four rows
        assert (block(values, 5)[:, 10] == 4.0).all()  # users 2 and 3, two rows each

    def test_query_logged_with_two_term_sets(self):
        docs = list(range(10))
        doms = [d % 5 for d in docs]
        sessions = [
            Session(1, 2, 1, [serp(0, docs, doms, {2: Grade.R2}, terms=(1, 2))]),
            Session(2, 3, 2, [serp(0, docs, doms, {5: Grade.R1}, terms=(1, 2, 3))]),
            Session(3, 4, 3, [serp(0, docs, doms, {1: Grade.R0}, terms=(4,))]),
            Session(4, 1, 4, [serp(0, docs, doms, {3: Grade.R1}, terms=(1, 2))]),
        ]
        target = serp(1, docs, doms, terms=(1, 2, 3))
        values = check_hand_built(sessions, 1, target)
        # Document 1: clicked under (1, 2), skipped under (1, 2, 3), missed under (4,).
        assert block(values, 5)[1, [4, 6, 8]].tolist() == [2 / 3, 1.0, 0.0]
        # The user's own row, under (1, 2), skips document 1.
        assert block(values, 1)[1, [6, 7]].tolist() == [2 / 3, 2 / 3]

    def test_query_with_no_other_users(self):
        docs = list(range(10))
        sessions = [
            Session(1, 1, 1, [serp(0, docs, [0] * 10, {1: Grade.R2})]),
            Session(2, 1, 2, [serp(0, docs, [0] * 10, {4: Grade.R1})]),
        ]
        target = serp(1, docs, [0] * 10)
        values = check_hand_built(sessions, 1, target)
        assert not values[:, 80:120].any()
        assert block(values, 1)[:, 10].tolist() == [2.0] * 10

    def test_document_listed_twice_counts_at_its_last_slot(self):
        docs = [0, 1, 2, 0, 4, 5, 6, 7, 8, 9]
        sessions = [
            Session(1, 2, 1, [serp(0, docs, [d % 3 for d in docs], {1: Grade.R2})]),
            Session(2, 3, 2, [serp(0, docs, [d % 3 for d in docs], {4: Grade.R1})]),
            Session(3, 1, 3, [serp(0, docs, [d % 3 for d in docs], {1: Grade.R1})]),
        ]
        target = serp(1, [0, 9, 8, 7, 6, 5, 4, 3, 2, 1], [0, 0, 2, 1, 0, 2, 1, 0, 2, 1])
        values = check_hand_built(sessions, 1, target)
        # Document 0 counts at rank 4 only: the R2 click at rank 1 adds no gain,
        # and each of the two rows adds 1/4 to its shown discount.
        assert block(values, 5)[0, [0, 14]].tolist() == [1.0, 0.5]

    def test_oracle_counts_a_document_listed_twice_at_its_last_slot(self):
        docs = [0, 1, 2, 0, 4, 5, 6, 7, 8, 9]
        sessions = [Session(1, 2, 1, [serp(0, docs, [d % 3 for d in docs], {1: Grade.R2})])]
        target = serp(1, [0, 9, 8, 7, 6, 5, 4, 3, 2, 1], [0, 0, 2, 1, 0, 2, 1, 0, 2, 1])
        values = check_hand_built(sessions, 1, target)
        # Document 0 counts at rank 4 only: no gain, shown once, missed below the rank-1 click.
        assert block(values, 5)[0, [0, 10, 14]].tolist() == [0.0, 1.0, 0.25]
        scan = OracleScan(sessions + [Session(TARGET_SESSION, 1, 28, [target])], seed=0)
        assert oracle_extract(scan, 27, 1, TARGET_SESSION, 1) == values.tolist()

    def test_session_listing_impressions_out_of_time_order(self):
        # The rows are indexed by time within a session, not in list order. Every
        # sum is exact, so neither context's mean depends on the order of its rows.
        docs = list(range(10))

        def latest_first():
            return [serp(k, docs, docs, {1: Grade.R1}, terms=range(1, 4 - k), time=80 - 40 * k)
                    for k in range(3)]

        values = check_hand_built([Session(1, 1, 1, latest_first()),
                                   Session(2, 2, 1, latest_first())], 1,
                                  serp(9, docs, docs, terms=range(1, 11)))
        assert block(values, 1)[0, 4] == 0.2 != (0.1 + 0.2 + 0.3) / 3
        assert block(values, 5)[0, 4] == 0.2 != (0.1 + 0.2 + 0.3) / 3

    def test_query_with_more_codes_than_int16_holds(self):
        n = 1700  # 1700 rows x 20 distinct documents and domains > 32767 items
        sessions = [
            Session(k + 1, 2 + k % 7, 1 + k % 20, [
                serp(0, range(10 * k, 10 * k + 10), range(10 * k, 10 * k + 10),
                     {1 + k % 10: Grade.R1})
            ])
            for k in range(n)
        ]
        target = serp(1, [0, 10, 25, 999, 16990, 5, 7, 33, 16999, 123456],
                      [0, 10, 20, 30, 40, 50, 60, 70, 80, 90])
        values = check_hand_built(sessions, 1, target)
        assert block(values, 5)[:9, 10].tolist() == [1.0] * 9
        assert not block(values, 5)[9].any()

    def test_other_users_with_two_term_sets_share_one_exact_mean(self):
        docs = list(range(10))
        doms = [d % 5 for d in docs]
        sessions = [
            Session(1, 2, 1, [serp(0, docs, doms, {1: Grade.R1}, terms=(1,))]),
            Session(2, 3, 2, [serp(0, docs, doms, {1: Grade.R2}, terms=(1, 3))]),
        ]
        values = check_hand_built(sessions, 1, serp(1, docs, doms, terms=(1, 2)))
        # Document 0 is clicked under similarities 1/2 and 1/3: the lcm of the
        # union sizes is 6, and the mean is 5/12, rounded once.
        assert block(values, 5)[0, [4, 5, 11]].tolist() == [float(Fraction(5, 12)), 0.5, 2.0]
        assert block(values, 5)[0, 4] != (1 / 2 + 1 / 3) / 2

    def test_own_rows_before_and_after_the_target_are_all_subtracted(self):
        docs = list(range(10))
        doms = [d % 4 for d in docs]
        sessions = [
            Session(1, 1, 1, [serp(0, docs, doms, {1: Grade.R2})]),
            Session(2, 2, 2, [serp(0, docs, doms, {2: Grade.R1})]),
            Session(3, 1, 9, [serp(0, docs, doms, {3: Grade.R1}), serp(1, docs, doms)]),
            Session(4, 3, 12, [serp(0, docs, doms, {2: Grade.R2})]),
        ]
        # The target falls on day 5, between the user's rows of days 1 and 9, and
        # is a training row itself.
        values = check_hand_built(sessions, 1, serp(7, docs, doms, {4: Grade.R1}), day=5)
        assert (block(values, 5)[:, 10] == 2.0).all()  # users 2 and 3 only
        assert block(values, 5)[1, [0, 2, 11]].tolist() == [3.0, 2.0, 2.0]
        assert not block(values, 5)[[0, 2, 3], 11].any()
        assert (block(values, 1)[:, 10] == 1.0).all()  # the day-1 row only

    def test_other_users_discounts_are_exact_not_row_order_sums(self):
        values = check_hand_built(shown_at_ranks_1_3_1((2, 3, 4), query=5), 1, TARGET_0_TO_9)
        assert block(values, 5)[0, 14] == float(Fraction(7, 3)) != 1.0 + 1 / 3 + 1.0

    @pytest.mark.parametrize("context,query", [(1, 5), (3, 6)], ids=["c1", "c3"])
    def test_own_discounts_are_exact_not_row_order_sums(self, context, query):
        values = check_hand_built(shown_at_ranks_1_3_1((1, 1, 1), query), 1, TARGET_0_TO_9)
        assert block(values, context)[0, 14] == float(Fraction(7, 3)) != 1.0 + 1 / 3 + 1.0

    def test_gain_max_held_only_by_the_user_drops(self):
        docs = list(range(10))
        doms = [d % 4 for d in docs]
        sessions = [
            Session(1, 1, 1, [serp(0, docs, doms, {1: Grade.R2})]),
            Session(2, 2, 2, [serp(0, docs, doms, {1: Grade.R1})]),
            Session(3, 3, 3, [serp(0, docs, doms, {1: Grade.R0})]),
        ]
        values = check_hand_built(sessions, 1, serp(1, docs, doms))
        assert block(values, 1)[0, [2, 3]].tolist() == [2.0, 2.0]
        assert block(values, 5)[0, [0, 2, 3]].tolist() == [1.0, 1.0, 0.0]

    def test_query_logged_only_by_the_user_around_the_target(self):
        docs = list(range(10))
        sessions = [
            Session(1, 1, 1, [serp(0, docs, [0] * 10, {1: Grade.R2})]),
            Session(2, 1, 9, [serp(0, docs, [0] * 10, {4: Grade.R1})]),
            Session(3, 2, 2, [serp(0, docs, [0] * 10, {1: Grade.R1}, query=6)]),
        ]
        values = check_hand_built(sessions, 1, serp(1, docs, [0] * 10, {2: Grade.R1}), day=5)
        assert not values[:, 80:120].any()
        assert block(values, 1)[:, 10].tolist() == [1.0] * 10

    def test_similarity_sums_beyond_float64_integers_are_an_error(self):
        with pytest.raises(DataError, match=OVERFLOW_TEXT):
            check_hand_built(union_sizes_1_to_45(own=False), 1, TARGET_TERMS_1)

    def test_own_similarity_sums_beyond_float64_integers_are_an_error(self):
        with pytest.raises(DataError, match=OVERFLOW_TEXT):
            check_hand_built(union_sizes_1_to_45(own=True), 1, TARGET_TERMS_1)

    def test_similarity_sums_beyond_float64_integers_exit_extract_with_data_error(
            self, tmp_path, capsys):
        sessions = union_sizes_1_to_45(own=False) + [
            Session(TARGET_SESSION, 1, 28, [TARGET_TERMS_1])]
        save_sessions(SessionColumns.of(sessions), tmp_path / "s.cache")
        write_targets(TargetSet(test=np.array([(1, TARGET_SESSION, 1)])), tmp_path / "t.csv")
        assert main(["extract", "--cache", str(tmp_path / "s.cache"),
                     "--targets", str(tmp_path / "t.csv"), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: target (user 1, session {TARGET_SESSION}, serp 1): "
            "exact similarity sums exceed 2**53\n")

    @pytest.mark.parametrize("existing", [False, True], ids=["no_files", "old_files"])
    def test_data_error_in_the_last_role_writes_no_role(self, tmp_path, capsys, existing):
        # User 100 logs another query, so that its train and validation targets have values.
        docs = list(range(10))
        sessions = union_sizes_1_to_45(own=False) + [
            Session(TARGET_SESSION, 1, 28, [TARGET_TERMS_1]),
            Session(TARGET_SESSION + 1, 100, 3, [serp(0, docs, docs, {1: Grade.R1}, query=7)]),
            Session(TARGET_SESSION + 2, 100, 28, [serp(0, docs, docs, {1: Grade.R1}, query=7)])]
        save_sessions(SessionColumns.of(sessions), tmp_path / "s.cache")
        train = np.array([(100, TARGET_SESSION + 1, 0)])
        validation = np.array([(100, TARGET_SESSION + 2, 0)])
        test = np.array([(1, TARGET_SESSION, 1)])
        out = tmp_path / "features"
        out.mkdir()

        def extract(targets: TargetSet) -> int:
            write_targets(targets, tmp_path / "t.csv")
            return main(["extract", "--cache", str(tmp_path / "s.cache"),
                         "--targets", str(tmp_path / "t.csv"), "--out-dir", str(out)])

        assert extract(TargetSet(train=train, validation=validation)) == 0
        for path in out.iterdir():
            path.unlink()
        if existing:
            for role in ROLES:
                (out / f"features_{role}.csv").write_bytes(f"old {role}\n".encode())
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert extract(TargetSet(train=train, validation=validation, test=test)) == 2
        assert capsys.readouterr().err == (
            f"data error: target (user 1, session {TARGET_SESSION}, serp 1): "
            "exact similarity sums exceed 2**53\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_log_without_training_rows(self):
        values = check_hand_built([Session(1, 2, 29, [serp(0, range(10), range(10))])], 1,
                                  serp(1, range(10), range(10)))
        assert not values[:, :120].any()


# The 8-byte occurrence record whose fields `features._occurrences` packs into
# one int32 word, and the builder of the records, as the reference of the words.
OCCURRENCE = np.dtype({
    "names": ["top", "n_slots", "gain_sum", "gain_max", "gain_min", "r_clicked", "event"],
    "formats": [np.int8] * 7,
    "itemsize": 8,
})


def occurrence_records(rows: contexts.IndexRows) -> np.ndarray:
    """The (N, 20) occurrence records of the index rows, in the layout of `rows.items`."""
    rank = np.arange(1, 11, dtype=np.int8)
    table = np.zeros(rows.items.shape, OCCURRENCE)
    halves = table.reshape(-1, 2, 10)
    table["top"] = rows.items >= 0
    table["n_slots"] = 1
    for field in "gain_sum", "gain_max", "gain_min":
        halves[field] = rows.gains[:, None]
    halves["r_clicked"] = np.where(rows.clicked, rank, 0)[:, None]
    domains = rows.items[:, 10:]
    ordered = np.sort(domains, axis=1)
    multi = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    same = domains[multi, :, None] == domains[multi, None, :]
    gains = np.broadcast_to(rows.gains[multi, None, :], same.shape)
    clicked = np.broadcast_to(np.where(rows.clicked[multi, None, :], rank, 127), same.shape)
    top_click = clicked.min(axis=2, where=same, initial=127)
    part = table[multi, 10:]
    part["top"] = ~(same & np.tri(10, k=-1, dtype=bool)).any(axis=2)
    part["n_slots"] = same.sum(axis=2)
    part["gain_sum"] = gains.sum(axis=2, where=same)
    part["gain_max"] = gains.max(axis=2, where=same, initial=-128)
    part["gain_min"] = gains.min(axis=2, where=same, initial=127)
    part["r_clicked"] = np.where(top_click < 127, top_click, 0)
    table[multi, 10:] = part
    last_click = rows.last_click[:, None, None]
    halves["event"] = np.where(last_click > rank, features.SKIPPED,
                               np.where(last_click > 0, features.MISSED, features.SHOWN))
    table["event"][table["r_clicked"] > 0] = features.CLICKED
    return table


class TestOccurrences:
    @given(st.data())
    @settings(max_examples=80)
    def test_packed_words_decode_to_the_record_fields(self, data):
        """On tiny corpora whose domains fill several slots and whose documents repeat."""
        grades = st.sampled_from([Grade.NO_CLICK, Grade.NO_CLICK, Grade.R0, Grade.R1, Grade.R2])
        sessions = []
        for session_id in range(1, data.draw(st.integers(1, 5)) + 1):
            impressions = []
            for serp_id in range(data.draw(st.integers(1, 3))):
                pool = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
                clicks = data.draw(st.lists(grades, min_size=10, max_size=10))
                impressions.append(serp(
                    serp_id, data.draw(st.lists(st.integers(0, 11), min_size=10, max_size=10)),
                    data.draw(st.lists(st.sampled_from(pool), min_size=10, max_size=10)),
                    dict(enumerate(clicks, start=1)), time=10 * serp_id))
            sessions.append(Session(session_id, data.draw(st.integers(1, 3)),
                                    data.draw(st.integers(1, 27)), impressions))
        columns = SessionColumns.of(sessions)
        rows = contexts.index_rows(columns, rank_sessions(columns, 0))
        words, records = features._occurrences(rows), occurrence_records(rows)
        assert words.dtype == np.int32 and words.shape == records.shape
        top = records["top"] == 1
        assert (words[~top] == -1).all()
        fields = features._decode(words[top])
        assert fields["column"].tolist() == (np.nonzero(top)[1] % 10).tolist()
        for name in ("event", "r_clicked", "gain_sum", "gain_max", "gain_min", "n_slots"):
            assert fields[name].tolist() == records[name][top].tolist(), name


# The traced peak of extraction above its start, per index slot (an index
# row's 20 document and domain slots), on the 300-user generated log below:
# reading the rows and targets, building the index, and each role's table in
# turn, one held at a time. The session columns are held by the fixture, so
# they are not counted. Measured with numpy 2.4, it is 33 bytes per slot (47
# with 8-byte occurrences and int64 crowd tallies); the bound leaves room for
# other numpy versions' temporaries.
PEAK_BYTES_PER_SLOT = 47
# The same for the whole `persorank extract` command, with the session columns
# it loads and its writes counted. Measured with numpy 2.4, it is 31 bytes per
# slot (47 with 8-byte occurrences and whole role tables): the command drops
# the columns before it builds the index, and a role, extracted and written a
# chunk at a time, sets its peak. The bound is 15 above.
COMMAND_PEAK_BYTES_PER_SLOT = 46
# The traced peak of `Extraction.read` alone, per index slot. Measured with
# numpy 2.4, it is 10.9 bytes per slot: the item codes are found a block of
# rows at a time, after the targets. Sorting a copy of every document id at
# once, with the targets found once the rows were built, took 17.1.
READ_PEAK_BYTES_PER_SLOT = 14
# How much higher a role's traced peak may be, while it is extracted and
# written as `persorank extract` does, for three times the targets: the
# distinct values that the file formats once grow with them, and the chunks
# of the two roles differ. Measured with numpy 2.4, 1,800 targets peak 0.8 MB
# above 600 (4.9 MB); holding each role's whole table, they peaked 11.1 MB
# above.
ROLE_PEAK_GROWTH = 2 * 2**20
# The traced peak of writing the generated log's train table, per value
# written. Measured with numpy 2.4, it is 4.1 bytes per value: the distinct
# values of each block of targets, then of their union, and one block's
# strings. Sorting a copy of every value at once took 9.2.
WRITE_PEAK_BYTES_PER_VALUE = 6


@pytest.fixture(scope="module")
def generated_log():
    """Session columns and targets of a 300-user generated log (synth seed 5, partition seed 1).

    Its 6,000 documents make item code * slot count pass 2**31.
    """
    lines, _ = generate_lines(Config(n_users=300, n_documents=6000, synth_seed=5))
    columns = parse_columns(line + "\n" for line in lines)
    targets, _ = select_targets(columns, train_days=27, seed=1)
    return columns, targets


def traced_peak_per_slot(run, columns: SessionColumns) -> float:
    """The traced peak of `run()` above its start, per index slot of `columns`."""
    return traced_peak(run) / (len(contexts.training_rows(columns)[0]) * 20)


# The traced peak of `read_features` on the generated log's train file, per
# byte of the table it returns (the nbytes of its arrays). Measured with numpy
# 2.4, it is 1.2: loadtxt parses each line as it is read, and its result grows
# in place. Holding every line as a string while parsing took 1.9.
READ_PEAK_PER_TABLE_BYTE = 1.5


def table_bytes(table: FeatureTable) -> int:
    return sum(getattr(table, field.name).nbytes for field in dataclasses.fields(table))


class TestExtractionMemory:
    def test_traced_peak_per_index_slot(self, generated_log):
        columns, targets = generated_log

        def extract_each_role():
            extraction = features.Extraction.read(columns, targets, seed=1)
            extraction.index()
            for role in ROLES:
                features.extract_targets(extraction, role)

        peak = traced_peak_per_slot(extract_each_role, columns)
        assert peak < PEAK_BYTES_PER_SLOT, f"{peak:.1f} bytes per slot"

    def test_read_peak_per_index_slot(self, generated_log):
        columns, targets = generated_log
        read = []
        peak = traced_peak_per_slot(
            lambda: read.append(features.Extraction.read(columns, targets, seed=1)), columns)
        assert peak < READ_PEAK_BYTES_PER_SLOT, f"{peak:.1f} bytes per slot"

    def test_occurrences_take_4_bytes_per_slot(self, generated_log):
        columns, targets = generated_log
        extraction = features.Extraction.read(columns, targets, seed=1)
        extraction.index()
        slots = len(contexts.training_rows(columns)[0]) * 20
        assert extraction.occurrences.nbytes <= 4 * slots

    def test_role_peak_does_not_grow_with_its_targets(self, generated_log, tmp_path):
        columns, _ = generated_log
        session = columns.impression_sessions()
        ids = np.stack((columns.user_id[session], columns.session_id[session], columns.serp_id),
                       axis=1)
        # 1,800 impressions of the log, and every third of them, so that a chunk of
        # either role spans users alike.
        many = ids[np.sort(np.random.default_rng(0).choice(len(ids), 1800, replace=False))]
        extraction = features.Extraction.read(columns, TargetSet(validation=many[::3], test=many),
                                              seed=1)
        extraction.index()

        def extract_and_write(role):
            write_features(features.extract_chunks(extraction, role), tmp_path / f"{role}.csv")

        extract_and_write("validation")  # one-time allocations
        few, all_ = [traced_peak(lambda: extract_and_write(role))
                     for role in ("validation", "test")]
        assert all_ - few < ROLE_PEAK_GROWTH, f"{few / 2**20:.1f} MB, then {all_ / 2**20:.1f} MB"
        write_features(features.extract_targets(extraction, "test"), tmp_path / "whole.csv")
        assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "test.csv").read_bytes()

    def test_command_peak_per_index_slot(self, generated_log, tmp_path, capsys):
        columns, targets = generated_log
        save_sessions(columns, tmp_path / "s.cache")
        write_targets(targets, tmp_path / "t.csv")
        argv = ["extract", "--cache", str(tmp_path / "s.cache"), "--targets",
                str(tmp_path / "t.csv"), "--out-dir", str(tmp_path), "--seed", "1"]
        codes = []
        peak = traced_peak_per_slot(lambda: codes.append(main(argv)), columns)
        assert codes == [0] and capsys.readouterr().out.startswith("wrote ")
        assert peak < COMMAND_PEAK_BYTES_PER_SLOT, f"{peak:.1f} bytes per slot"

    def test_write_peak_per_value(self, generated_log, tmp_path):
        columns, targets = generated_log
        table = extract_all(columns, targets, seed=1)["train"]
        write_features(table, tmp_path / "warm.csv")  # one-time allocations
        peak = traced_peak(lambda: write_features(table, tmp_path / "features.csv"))
        assert peak / table.x.size < WRITE_PEAK_BYTES_PER_VALUE, (
            f"{peak / table.x.size:.1f} bytes per value")

    def test_read_features_peak_per_table_byte(self, generated_log, tmp_path):
        columns, targets = generated_log
        path = tmp_path / "features.csv"
        write_features(extract_all(columns, targets, seed=1)["train"], path)
        read_features(path)  # one-time allocations
        tables = []
        peak = traced_peak(lambda: tables.append(read_features(path)))
        ratio = peak / table_bytes(tables[0])
        assert ratio < READ_PEAK_PER_TABLE_BYTE, f"{ratio:.2f} bytes per table byte"

    def test_read_holds_no_reference_to_the_columns(self, small_corpus):
        columns = SessionColumns(**{name: array.copy()
                                    for name, array in small_corpus.columns.arrays().items()})
        alive = [weakref.ref(array) for array in columns.arrays().values()]
        extraction = features.Extraction.read(columns, small_corpus.targets, seed=1)
        del columns
        assert not [ref for ref in alive if ref() is not None]
        assert extraction.rows.items is not None and len(extraction.targets["train"].ids) > 0

    def test_int64_codes_give_the_same_features(self, generated_log, monkeypatch):
        columns, targets = generated_log
        rows = contexts.index_rows(columns, rank_sessions(columns, 1))
        # int32 codes, with products of codes and slot counts that pass int32.
        assert rows.items.dtype == np.int32
        assert (len(rows.documents) + len(rows.domains)) * rows.items.size >= 2**31
        narrow = extract_all(columns, targets, seed=1)
        monkeypatch.setattr(contexts, "index_dtype", lambda size: np.dtype(np.int64))
        for role, table in extract_all(columns, targets, seed=1).items():
            assert_same_table(table, narrow[role])

    def test_int64_tallies_give_the_same_features(self, generated_log, monkeypatch):
        columns, targets = generated_log
        extraction = features.Extraction.read(columns, targets, seed=1)
        extraction.index()
        assert extraction.crowd.tallies.dtype == np.int32
        narrow = {role: features.extract_targets(extraction, role) for role in ROLES}
        monkeypatch.setattr(features, "tally_dtype", lambda n_rows: np.dtype(np.int64))
        for role, table in extract_all(columns, targets, seed=1).items():
            assert_same_table(table, narrow[role])
