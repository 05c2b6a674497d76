import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persorank import features
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
    extract_targets,
    read_features,
    similarity,
    write_features,
)
from persorank.logs import DataError, Grade, Impression, Session, SessionColumns
from persorank.partition import TargetSet

from oracles import OracleEntry, _entry_events, oracle_block, oracle_sim


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
        assert (table.user_ids.tolist(), table.session_ids.tolist()) == ([9], [4])

    def test_vector_length_everywhere(self, small_corpus):
        extracted = extract_targets(
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
        extracted = extract_targets(
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
        extracted = extract_targets(
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
        labeled = extract_targets(small_corpus.columns, small_corpus.targets, **kwargs)["test"]
        table = extract_targets(SessionColumns.of(sessions), small_corpus.targets, **kwargs)["test"]
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
        a = extract_targets(small_corpus.columns, small_corpus.targets, **kwargs)
        b = extract_targets(small_corpus.columns, small_corpus.targets, **kwargs)
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
        before = extract_targets(small_corpus.columns, small_corpus.targets, **kwargs)
        after = extract_targets(SessionColumns.of(sessions), small_corpus.targets, **kwargs)
        for role, b in before.items():
            a = after[role]
            assert a.n_targets == b.n_targets > 0
            for ids in ("user_ids", "session_ids", "serp_ids"):
                assert np.array_equal(getattr(a, ids), getattr(b, ids))
            assert a.query_ids.tolist() == [relabel(q) for q in b.query_ids.tolist()]
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
        ids = rng.integers(-2**62, 2**62, (4, n_targets))
        return FeatureTable(*ids, doc_ids=rng.integers(-2**62, 2**62, (n_targets, 10)), x=x,
                            base_ranks=x[..., -1].copy(),
                            gains=rng.integers(0, 3, (n_targets, 10)) * 1.0 if labeled else None)

    @staticmethod
    def expected_bytes(table):
        """The file, formatted one value at a time with `repr`."""
        lines = [",".join(HEADER)]
        for t in range(table.n_targets):
            ids = [table.user_ids[t], table.query_ids[t], table.session_ids[t], table.serp_ids[t]]
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
            user_ids=np.array([1, 1]), query_ids=np.array([2, 2]), session_ids=np.array([3, 3]),
            serp_ids=np.array([0, 1]), doc_ids=np.arange(20).reshape(2, 10), x=x,
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
    got = extract_targets(SessionColumns.of(sessions), TargetSet(test=np.array(refs)),
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


def exact_crowd_values(sessions, user_id, imp, train_days=27):
    """Contexts 5-6 of a target, (10, 40), from other users' training rows of its query."""
    others = [(s, other) for s in sessions for other in s.impressions
              if s.user_id != user_id and s.day <= train_days and other.query_id == imp.query_id]

    def entries(items):
        return [OracleEntry(other.terms, items(other), other.labels, s.day, s.session_id,
                            other.time_passed) for s, other in others]

    # A document listed twice counts at its last slot only.
    documents = entries(lambda other: [None if d in other.documents[i + 1:] else d
                                       for i, d in enumerate(other.documents)])
    domains = entries(lambda other: other.domains)
    return [exact_block(doc, imp.terms, documents) + exact_block(domain, imp.terms, domains)
            for doc, domain in zip(imp.documents, imp.domains)]


class TestColumnar:
    def test_matches_scalar_on_every_small_corpus_target(self, small_corpus):
        kwargs = dict(train_days=small_corpus.train_days, seed=small_corpus.partition_seed)
        extracted = extract_targets(small_corpus.columns, small_corpus.targets, **kwargs)
        checked = 0
        for role in ("train", "validation", "test"):
            refs = sorted(map(tuple, small_corpus.targets.by_role(role).tolist()))
            want = scalar_table(small_corpus.sessions, refs, **kwargs)
            assert_same_table(extracted[role], want)
            checked += len(refs)
        assert checked > 50

    def test_chunk_size_does_not_change_features(self, small_corpus, monkeypatch):
        def extract():
            return extract_targets(
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
        got = extract_targets(SessionColumns.of(sessions), TargetSet(test=np.array(refs)),
                              train_days=27, seed=0)["test"]
        assert_same_table(got, scalar_table(sessions, refs, 27, 0))
        lookup = {(s.user_id, s.session_id, imp.serp_id): imp
                  for s in sessions for imp in s.impressions}
        for ref, values in zip(refs, got.x):
            want = exact_crowd_values(sessions, ref[0], lookup[ref])
            assert values[:, 80:120].tolist() == want

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

    def test_session_listing_impressions_out_of_time_order(self):
        # Context 1's rows add up in index order, by time within a session, not in
        # list order. Context 5's sum is exact, so it shows no order.
        docs = list(range(10))

        def latest_first():
            return [serp(k, docs, docs, {1: Grade.R1}, terms=range(1, 4 - k), time=80 - 40 * k)
                    for k in range(3)]

        values = check_hand_built([Session(1, 1, 1, latest_first()),
                                   Session(2, 2, 1, latest_first())], 1,
                                  serp(9, docs, docs, terms=range(1, 11)))
        assert block(values, 1)[0, 4] == (0.1 + 0.2 + 0.3) / 3 != (0.3 + 0.2 + 0.1) / 3
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
        sessions = [
            Session(k + 1, user, k + 1, [serp(0, docs, [d % 4 for d in docs])])
            for k, (user, docs) in enumerate([
                (2, list(range(10))), (3, [5, 6, 0, 7, 8, 9, 1, 2, 3, 4]), (4, list(range(10)))])
        ]
        values = check_hand_built(sessions, 1, serp(1, range(10), [d % 4 for d in range(10)]))
        # Document 0 is shown at ranks 1, 3 and 1, in row order.
        assert block(values, 5)[0, 14] == float(Fraction(7, 3)) != 1.0 + 1 / 3 + 1.0

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
        # Union sizes 1 to 45 have an lcm above 2**53, so exact means would not fit.
        docs = list(range(10))
        sessions = [Session(k, 1 + k, k % 27 + 1, [serp(0, docs, docs, {1: Grade.R1},
                                                         terms=range(1, k + 1))])
                    for k in range(1, 46)]
        with pytest.raises(OverflowError, match="2\\*\\*53"):
            check_hand_built(sessions, 1, serp(1, docs, docs, terms=(1,)))

    def test_log_without_training_rows(self):
        values = check_hand_built([Session(1, 2, 29, [serp(0, range(10), range(10))])], 1,
                                  serp(1, range(10), range(10)))
        assert not values[:, :120].any()
