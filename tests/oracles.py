"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles: the NDCG oracle
walks the gain/discount sum term by term, and the feature oracle rebuilds
contexts by scanning the raw sessions without any index, re-deriving the
twenty features directly from their definitions. None of it shares code
with the paths under test beyond the shared session ordering convention.
"""

from __future__ import annotations

import math

from persorank.partition import order_sessions


def oracle_ndcg(order, gains, cutoff=10):
    """Term-by-term NDCG: sum 2^gain - 1 over log2(rank + 1), normalized."""
    dcg = 0.0
    for rank_minus_1, doc in enumerate(order[:cutoff]):
        dcg += (2 ** gains[doc] - 1) / math.log(rank_minus_1 + 2, 2)
    ideal = 0.0
    for rank_minus_1, g in enumerate(sorted(gains, reverse=True)[:cutoff]):
        ideal += (2 ** g - 1) / math.log(rank_minus_1 + 2, 2)
    if ideal == 0:
        return 1.0
    return dcg / ideal


class OracleEntry:
    """One context entry: the target-relevant view of a past impression."""

    def __init__(self, terms, items, grades, day, session_id, time_passed):
        self.terms = terms
        self.items = list(items)
        self.grades = list(grades)
        self.day = day
        self.session_id = session_id
        self.time_passed = time_passed


def oracle_sim(a_terms, b_terms):
    a = set(a_terms)
    b = set(b_terms)
    if not a and not b:
        return 0.0
    inter = sum(1 for t in a if t in b)
    return inter / (len(a) + len(b) - inter)


def _entry_events(entry: OracleEntry, item):
    """(positions, clicked, skipped, missed, r_shown, r_clicked) for one entry."""
    positions = [i + 1 for i, it in enumerate(entry.items) if it == item]
    if not positions:
        return None
    clicked_positions = [p for p in positions if entry.grades[p - 1].clicked]
    all_clicks = [i + 1 for i, g in enumerate(entry.grades) if g.clicked]
    top = positions[0]
    clicked = bool(clicked_positions)
    skipped = (not clicked) and any(c > top for c in all_clicks)
    missed = (not clicked) and bool(all_clicks) and all(c < top for c in all_clicks)
    r_clicked = clicked_positions[0] if clicked else 0
    return positions, clicked, skipped, missed, top, r_clicked


def oracle_block(item, query_terms, entries):
    """The 20 context features, recomputed straight from the definitions."""
    slot_gains = []
    shown = []
    for entry in entries:
        events = _entry_events(entry, item)
        if events is None:
            continue
        positions, clicked, skipped, missed, top, r_clicked = events
        slot_gains.extend(entry.grades[p - 1].gain for p in positions)
        shown.append((entry, clicked, skipped, missed, top, r_clicked))

    g = [0.0] * 20
    g[0] = float(sum(slot_gains))
    if slot_gains:
        g[1] = sum(slot_gains) / len(slot_gains)
        g[2] = float(max(slot_gains))
        g[3] = float(min(slot_gains))

    clicked_sims = [oracle_sim(query_terms, e.terms) for e, c, s, m, _, _ in shown if c]
    skipped_sims = [oracle_sim(query_terms, e.terms) for e, c, s, m, _, _ in shown if s]
    missed_sims = [oracle_sim(query_terms, e.terms) for e, c, s, m, _, _ in shown if m]
    if clicked_sims:
        g[4] = sum(clicked_sims) / len(clicked_sims)
        g[5] = max(clicked_sims)
    if skipped_sims:
        g[6] = sum(skipped_sims) / len(skipped_sims)
        g[7] = max(skipped_sims)
    if missed_sims:
        g[8] = sum(missed_sims) / len(missed_sims)
        g[9] = max(missed_sims)

    g[10] = float(len(shown))
    g[11] = float(sum(1 for _, c, _, _, _, _ in shown if c))
    g[12] = float(sum(1 for _, _, s, _, _, _ in shown if s))
    g[13] = float(sum(1 for _, _, _, m, _, _ in shown if m))
    g[14] = sum(1.0 / top for _, _, _, _, top, _ in shown)
    g[15] = sum(1.0 / rc for _, c, _, _, _, rc in shown if c)
    clicked_ranks = [rc for _, c, _, _, _, rc in shown if c]
    if clicked_ranks:
        g[16] = float(max(clicked_ranks))
        g[17] = float(min(clicked_ranks))
    g[18] = sum(1.0 / top for _, _, s, _, top, _ in shown if s)
    g[19] = sum(1.0 / top for _, _, _, m, top, _ in shown if m)
    return g


class OracleScan:
    """Shared scan state: the tie-broken session order, flattened once.

    Ordering sessions is input plumbing shared with the pipeline; every
    target still pays a full linear scan over the flattened corpus.
    """

    def __init__(self, sessions, seed):
        self.ordered = order_sessions(sessions, seed)
        self.ranks = {}
        self.flat = []
        for uid, user_sessions in self.ordered.items():
            for rank, session in enumerate(user_sessions):
                self.ranks[(uid, session.session_id)] = rank
                for imp in session.impressions:
                    self.flat.append((uid, session.day, session.session_id, rank, imp))


def oracle_extract(scan: OracleScan, train_days, user_id, session_id, serp_id):
    """Index-free feature vectors for one target: scan everything, every time."""
    ranks = scan.ranks

    target_imp = None
    for session in scan.ordered[user_id]:
        if session.session_id == session_id:
            for imp in session.impressions:
                if imp.serp_id == serp_id:
                    target_imp = imp
    assert target_imp is not None
    target_key = (ranks[(user_id, session_id)], target_imp.time_passed)
    target_query = target_imp.query_id

    def entry(imp, day, sid, items):
        return OracleEntry(imp.terms, items, imp.labels, day, sid, imp.time_passed)

    c1, c3, c5 = [], [], []
    c2, c4, c6 = [], [], []
    for uid, day, sid, rank, imp in scan.flat:
        if day > train_days:
            continue
        if uid == user_id:
            if (rank, imp.time_passed) >= target_key:
                continue
            if imp.query_id == target_query:
                c1.append(entry(imp, day, sid, imp.documents))
                c2.append(entry(imp, day, sid, imp.domains))
            else:
                c3.append(entry(imp, day, sid, imp.documents))
                c4.append(entry(imp, day, sid, imp.domains))
        elif imp.query_id == target_query:
            c5.append(entry(imp, day, sid, imp.documents))
            c6.append(entry(imp, day, sid, imp.domains))

    sort_key = lambda e: (e.day, e.session_id, e.time_passed)  # noqa: E731
    for bucket in (c1, c2, c3, c4, c5, c6):
        bucket.sort(key=sort_key)

    vectors = []
    for pos, (doc, domain) in enumerate(zip(target_imp.documents, target_imp.domains)):
        values = []
        values.extend(oracle_block(doc, target_imp.terms, c1))
        values.extend(oracle_block(domain, target_imp.terms, c2))
        values.extend(oracle_block(doc, target_imp.terms, c3))
        values.extend(oracle_block(domain, target_imp.terms, c4))
        values.extend(oracle_block(doc, target_imp.terms, c5))
        values.extend(oracle_block(domain, target_imp.terms, c6))
        values.append(float(pos + 1))
        vectors.append(values)
    return vectors


def oracle_targets(sessions, train_days, seed):
    """user_id -> (train, validation, test) (session_id, serp_id) keys, None where absent.

    Read straight from the partition rules over each user's ordered sessions.
    """
    def relevant(imp):
        return any(g.gain > 0 for g in imp.labels)

    out = {}
    for user_id, user_sessions in order_sessions(sessions, seed).items():
        timeline = [(s, imp) for s in user_sessions for imp in s.impressions]
        train = [(s, imp) for s, imp in timeline if s.day <= train_days and relevant(imp)]
        test = ([(s, imp) for s, imp in timeline if imp.is_test] or [None])[-1]
        last = user_sessions[-1]
        if test is None and last.day > train_days and last.impressions:
            test = (last, last.impressions[-1])
        validation = None
        if test is not None:
            before = []
            for imp in test[0].impressions:
                if imp.time_passed >= test[1].time_passed:
                    break
                before.append(imp)
            qualified = [imp for imp in before if relevant(imp)]
            validation = (test[0], qualified[-1]) if qualified else None
        out[user_id] = tuple(None if found is None else (found[0].session_id, found[1].serp_id)
                             for found in (train[-1] if train else None, validation, test))
    return out


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central finite differences of a scalar loss over NetParams arrays."""
    import numpy as np

    grads = {}
    for name in ("w1", "b1", "w2"):
        arr = getattr(params, name)
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn(params)
            flat[i] = original - step
            down = loss_fn(params)
            flat[i] = original
            gflat[i] = (up - down) / (2 * step)
        grads[name] = grad
    original = params.b2
    params.b2 = original + step
    up = loss_fn(params)
    params.b2 = original - step
    down = loss_fn(params)
    params.b2 = original
    grads["b2"] = (up - down) / (2 * step)
    return grads
