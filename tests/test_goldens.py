"""sha256 goldens of a fixed-seed 40-user CLI run.

For fixed seeds the artifacts are the spec: the log and the generator's
counts, the session cache, the stats report, one query's ``index`` listing,
targets, the three feature files, the heuristic's scores, the evaluation
report, its summary and the two ``analyze`` histograms must stay
byte-identical unless a change means to alter them. Trained networks and
their scores are left out, because their last bits vary across BLAS builds.

After a deliberate output change, print the new digests with
``PYTHONPATH=src python tests/test_goldens.py`` and say in the change why
they moved.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from persorank.cli import main

GEN_OVERRIDES = [
    "-O", "n_users=40", "-O", "n_queries=300", "-O", "n_terms=200",
    "-O", "n_documents=1500", "-O", "n_domains=120",
    "-O", "preference_strength=0.9", "-O", "synth_seed=11",
]

LOOKUP_QUERY = 141  # the query with the most impressions in the golden log

GOLDENS = {
    "log.tsv": "eb24213cb57fc939baeb8e136e98c0453d952b86dd671c3d4d4a158e44d404a9",
    "log.tsv.counts.json": "40868e388080b3881a8bb17013c85e53e987ed412025bef402115be9abc36442",
    "sessions.cache": "73d219e5253b743ba1923eecd886db0fc27892798a0f0c1bbbb39656553c1b87",
    "stats.csv": "12263c63cda8ff61bab357558b88a8b9743edf27751a8171794c34a8e6e8204b",
    "index.txt": "14852305b647fbc56da2558fed566115a58aa38d70d529a2ba1db952d0751ed9",
    "targets.csv": "16b48fe0ad622f576b322ae4b290da9e657695682fe530a1b61d98c3a18884e1",
    "features_train.csv": "c0c9d4c3ad43651b2f5c1ea82ff6e32e5cea574d9b60fc7492d68baa65ece0cb",
    "features_validation.csv": "f817f2904fa175931b6b70bd1560bd2c9323dab084c7a07ebb7005d36c34de3e",
    "features_test.csv": "246da8e2d160d1828e5ba18986091f703f4ed1258120461a57312739566b8ae0",
    "scores_heuristic_validation.csv": "1acf493612f778b37e9479de3f597dc01d7152a8f4badc6d8e0a622a3dee4918",
    "scores_heuristic_test.csv": "712cd3915cfd3c68b24bf4f3cf1e533314a202f8e937bb16a95297e4ef8aca46",
    "report.csv": "ec6b0b47aebd7dd1e25a8d9c42429ddb4474a33d42cd46383993671f46682db3",
    "summary.csv": "2d3adc3c5326fec9eca2fcbd99d7e616af00d0251ea1b73d1e724c42fc023cf9",
    "tau_hist.csv": "30ce1a7dd1e60dd968d739070661359506c65a906954dbb30c27b515135dfdb1",
    "delta_ndcg_hist.csv": "8f06b5c337a8aae13ff2fd42101992d349ce3340a47b803f31aa2e0c3aa7b265",
}


def run_golden_pipeline(w: Path) -> dict[str, str]:
    """gen -> parse -> partition -> stats, index, extract -> heuristic score -> eval -> analyze;
    digests."""
    steps = [
        ["gen", "--out", f"{w}/log.tsv", *GEN_OVERRIDES],
        ["parse", "--log", f"{w}/log.tsv", "--out", f"{w}/sessions.cache"],
        ["partition", "--cache", f"{w}/sessions.cache", "--out", f"{w}/targets.csv",
         "--seed", "5"],
        ["stats", "--cache", f"{w}/sessions.cache", "--targets", f"{w}/targets.csv",
         "--out", f"{w}/stats.csv"],
        ["extract", "--cache", f"{w}/sessions.cache", "--targets", f"{w}/targets.csv",
         "--out-dir", str(w), "--seed", "5"],
        ["train", "--kind", "heuristic",
         "--train-features", f"{w}/features_train.csv",
         "--val-features", f"{w}/features_validation.csv",
         "--out", f"{w}/model_heuristic.json"],
        ["score", "--model", f"{w}/model_heuristic.json",
         "--features", f"{w}/features_validation.csv",
         "--out", f"{w}/scores_heuristic_validation.csv"],
        ["score", "--model", f"{w}/model_heuristic.json",
         "--features", f"{w}/features_test.csv",
         "--out", f"{w}/scores_heuristic_test.csv"],
        ["eval", "--scores", f"{w}/scores_heuristic_test.csv", "--out-dir", str(w),
         "--split-seed", "4"],
        ["analyze", "--report", f"{w}/report.csv", "--out-dir", str(w)],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        assert main(["index", "--cache", f"{w}/sessions.cache",
                     "--lookup", str(LOOKUP_QUERY)]) == 0
    (w / "index.txt").write_text(listing.getvalue())
    return {name: hashlib.sha256((w / name).read_bytes()).hexdigest() for name in GOLDENS}


def test_artifacts_match_goldens(tmp_path):
    assert run_golden_pipeline(tmp_path) == GOLDENS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for name, digest in run_golden_pipeline(Path(d)).items():
            print(f'    "{name}": "{digest}",', file=sys.stdout)
