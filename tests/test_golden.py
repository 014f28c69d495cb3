"""Golden outputs: sha256 digests of the files and reports a fixed seed produces.

The fixture corpus is ``synth_corpus(21, seed=0)`` with ``EncoderConfig()``.
A refactor or speed-up must leave every digest here unchanged; a change that
alters an output on purpose updates the digest and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from hdclab import baseline_evaluate, baseline_train, evaluate, fault_sweep, save_model

GOLDEN = {
    "model": "933e4c0730467eaa0e3840ecbf18dd61c86d10e6e6ead874919a7781295e4160",
    "eval_multiclass": "ca6ae9fc1bab753989d10e7504706e6cff12f866728628b48a59dd6d2cc2f808",
    "eval_pairwise": "4b076b8c7008f1892e19b030a3bc3cb58381c286267d7cc0960b935279904042",
    "eval_baseline": "aa6f226b271097418f67accb5295826f041c4c79b30cdd71195fdf8434d090a4",
    "sweep_shared_multiclass": "89d5a744184c038c413cee37ad2cb5aec5c2adf3f3787fe708d25ce86c137733",
    "sweep_shared_pairwise": "5aa355f29a9ca9d7a0d7818a39f94e4a68a86f1dc8da0165e45c7573ac54f407",
    "sweep_independent_multiclass": "b3412325ef2120c055d1688d1c7e9ab9a8eb4a3f915e104d484624c6541d1f90",
}
SWEEP_FRACTIONS = (0.0, 0.78)
SWEEP_TRIALS = 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report: dict) -> str:
    return sha256(json.dumps(report, sort_keys=True).encode("utf-8"))


def test_model_file(trained, tmp_path):
    path = tmp_path / "model.hdcm"
    save_model(trained, path)
    assert sha256(path.read_bytes()) == GOLDEN["model"]


@pytest.mark.parametrize("mode", ["multiclass", "pairwise"])
def test_eval_report(trained, synth, mode):
    assert report_digest(evaluate(trained, synth, mode=mode)) == GOLDEN[f"eval_{mode}"]


def test_baseline_report(synth):
    report = baseline_evaluate(baseline_train(synth), synth)
    assert report_digest(report) == GOLDEN["eval_baseline"]


@pytest.mark.parametrize("shared,mode", [
    (True, "multiclass"), (True, "pairwise"), (False, "multiclass"),
])
def test_sweep_csv(trained, queries, tmp_path, shared, mode):
    hvs, true_idx = queries
    result = fault_sweep(trained.memory.rows(), hvs, true_idx, SWEEP_FRACTIONS,
                         SWEEP_TRIALS, mode=mode, shared=shared, seed=0)
    path = tmp_path / "sweep.csv"
    result.write_csv(path)
    kind = "shared" if shared else "independent"
    assert sha256(path.read_bytes()) == GOLDEN[f"sweep_{kind}_{mode}"]
