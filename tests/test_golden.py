"""Golden outputs: sha256 digests of the files and reports a fixed seed produces.

The fixture corpus is ``synth_corpus(21, seed=0)`` with ``EncoderConfig()``,
and with ``deterministic_ties=True`` for the ``ties_to_1`` digests. The
``corpus`` digest pins the drawn texts themselves, so a change to the draw
shows before it reaches any model or report.
A refactor or speed-up must leave every digest here unchanged; a change that
alters an output on purpose updates the digest and says why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from hdclab import (EncoderConfig, baseline_evaluate, baseline_train, evaluate, fault_sweep,
                    load_model, save_model, train_pipeline)
from hdclab.pipeline import encode_test_set

from _oracles import ref_model_v1_of

GOLDEN = {
    # Every "label<TAB>text<LF>" line, train_items() then test_items() order.
    "corpus": "ab1ac2b25919fa4d7095ca1b387e7cb7368b8d7d4cc404498a167655b3821fb7",
    "model": "0cadebd4d67065be57038cc2d9061a9b3f52654402a76f2b2dad7a5508a151bb",
    "eval_multiclass": "ca6ae9fc1bab753989d10e7504706e6cff12f866728628b48a59dd6d2cc2f808",
    "eval_pairwise": "4b076b8c7008f1892e19b030a3bc3cb58381c286267d7cc0960b935279904042",
    "eval_baseline": "aa6f226b271097418f67accb5295826f041c4c79b30cdd71195fdf8434d090a4",
    "sweep_shared_multiclass": "fa4bdbf3843bafe5ff2eb64a12c073da7d39d15b4b1ed4d47d4747aa53174202",
    "sweep_shared_pairwise": "2b238027c36ed5f3da495a5828110dda5c8ab4060d6e72de8e3b8635629b1562",
    "sweep_independent_multiclass": "537e2c25bf33b4f73123cadbf3c3a7b17c656420783f0673211454cbd1dec8ea",
    # deterministic_ties=True: every tie is 1 under either tie scheme.
    "model_ties_to_1": "4d6e48465745448b1d5585d6ec243b431a40df5f1893159ad780c96e1c92527e",
    "queries_ties_to_1": "d4cc7f8049f325ca54e8a8c225bb7ae24eca13f8fab79d5757d4036f49f4119d",
}
# The same two models in model file format v1, which save_model wrote before
# format v2 and load_model still reads.
GOLDEN_V1 = {
    "model": "2d7213be816839e78e66830cf172db5f132d4ed93ef2a3953ff2a6e7a9f58ef9",
    "model_ties_to_1": "da570878e0d63bc962fa1fe76b222fd5dc2f3ed42e55ebf6cb54899cc7793bb2",
}
SWEEP_FRACTIONS = (0.0, 0.78)
SWEEP_TRIALS = 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report: dict) -> str:
    return sha256(json.dumps(report, sort_keys=True).encode("utf-8"))


def test_corpus_texts(synth):
    lines = [f"{label}\t{text}\n" for items in (synth.train_items(), synth.test_items())
             for label, text in items]
    assert sha256("".join(lines).encode("ascii")) == GOLDEN["corpus"]


def test_model_file(trained, tmp_path):
    path = tmp_path / "model.hdcm"
    save_model(trained, path)
    assert sha256(path.read_bytes()) == GOLDEN["model"]


def test_ties_to_1_model_and_queries(synth, tmp_path):
    model = train_pipeline(synth, EncoderConfig(dim=10000, deterministic_ties=True))
    path = tmp_path / "model.hdcm"
    save_model(model, path)
    assert sha256(path.read_bytes()) == GOLDEN["model_ties_to_1"]
    hvs, _, _ = encode_test_set(model, synth)
    assert sha256(b"".join(hv.words.tobytes() for hv in hvs)) == GOLDEN["queries_ties_to_1"]


@pytest.mark.parametrize("key", ["model", "model_ties_to_1"])
def test_v1_model_files(trained, synth, tmp_path, key):
    """The oracle's v1 bytes are the pinned v1 files, which load to the model
    the v2 file holds (60,570 bytes against 26,620), and re-save as v2."""
    model = trained
    if key == "model_ties_to_1":
        model = train_pipeline(synth, EncoderConfig(dim=10000, deterministic_ties=True))
    v1, v2, resaved = tmp_path / "v1.hdcm", tmp_path / "v2.hdcm", tmp_path / "resaved.hdcm"
    v1.write_bytes(ref_model_v1_of(model))
    save_model(model, v2)
    assert sha256(v1.read_bytes()) == GOLDEN_V1[key]
    assert (len(v1.read_bytes()), len(v2.read_bytes())) == (60570, 26620)
    from_v1, from_v2 = load_model(v1), load_model(v2)
    assert from_v1.labels == from_v2.labels and from_v1.config == from_v2.config
    assert np.array_equal(from_v1.memory.rows(), from_v2.memory.rows())
    save_model(from_v1, resaved)
    assert sha256(resaved.read_bytes()) == GOLDEN[key]


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
