import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from _oracles import ref_encode_texts

from hdclab import (
    DEFAULT_ALPHABET,
    Accumulator,
    ConfigurationError,
    Corpus,
    DataError,
    EncoderConfig,
    TextEncoder,
    TextTooShortError,
    TrainedModel,
    evaluate,
    synth_corpus,
    train_pipeline,
)
from hdclab.pipeline import encode_test_set, score_report


def tiny_corpus():
    corpus = Corpus()
    corpus.add_train("aa", "abc abc abcabc abca bcabc abc")
    corpus.add_train("bb", "xyz xyzxyz zyx xyzzy xyz yzx")
    corpus.add_test("aa", "abcabc abc")
    corpus.add_test("bb", "xyzxyz xyz")
    return corpus


def test_train_stores_sorted_labels():
    model = train_pipeline(tiny_corpus(), EncoderConfig(dim=2000))
    assert model.labels == ["aa", "bb"]
    assert len(model.memory) == 2


def test_trained_model_keeps_prototype_rows_only():
    model = train_pipeline(tiny_corpus(), EncoderConfig(dim=2000))
    assert [f.name for f in dataclasses.fields(TrainedModel)] == ["encoder", "memory"]
    assert model.config is model.encoder.config and model.labels == model.memory.labels
    for label, (text,) in tiny_corpus().train.items():
        # One sample: its prototype is its vector.
        assert model.memory.prototype(label) == model.encoder.encode(text)


def test_two_text_label_is_one_majority_over_both_texts():
    texts = ["abc abd abc", "dab cab abca", "bad cab"]
    corpus = Corpus(train={"aa": texts[:2], "bb": texts[2:]})
    model = train_pipeline(corpus, EncoderConfig(dim=64, item_seed=3, deterministic_ties=True))
    seed_bits = {ch: list(model.encoder.item_memory.lookup(ch).to_bits())
                 for ch in DEFAULT_ALPHABET}
    want = ref_encode_texts(texts[:2], 3, seed_bits, tie_value=1)
    assert list(model.memory.prototype("aa").to_bits()) == want
    assert model.memory.prototype("aa") == model.encoder.encode(*texts[:2])
    # No window spans the two texts: encoding them joined counts other windows.
    assert ref_encode_texts([" ".join(texts[:2])], 3, seed_bits) != want


def test_label_without_training_text_is_named():
    with pytest.raises(ConfigurationError, match="'x' has no training text"):
        train_pipeline(Corpus(train={"x": [], "y": ["abc abc abc"]}), EncoderConfig(dim=500))


def test_empty_corpus_rejected():
    with pytest.raises(ConfigurationError):
        train_pipeline(Corpus(), EncoderConfig(dim=500))


def test_short_training_sample_names_label():
    corpus = Corpus()
    corpus.add_train("xx", "ab")
    with pytest.raises(TextTooShortError, match="xx"):
        train_pipeline(corpus, EncoderConfig(dim=500))
    corpus = tiny_corpus()
    corpus.add_train("bb", "zy")  # the second label's second text
    with pytest.raises(TextTooShortError, match="training sample for 'bb': need at least 3"):
        train_pipeline(corpus, EncoderConfig(dim=500))


def test_training_is_single_pass(monkeypatch):
    corpus = tiny_corpus()
    corpus.add_train("aa", "cab bac cab")
    read, thresholds = [], []
    symbol_indices, threshold = TextEncoder.symbol_indices, Accumulator.threshold

    def counting_symbol_indices(self, text):
        read.append(text)
        return symbol_indices(self, text)

    def counting_threshold(self, rng=None):
        thresholds.append(self.items_added)
        return threshold(self, rng)

    monkeypatch.setattr(TextEncoder, "symbol_indices", counting_symbol_indices)
    monkeypatch.setattr(Accumulator, "threshold", counting_threshold)
    train_pipeline(corpus, EncoderConfig(dim=1000))
    assert read == [text for _, text in corpus.train_items()]
    # One majority per label, over the windows of all its texts.
    assert thresholds == [27 + 9, 26]


def test_classify_text():
    model = train_pipeline(tiny_corpus(), EncoderConfig(dim=4000))
    res = model.classify_text("abc abcabc abc")
    assert res.label == "aa"
    assert len(res.all_distances) == 2


def test_self_evaluation_is_perfect():
    corpus = tiny_corpus()
    # test on the training texts themselves
    selfcheck = Corpus(train=corpus.train,
                       test={lb: list(ts) for lb, ts in corpus.train.items()})
    model = train_pipeline(corpus, EncoderConfig(dim=4000))
    report = evaluate(model, selfcheck)
    assert report["accuracy"] == 1.0


def test_single_sentence_report():
    corpus = tiny_corpus()
    corpus.test = {"aa": ["abc abc"]}
    model = train_pipeline(corpus, EncoderConfig(dim=2000))
    report = evaluate(model, corpus)
    assert report["total"] == 1
    assert report["accuracy"] in (0.0, 1.0)


def test_unknown_test_label_rejected():
    corpus = tiny_corpus()
    corpus.test["cc"] = ["some sentence"]
    model = train_pipeline(corpus, EncoderConfig(dim=2000))
    with pytest.raises(ConfigurationError, match="cc"):
        evaluate(model, corpus)


def test_short_sentences_counted_as_skipped():
    corpus = tiny_corpus()
    corpus.test["aa"].append("ab")
    model = train_pipeline(corpus, EncoderConfig(dim=2000))
    report = evaluate(model, corpus)
    assert report["skipped_short"] == 1
    assert report["total"] == 2


def test_encode_test_set_counts_skipped():
    corpus = tiny_corpus()
    corpus.test["aa"].append("ab")
    model = train_pipeline(corpus, EncoderConfig(dim=2000))
    queries, true_idx, skipped = encode_test_set(model, corpus)
    assert [q.dim for q in queries] == [2000, 2000]
    assert true_idx.tolist() == [0, 1]
    assert true_idx.dtype == np.int64
    assert skipped == 1


def test_no_usable_test_sentences_is_data_error():
    corpus = tiny_corpus()
    corpus.test = {"aa": ["ab"], "bb": ["x"]}
    model = train_pipeline(corpus, EncoderConfig(dim=1000))
    with pytest.raises(DataError, match="no usable test sentences"):
        encode_test_set(model, corpus)
    with pytest.raises(DataError, match="no usable test sentences"):
        evaluate(model, corpus)


def test_score_report_tie_rule_and_plain_types():
    dmat = np.array([[3, 3], [5, 2], [1, 4]], dtype=np.int64)
    report = score_report(dmat, np.array([0, 0, 1]), ["a", "b"], skipped=2)
    assert report == {
        "total": 3, "correct": 1, "skipped_short": 2, "accuracy": 1 / 3,
        "per_language": {"a": {"total": 2, "correct": 1, "accuracy": 0.5},
                         "b": {"total": 1, "correct": 0, "accuracy": 0.0}},
        "confusion": {"a": {"a": 1, "b": 1}, "b": {"a": 1}},
    }
    assert type(report["total"]) is int and type(report["correct"]) is int
    assert type(report["confusion"]["a"]["a"]) is int
    assert type(report["per_language"]["a"]["correct"]) is int


def test_bad_mode():
    model = train_pipeline(tiny_corpus(), EncoderConfig(dim=1000))
    with pytest.raises(ConfigurationError):
        evaluate(model, tiny_corpus(), mode="zigzag")


def test_pairwise_report_contains_both_metrics(synth, trained):
    report = evaluate(trained, synth, mode="pairwise")
    assert "pairwise_accuracy" in report
    assert report["pairwise_accuracy"] >= report["accuracy"] - 0.01


def test_deterministic_retraining(synth, trained):
    again = train_pipeline(synth, EncoderConfig(dim=10000))
    assert np.array_equal(again.memory.rows(), trained.memory.rows())


def test_confusion_matrix_sums(synth, trained):
    report = evaluate(trained, synth)
    total = sum(sum(row.values()) for row in report["confusion"].values())
    assert total == report["total"] == 630


def _training_peak(corpus, config):
    """tracemalloc peak, in bytes, of one train_pipeline call."""
    gc.collect()
    tracemalloc.start()
    try:
        train_pipeline(corpus, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_is_bounded_by_pass_not_by_texts():
    # The benchmark corpus: 21 x 20k chars at D = 10000. An item seed no other
    # test uses, so the seed tables are built, and counted, inside the call.
    corpus = synth_corpus(seed=1, num_languages=21, train_chars=20000,
                          test_sentences=30, sentence_chars=100)
    config = EncoderConfig(dim=10000, item_seed=2016)
    peak = _training_peak(corpus, config)
    assert peak <= 4 * 2**20
    # Four times as many long texts, each label's text cut in four (each
    # part still contracts): the contraction passes stay as large.
    quarters = {label: [text[i * 5000 : (i + 1) * 5000] for i in range(4)]
                for label, (text,) in corpus.train.items()}
    assert all(len(t) - 2 >= -(-27**3 // 4) for ts in quarters.values() for t in ts)
    assert _training_peak(Corpus(train=quarters), config) <= peak
