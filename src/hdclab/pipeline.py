"""End-to-end language identification: train on a corpus, evaluate a model.

A trained model is an encoder and one prototype hypervector per language:
the majority over the n-gram windows of all its training texts, as the paper
trains one accumulator per language. The test set has one front end,
``encode_test_sentences``: each sentence is normalized and coded once, and
those shorter than one n-gram are counted as skipped rather than failing the
run. Evaluation encodes the rest in one batched ``encode_symbols`` call and
scores the packed words as one distance matrix; the n-gram baseline counts
the same symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Hypervector
from .assocmem import AssociativeMemory, ClassificationResult
from .encoder import EncoderConfig, TextEncoder, normalize_text, symbol_codes
from .errors import ConfigurationError, DataError, TextTooShortError
from .faultlab import distance_matrix, pairwise_from_dmat


@dataclass
class TrainedModel:
    """Everything needed to classify text: the encoder and the prototypes."""

    encoder: TextEncoder
    memory: AssociativeMemory

    @property
    def config(self) -> EncoderConfig:
        return self.encoder.config

    @property
    def labels(self) -> list:
        return self.memory.labels

    def classify_text(self, text: str) -> ClassificationResult:
        return self.memory.classify_full(self.encoder.encode(text))


def train_pipeline(corpus, config: EncoderConfig | None = None) -> TrainedModel:
    """Encode all of each label's training texts into its one prototype.

    Labels are taken in ``corpus.labels`` (sorted) order, which fixes
    prototype row order; one with no training text is a ConfigurationError.
    Every label is encoded in one ``encode_each`` call, so all long texts
    share the contraction's passes.
    """
    if config is None:
        config = EncoderConfig()
    if not corpus.train:
        raise ConfigurationError("corpus has no training samples")
    labels = corpus.labels
    for label in labels:
        if not corpus.train[label]:
            raise ConfigurationError(f"label {label!r} has no training text")
    encoder = TextEncoder(config)
    try:
        prototypes = encoder.encode_each([corpus.train[label] for label in labels])
    except TextTooShortError as exc:
        raise TextTooShortError(f"training sample for {labels[exc.group]!r}: {exc}") from None
    memory = AssociativeMemory(config.dim)
    for label, prototype in zip(labels, prototypes):
        memory.add(label, prototype)
    return TrainedModel(encoder=encoder, memory=memory)


def encode_test_sentences(labels, corpus, n: int):
    """Normalize and code every test sentence once, in corpus order.

    Returns (symbols, true_idx, skipped): the uint8 alphabet indices of
    each sentence of at least n symbols, the int64 index into labels of
    each one's true label, and the count of sentences too short for one
    n-gram. A test label missing from labels raises ConfigurationError; a
    test set with no usable sentence, DataError.
    """
    label_index = {label: i for i, label in enumerate(labels)}
    for label in corpus.test:
        if label not in label_index:
            raise ConfigurationError(f"test label {label!r} not in the model")
    symbols, true_idx, skipped = [], [], 0
    for label, sentence in corpus.test_items():
        syms = symbol_codes(normalize_text(sentence))
        if syms.shape[0] < n:
            skipped += 1
            continue
        symbols.append(syms.astype(np.uint8))  # 27 symbols: one byte each
        true_idx.append(label_index[label])
    if not symbols:
        raise DataError("no usable test sentences")
    return symbols, np.array(true_idx, dtype=np.int64), skipped


def _encode_test_words(model: TrainedModel, corpus):
    """(words, true_idx, skipped): the (queries, words) matrix of the usable test sentences."""
    symbols, true_idx, skipped = encode_test_sentences(model.labels, corpus, model.config.n)
    return model.encoder.encode_symbols([[syms] for syms in symbols]), true_idx, skipped


def encode_test_set(model: TrainedModel, corpus):
    """(queries, true_idx, skipped): each usable test sentence encoded once as a Hypervector."""
    words, true_idx, skipped = _encode_test_words(model, corpus)
    return [Hypervector(model.config.dim, row) for row in words], true_idx, skipped


def score_report(dmat: np.ndarray, true_idx: np.ndarray, labels, skipped: int) -> dict:
    """Multiclass report over a (Q, C) distance matrix; ties go to the lower index.

    Row q of dmat holds query q's distance to each of labels and true_idx[q]
    the index of its true label. Every number is a plain Python int or float.
    """
    pred_idx = np.argmin(dmat, axis=1)
    per_language: dict = {}
    confusion: dict = {}
    for t, p in zip(true_idx.tolist(), pred_idx.tolist()):
        stats = per_language.setdefault(labels[t], {"total": 0, "correct": 0})
        stats["total"] += 1
        stats["correct"] += int(t == p)
        row = confusion.setdefault(labels[t], {})
        row[labels[p]] = row.get(labels[p], 0) + 1
    for stats in per_language.values():
        stats["accuracy"] = stats["correct"] / stats["total"]
    total = len(pred_idx)
    correct = sum(stats["correct"] for stats in per_language.values())
    return {
        "total": total,
        "correct": correct,
        "skipped_short": skipped,
        "accuracy": correct / total,
        "per_language": per_language,
        "confusion": confusion,
    }


def check_mode(model: TrainedModel, mode: str) -> None:
    """ConfigurationError unless mode is multiclass, or pairwise over two or more labels."""
    if mode not in ("multiclass", "pairwise"):
        raise ConfigurationError(f"unknown evaluation mode {mode!r}")
    if mode == "pairwise" and len(model.labels) < 2:
        raise ConfigurationError(
            f"pairwise mode needs at least two languages; the model has {len(model.labels)}")


def evaluate(model: TrainedModel, corpus, mode: str = "multiclass") -> dict:
    """Per-sentence accuracy report.

    multiclass scores the full argmin over all languages; pairwise scores
    every language pair on the sentences belonging to that pair and averages
    the 210 (for 21 languages) two-class accuracies.
    """
    check_mode(model, mode)
    query_words, true_idx, skipped = _encode_test_words(model, corpus)
    dmat = distance_matrix(model.memory.rows(), query_words)
    report = {
        "classifier": "hd",
        "mode": mode,
        "dim": model.config.dim,
        "n": model.config.n,
        **score_report(dmat, true_idx, model.labels, skipped),
    }
    if mode == "pairwise":
        report["pairwise_accuracy"] = pairwise_from_dmat(dmat, true_idx)
    return report
