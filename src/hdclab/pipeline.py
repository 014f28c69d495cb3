"""End-to-end language identification: train on a corpus, evaluate a model.

A trained model is an encoder and one prototype hypervector per language:
the majority over the n-gram windows of all its training texts, as the paper
trains one accumulator per language. The test set has one front end,
``encode_test_sentences``: every sentence is normalized and coded by one
``code_texts`` call, and those shorter than one n-gram are counted as
skipped rather than failing the run. Evaluation encodes the rest in one
batched ``encode_symbols`` call and scores the packed words as one distance
matrix; the n-gram baseline counts the same groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Hypervector
from .assocmem import AssociativeMemory, ClassificationResult
from .encoder import EncoderConfig, TextEncoder, code_texts
from .errors import ConfigurationError, DataError, TextTooShortError
from .faultlab import distance_matrix, pairwise_from_dmat

# Most test sentences one run scores, 25 times the paper's 20,000-plus:
# evaluating holds about 2.7 kB a sentence at D = 10000 (the query row and
# its group; tracemalloc on 3-char sentences), so about 1.4 GB at the bound.
MAX_TEST_SENTENCES = 2**19


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
    Each label's texts are one group, all encoded in one ``encode_symbols``
    call (so labels of many windows share contractions) into the memory's rows.
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
        rows = encoder.encode_symbols([encoder.symbol_indices(*corpus.train[lb]) for lb in labels])
    except TextTooShortError as exc:
        raise TextTooShortError(f"training sample for {labels[exc.group]!r}: {exc}") from None
    memory = AssociativeMemory.from_rows(labels, rows, config.dim)
    return TrainedModel(encoder=encoder, memory=memory)


def encode_test_sentences(labels, corpus, n: int):
    """Code every test sentence once, in one ``code_texts`` call, in corpus order.

    Returns (groups, true_idx, skipped): the one-text ``(syms, ends)`` group
    of each sentence of at least n symbols, a view of the call's buffer, the
    int64 index into labels of each one's true label, and the count of
    sentences too short for one n-gram. A test label missing from labels
    raises ConfigurationError; a test set of no usable sentence or of more
    than ``MAX_TEST_SENTENCES``, DataError, the latter before any coding.
    """
    label_index = {label: i for i, label in enumerate(labels)}
    for label in corpus.test:
        if label not in label_index:
            raise ConfigurationError(f"test label {label!r} not in the model")
    count = sum(map(len, corpus.test.values()))
    if count > MAX_TEST_SENTENCES:
        raise DataError(f"test set holds {count} sentences, over {MAX_TEST_SENTENCES}")
    items = list(corpus.test_items())
    syms, ends = code_texts([sentence for _, sentence in items])
    groups, true_idx, lo = [], [], 0
    for (label, _), hi in zip(items, ends):
        if hi - lo >= n:
            groups.append((syms[lo:hi], [hi - lo]))
            true_idx.append(label_index[label])
        lo = hi
    skipped = len(items) - len(groups)
    if not groups:
        raise DataError("no usable test sentences")
    return groups, np.array(true_idx, dtype=np.int64), skipped


def _encode_test_words(model: TrainedModel, corpus):
    """(words, true_idx, skipped): the (queries, words) matrix of the usable test sentences."""
    groups, true_idx, skipped = encode_test_sentences(model.labels, corpus, model.config.n)
    return model.encoder.encode_symbols(groups), true_idx, skipped


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
