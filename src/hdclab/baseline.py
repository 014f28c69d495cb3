"""Classical n-gram histogram baseline.

Reads text as the encoder does (``DataError`` outside the alphabet), counts
every length-n window with ``kernels.ngram_histogram`` into a dense
|alphabet|**n vector (19,683 buckets for trigrams over 27 symbols), and
classifies by maximum cosine similarity against per-language count
profiles. The reference point the hypervector classifier is judged against.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .encoder import DEFAULT_ALPHABET, code_table, normalize_text, symbol_codes
from .errors import ConfigurationError, TextTooShortError
from .pipeline import encode_test_sentences, score_report


class BaselineClassifier:
    """Per-label count profiles plus cosine-similarity classification."""

    def __init__(self, n: int = 3, alphabet: str = DEFAULT_ALPHABET):
        if n < 1:
            raise ValueError("n must be >= 1")
        code_table(alphabet)  # validates the alphabet
        self.num_buckets = len(alphabet) ** n
        if self.num_buckets > 2**24:  # keeps one int64 profile within 128 MiB
            raise ValueError(f"n={n} needs {self.num_buckets} buckets, over 2**24")
        self.n = n
        self.alphabet = alphabet
        self.labels: list = []
        self._profiles: dict = {}
        self._unit_rows = None

    def count_vector(self, text: str) -> np.ndarray:
        """int64 histogram of all sliding n-grams of the normalized text."""
        syms = symbol_codes(normalize_text(text), self.alphabet)
        if syms.shape[0] < self.n:
            raise TextTooShortError(
                f"need at least {self.n} symbols, got {syms.shape[0]}"
            )
        return kernels.ngram_histogram(syms, len(self.alphabet), self.n)

    def train(self, label, text: str):
        """Accumulate one training text into the label's profile."""
        vec = self.count_vector(text)
        if label not in self._profiles:
            self.labels.append(label)
        self._profiles[label] = self._profiles.get(label, 0) + vec
        self._unit_rows = None

    def profile(self, label) -> np.ndarray:
        """The label's int64 n-gram count vector."""
        try:
            return self._profiles[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def _units(self) -> np.ndarray:
        if self._unit_rows is None:
            if not self.labels:
                raise ConfigurationError("baseline classifier has no profiles")
            rows = np.vstack([self._profiles[lb] for lb in self.labels]).astype(np.float64)
            self._unit_rows = rows / np.linalg.norm(rows, axis=1)[:, None]
        return self._unit_rows

    def similarities(self, text: str) -> np.ndarray:
        """Cosine similarity of the text to every profile, in label order."""
        vec = self.count_vector(text).astype(np.float64)  # at least one window
        return self._units() @ (vec / np.linalg.norm(vec))

    def classify(self, text: str):
        """(label, cosine similarity) of the best profile; ties -> lowest index."""
        sims = self.similarities(text)
        i = int(np.argmax(sims))  # argmax takes the first maximum, our tie rule
        return self.labels[i], float(sims[i])


def baseline_train(corpus, n: int = 3, alphabet: str = DEFAULT_ALPHABET) -> BaselineClassifier:
    clf = BaselineClassifier(n, alphabet)
    for label, text in corpus.train_items():
        clf.train(label, text)
    return clf


def baseline_evaluate(clf: BaselineClassifier, corpus) -> dict:
    """Per-sentence accuracy report, same shape as the hypervector report.

    Negated cosine similarity serves as the distance: negation is exact and
    argmin takes the first minimum, so ties still go to the first label.
    """
    sims, true_idx, skipped = encode_test_sentences(clf.labels, corpus, clf.similarities)
    return {
        "classifier": "baseline",
        "n": clf.n,
        **score_report(-np.vstack(sims), true_idx, clf.labels, skipped),
    }
