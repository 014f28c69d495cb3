"""Classical n-gram histogram baseline.

Counts every length-n window of a text into a dense vector of size
|alphabet|**n (19,683 buckets for trigrams over 27 symbols) and classifies
by maximum cosine similarity against per-language count profiles. The
reference point the hypervector classifier is judged against.
"""

from __future__ import annotations

import numpy as np

from .encoder import DEFAULT_ALPHABET, normalize_text
from .errors import ConfigurationError, TextTooShortError
from .pipeline import encode_test_sentences, score_report


class BaselineProfile:
    """Dense n-gram count vector for one language."""

    def __init__(self, counts: np.ndarray):
        if counts.ndim != 1 or np.any(counts < 0):
            raise ValueError("counts must be a 1-d non-negative vector")
        self.counts = counts
        self.total = int(counts.sum())

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes


class BaselineClassifier:
    """Per-label count profiles plus cosine-similarity classification."""

    def __init__(self, n: int = 3, alphabet: str = DEFAULT_ALPHABET):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.num_buckets = len(alphabet) ** n
        if self.num_buckets > 2**24:  # keeps one int64 profile within 128 MiB
            raise ValueError(f"n={n} needs {self.num_buckets} buckets, over 2**24")
        self.n = n
        self.alphabet = alphabet
        self._sym_index = {ch: i for i, ch in enumerate(alphabet)}
        self._powers = np.array(
            [len(alphabet) ** (n - 1 - j) for j in range(n)], dtype=np.int64
        )
        self.labels: list = []
        self._profiles: dict = {}
        self._unit_rows = None

    def count_vector(self, text: str, normalize: bool = True) -> np.ndarray:
        """Histogram of all sliding n-grams of the text."""
        if normalize:
            text = normalize_text(text)
        try:
            syms = np.array([self._sym_index[ch] for ch in text], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"symbol {exc.args[0]!r} is not in the alphabet") from None
        if syms.shape[0] < self.n:
            raise TextTooShortError(
                f"need at least {self.n} symbols, got {syms.shape[0]}"
            )
        windows = np.lib.stride_tricks.sliding_window_view(syms, self.n)
        idx = windows @ self._powers
        return np.bincount(idx, minlength=self.num_buckets).astype(np.int64)

    def train(self, label, text: str):
        """Accumulate one training text into the label's profile."""
        vec = self.count_vector(text)
        if label in self._profiles:
            self._profiles[label] = BaselineProfile(self._profiles[label].counts + vec)
        else:
            self._profiles[label] = BaselineProfile(vec)
            self.labels.append(label)
        self._unit_rows = None

    def profile(self, label) -> BaselineProfile:
        try:
            return self._profiles[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def _units(self) -> np.ndarray:
        if self._unit_rows is None:
            if not self.labels:
                raise ConfigurationError("baseline classifier has no profiles")
            rows = np.vstack(
                [self._profiles[lb].counts for lb in self.labels]
            ).astype(np.float64)
            norms = np.linalg.norm(rows, axis=1)
            norms[norms == 0] = 1.0
            self._unit_rows = rows / norms[:, None]
        return self._unit_rows

    def similarities(self, text: str) -> np.ndarray:
        """Cosine similarity of the text to every profile, in label order."""
        vec = self.count_vector(text).astype(np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return self._units() @ vec

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
