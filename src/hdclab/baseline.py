"""Classical n-gram histogram baseline, the reference for the hypervector classifier.

Reads text through the encoder's ``code_texts`` and counts its length-n windows
by base-27 code (``kernels.ngram_codes``). A language's profile counts all its
training windows over the sorted training vocabulary; a text goes to the most
cosine-similar one.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .encoder import DEFAULT_ALPHABET, code_texts, group_windows
from .encoder import normalize_text  # noqa: F401  (perfbench/test_harness.py checks this binding)
from .errors import ConfigurationError, TextTooShortError
from .pipeline import encode_test_sentences, score_report


class BaselineClassifier:
    """L2-normalized count profiles, built once from ``{label: texts}``.

    ``vocabulary``: sorted training n-gram codes; ``units``: (labels, vocabulary) float64.
    """

    def __init__(self, texts_by_label: dict, n: int = 3):
        if n < 1:
            raise ValueError("n must be >= 1")
        # Memory is set by the training windows, not by 27**n; the cap keeps n
        # where the baseline is compared and its int64 codes far from overflow.
        if len(DEFAULT_ALPHABET) ** n > 2**24:
            raise ValueError(f"n={n} has {len(DEFAULT_ALPHABET) ** n} n-grams, over 2**24")
        self.n = n
        self.labels = list(texts_by_label)
        if not self.labels:
            raise ConfigurationError("baseline classifier has no profiles")
        counted = []
        for label, texts in texts_by_label.items():
            if not texts:
                raise ConfigurationError(f"label {label!r} has no training text")
            try:
                counted.append(self.count_vector(*texts))
            except TextTooShortError as exc:
                raise TextTooShortError(f"training sample for {label!r}: {exc}") from None
        self.vocabulary = np.unique(np.concatenate([codes for codes, _ in counted]))
        self.units = np.zeros((len(self.labels), self.vocabulary.shape[0]))
        for row, (codes, counts) in zip(self.units, counted):
            row[np.searchsorted(self.vocabulary, codes)] = counts / np.linalg.norm(counts)

    def count_vector(self, *texts: str):
        """Sorted unique n-gram codes and counts over the texts; no window spans two."""
        group = code_texts(texts)
        group_windows(group[1], self.n)  # raises on a text shorter than n
        return self._count(group)

    def _count(self, group):
        """Sorted unique n-gram codes and counts over a ``(syms, ends)`` group
        whose texts have n or more symbols each."""
        codes = [kernels.ngram_codes(syms, len(DEFAULT_ALPHABET), self.n)
                 for syms in kernels.streams(group)]
        return np.unique(np.concatenate(codes), return_counts=True)

    def similarities(self, text: str) -> np.ndarray:
        """Cosine similarity of the text to every profile, in label order.

        N-grams outside the vocabulary count only toward the text's norm.
        """
        return self._cosines(*self.count_vector(text))  # at least one window

    def _cosines(self, codes, counts) -> np.ndarray:
        """Cosine similarity of one text's n-gram counts to every profile."""
        idx = np.searchsorted(self.vocabulary, codes)
        seen = self.vocabulary.take(idx, mode="clip") == codes
        return self.units[:, idx[seen]] @ (counts[seen] / np.linalg.norm(counts))

    def classify(self, text: str):
        """(label, cosine similarity) of the best profile; ties -> lowest index."""
        sims = self.similarities(text)
        i = int(np.argmax(sims))  # argmax takes the first maximum, our tie rule
        return self.labels[i], float(sims[i])


def baseline_train(corpus, n: int = 3) -> BaselineClassifier:
    return BaselineClassifier({label: corpus.train[label] for label in corpus.labels}, n)


def baseline_evaluate(clf: BaselineClassifier, corpus) -> dict:
    """Per-sentence accuracy report, same shape as the hypervector report.

    Negated cosine similarity serves as the distance: negation is exact and
    argmin takes the first minimum, so ties still go to the first label.
    """
    groups, true_idx, skipped = encode_test_sentences(clf.labels, corpus, clf.n)
    sims = np.vstack([clf._cosines(*clf._count(group)) for group in groups])
    return {
        "classifier": "baseline",
        "n": clf.n,
        **score_report(-sims, true_idx, clf.labels, skipped),
    }
