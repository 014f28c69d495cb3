"""Associative memory: one prototype hypervector per class label.

Training accumulates text vectors per label; the stored prototype is the
componentwise majority over everything added under that label. Classification
is a nearest-neighbor search in Hamming distance over the prototype rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import Accumulator, Hypervector, RandomSource, _tail_mask, n_words
from .errors import ConfigurationError


TIE_SEED = 3  # root of the prototype tie-breaking streams


class NotTrainedError(ConfigurationError):
    """Raised when classifying against a memory that has no prototypes."""


@dataclass(frozen=True)
class ClassificationResult:
    """Winning label with the full distance breakdown in stored order."""

    label: object
    distance: int
    all_distances: tuple  # ((label, distance), ...) in stored order


class AssociativeMemory:
    """Label -> prototype store with majority training and Hamming lookup."""

    def __init__(self, dim: int, deterministic_ties: bool = False):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.deterministic_ties = deterministic_ties
        self._tie_root = RandomSource(TIE_SEED)
        self._labels: list = []
        self._accs: dict | None = {}  # None once built from rows
        self._rows = None  # packed prototype matrix cache, rebuilt lazily

    @property
    def labels(self) -> list:
        return list(self._labels)

    def __len__(self):
        return len(self._labels)

    def __contains__(self, label):
        return label in self._labels

    def add(self, label, hv: Hypervector):
        """Fold one training vector into the label's accumulator."""
        if self._accs is None:
            raise ValueError("memory built from rows cannot resume training")
        if hv.dim != self.dim:
            raise ValueError(f"dimension mismatch: memory {self.dim}, vector {hv.dim}")
        if label not in self._accs:
            self._accs[label] = Accumulator(self.dim)
            self._labels.append(label)
        self._accs[label].add(hv)
        self._rows = None

    def _tie_rng(self, index: int) -> RandomSource | None:
        if self.deterministic_ties:
            return None
        # Keyed by stored slot so prototype bits never depend on how many
        # other labels exist or the order queries arrive.
        return self._tie_root.child(index)

    def prototype(self, label) -> Hypervector:
        """Thresholded majority vector for one label (a view of its row)."""
        return Hypervector(self.dim, self.rows()[self._require(label)])

    def rows(self) -> np.ndarray:
        """Packed (num_labels, n_words) prototype matrix, cached until training resumes."""
        if self._rows is None:
            if not self._labels:
                raise NotTrainedError("associative memory holds no prototypes")
            self._rows = np.vstack([acc.threshold(self._tie_rng(i)).words
                                    for i, acc in enumerate(self._accs.values())])
            self._rows.setflags(write=False)
        return self._rows

    def distances(self, query: Hypervector) -> np.ndarray:
        """Hamming distance from the query to every prototype, in label order."""
        if query.dim != self.dim:
            raise ValueError(f"dimension mismatch: memory {self.dim}, query {query.dim}")
        return kernels.hamming_many(self.rows(), query.words)

    def classify_full(self, query: Hypervector) -> ClassificationResult:
        """Classification plus every per-label distance."""
        d = self.distances(query)
        i = int(np.argmin(d))
        return ClassificationResult(
            label=self._labels[i],
            distance=int(d[i]),
            all_distances=tuple(zip(self._labels, (int(x) for x in d))),
        )

    def _require(self, label) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None

    @classmethod
    def from_rows(cls, labels, rows: np.ndarray, dim: int) -> "AssociativeMemory":
        """Rebuild a memory from stored prototype rows (loading, fault copies).

        Stores a read-only copy of the rows, bits past ``dim`` cleared, and no
        accumulators: the result classifies, but ``add`` raises ValueError.
        """
        labels = list(labels)
        rows = np.array(rows, dtype=np.uint64)
        if rows.ndim != 2 or rows.shape[0] != len(labels):
            raise ValueError("rows must be a (num_labels, n_words) matrix")
        if rows.shape[1] != n_words(dim):
            raise ValueError("row width does not match the dimension")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate label")
        if not labels:
            raise NotTrainedError("associative memory holds no prototypes")
        mem = cls(dim)
        rows[:, -1] &= _tail_mask(dim)
        rows.setflags(write=False)
        mem._labels, mem._accs, mem._rows = labels, None, rows
        return mem
