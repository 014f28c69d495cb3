"""Associative memory: one prototype hypervector per class label.

The memory stores finished prototypes, one packed row per label in the order
they were added; training them (one majority over all of a label's n-gram
windows) is the encoder's job. Classification is a nearest-neighbor search in
Hamming distance over the prototype rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import Hypervector, _tail_mask, n_words
from .errors import ConfigurationError


class NotTrainedError(ConfigurationError):
    """Raised when classifying against a memory that has no prototypes."""


@dataclass(frozen=True, slots=True, eq=False)
class ClassificationResult:
    """Winning label and every distance: the memory's labels tuple, a read-only int64 array."""

    label: object
    distance: int
    labels: tuple
    distances: np.ndarray

    @property
    def all_distances(self) -> tuple:
        """((label, distance), ...) in stored order."""
        return tuple(zip(self.labels, self.distances.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ClassificationResult):
            return NotImplemented
        return (self.label, self.distance, self.all_distances) == (
                other.label, other.distance, other.all_distances)


class AssociativeMemory:
    """Label -> prototype store with Hamming lookup."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self._labels: tuple = ()
        self._rows = np.empty((0, n_words(dim)), dtype=np.uint64)

    @property
    def labels(self) -> list:
        return list(self._labels)

    def __len__(self):
        return len(self._labels)

    def __contains__(self, label):
        return label in self._labels

    def add(self, label, prototype: Hypervector):
        """Store the prototype of a new label as the next row."""
        if label in self._labels:
            raise ValueError(f"label {label!r} already has a prototype")
        if prototype.dim != self.dim:
            raise ValueError(f"dimension mismatch: memory {self.dim}, vector {prototype.dim}")
        rows = np.vstack([self._rows, prototype.words])
        rows.setflags(write=False)
        self._labels += (label,)
        self._rows = rows

    def prototype(self, label) -> Hypervector:
        """The stored vector for one label (a view of its row)."""
        return Hypervector(self.dim, self.rows()[self._require(label)])

    def rows(self) -> np.ndarray:
        """Read-only packed (num_labels, n_words) prototype matrix."""
        if not self._labels:
            raise NotTrainedError("associative memory holds no prototypes")
        return self._rows

    def distances(self, query: Hypervector) -> np.ndarray:
        """Hamming distance from the query to every prototype, in label order."""
        if query.dim != self.dim:
            raise ValueError(f"dimension mismatch: memory {self.dim}, query {query.dim}")
        return kernels.hamming_many(self.rows(), query.words)

    def classify_full(self, query: Hypervector) -> ClassificationResult:
        """Classification plus every per-label distance."""
        d = self.distances(query)
        d.setflags(write=False)
        i = int(np.argmin(d))
        return ClassificationResult(self._labels[i], int(d[i]), self._labels, d)

    def _require(self, label) -> int:
        try:
            return self._labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None

    @classmethod
    def from_rows(cls, labels, rows: np.ndarray, dim: int) -> "AssociativeMemory":
        """Build a memory from prototype rows in one step (training and the model loader).

        Stores a read-only copy of the rows with bits past ``dim`` cleared.
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
        mem._labels, mem._rows = tuple(labels), rows
        return mem
