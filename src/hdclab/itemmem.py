"""Item memory: fixed random seed vectors per symbol, plus clean-up search.

The memory is built once from a seed and never changes. Besides plain
lookup it answers clean-up queries: given a noisy hypervector, return the
most similar stored seed (minimum Hamming distance, ties to the lowest
entry index).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .algebra import Hypervector, RandomSource, random_hv


class ItemMemory:
    """Ordered symbol -> seed hypervector table, immutable after build."""

    def __init__(self, symbols, vectors, dim: int):
        symbols = list(symbols)
        if not symbols:
            raise ValueError("item memory needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbol in item memory")
        vectors = list(vectors)
        if len(vectors) != len(symbols):
            raise ValueError("one vector per symbol required")
        for v in vectors:
            if v.dim != dim:
                raise ValueError(f"vector dimension {v.dim} != memory dimension {dim}")
        self.dim = dim
        self._symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}
        self._matrix = np.vstack([v.words for v in vectors])
        self._matrix.setflags(write=False)

    @classmethod
    def build(cls, symbols, dim: int, seed: int) -> "ItemMemory":
        """Draw one random vector per symbol, sequentially from one seeded stream."""
        symbols = list(symbols)
        rng = RandomSource(seed)
        vectors = [random_hv(dim, rng) for _ in symbols]
        return cls(symbols, vectors, dim)

    @property
    def symbols(self) -> list:
        return list(self._symbols)

    def __len__(self):
        return len(self._symbols)

    def __contains__(self, symbol):
        return symbol in self._index

    def index_of(self, symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"unknown symbol: {symbol!r}") from None

    def lookup(self, symbol) -> Hypervector:
        """The stored seed vector for ``symbol`` (a view of its row); KeyError if absent."""
        return Hypervector(self.dim, self._matrix[self.index_of(symbol)])

    def words_matrix(self) -> np.ndarray:
        """All stored vectors as one packed (n_symbols, n_words) uint64 matrix."""
        return self._matrix

    def cleanup(self, query: Hypervector):
        """Most similar stored entry: returns (symbol, hamming distance)."""
        if query.dim != self.dim:
            raise ValueError(f"dimension mismatch: {query.dim} != {self.dim}")
        dists = kernels.hamming_many(self._matrix, query.words)
        best = int(np.argmin(dists))
        return self._symbols[best], int(dists[best])

    def __repr__(self):
        return f"ItemMemory({len(self)} symbols, dim={self.dim})"
