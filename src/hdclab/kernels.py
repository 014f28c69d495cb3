"""Hot numeric kernels, written in numpy.

Word layout: hypervectors are packed into uint64 words, bit ``i`` living in
word ``i // 64`` at bit ``i % 64``. The kernels take that layout;
``accumulate_ngrams`` unpacks bits only to count them. ``hamming_bitloop``
is the per-bit reference over unpacked uint8 bit arrays that the word-wise
kernels are tested and benchmarked against (``python -m hdclab.bench``).
"""

from __future__ import annotations

import numpy as np

# Windows gathered per step of accumulate_ngrams; bounds each (chunk, dim)
# uint8 temporary to about 41 MB at D = 10000.
NGRAM_CHUNK = 4096


def backend() -> str:
    """Name of the kernel backend, recorded in benchmark environments."""
    return "numpy"


def popcount_words(words) -> int:
    return int(np.bitwise_count(words).sum())


def hamming_words(a, b) -> int:
    """Hamming distance between two packed uint64 word arrays."""
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def hamming_many(rows, q):
    """Distances from packed query ``q`` to every row of packed matrix ``rows``."""
    return np.bitwise_count(np.bitwise_xor(rows, q[np.newaxis, :])).sum(
        axis=1, dtype=np.int64
    )


def accumulate_ngrams(table, syms, counts):
    """Accumulate all sliding n-gram hypervectors of a symbol stream.

    ``table`` is the pre-rotated alphabet as packed words, shape (n, n_symbols,
    n_words) uint64; ``table[j][s]`` is the vector used when symbol ``s`` sits
    at window position ``j``. Each block of windows is XOR-folded as words and
    unpacked once to add its bits into ``counts`` (int64, dim); returns k.
    """
    n = table.shape[0]
    dim = counts.shape[0]
    k = syms.shape[0] - n + 1
    for lo in range(0, k, NGRAM_CHUNK):
        hi = min(lo + NGRAM_CHUNK, k)
        block = table[0][syms[lo:hi]]
        for j in range(1, n):
            block ^= table[j][syms[lo + j : hi + j]]
        bits = np.unpackbits(block.view(np.uint8), axis=1, count=dim, bitorder="little")
        counts += bits.sum(axis=0, dtype=np.int64)
    return k


def markov_sample(cum_rows, start, uniforms):
    """Walk a first-order Markov chain given pre-drawn uniforms.

    ``cum_rows[s]`` is the cumulative transition distribution out of state s.
    Returns the int64 state sequence, one state per uniform.
    """
    length = uniforms.shape[0]
    out = np.empty(length, dtype=np.int64)
    last = cum_rows.shape[1] - 1
    s = start
    for t in range(length):
        j = int(np.searchsorted(cum_rows[s], uniforms[t], side="right"))
        if j > last:
            j = last
        out[t] = j
        s = j
    return out


def hamming_bitloop(bits_a, bits_b) -> int:
    """Per-bit reference loop over unpacked uint8 bit arrays.

    Deliberately naive; serves as the correctness oracle and as the baseline
    the microbenchmark measures the word-wise kernels against.
    """
    d = 0
    for i in range(bits_a.shape[0]):
        if bits_a[i] != bits_b[i]:
            d += 1
    return d
