"""Hot numeric kernels, written in numpy.

Word layout: hypervectors are packed into uint64 words, bit ``i`` living in
word ``i // 64`` at bit ``i % 64``. The kernels take that layout and unpack
bits only to count them. ``hamming_bitloop`` is the per-bit reference over
unpacked uint8 bit arrays that the word-wise kernels are tested and
benchmarked against (``python -m hdclab.bench``).

``accumulate_ngrams`` counts, per component, how many sliding n-gram
vectors of a symbol stream have a 1, by one of two exact methods:

* the block stream gathers and XOR-folds up to ``NGRAM_CHUNK`` windows as
  words, unpacks the block once and sums it as uint16 (exact: a block has
  fewer than 2**16 rows); its cost grows with the number of windows k;
* the histogram contraction counts each distinct n-gram once and contracts
  the ``nsym**n`` histogram with the +1/-1 sign tables of the window
  positions; its cost depends on ``nsym**n``, not on k, and float32 keeps it
  exact while k < 2**24.

``_contracts`` picks the contraction for long texts only: at most 4 bins
per window, ``nsym**(n-1) <= NGRAM_CHUNK / 4`` (so its float32
intermediate over all dim components would be no larger than a uint8
stream block), and k < 2**24. Neither method keeps a sign table between
calls; the contraction unpacks the sign rows it needs per block.
"""

from __future__ import annotations

import numpy as np

# Windows gathered per step of accumulate_ngrams; bounds each (chunk, dim)
# uint8 temporary to about 41 MB at D = 10000.
NGRAM_CHUNK = 4096
# Words of components contracted per block by the histogram contraction:
# its (nsym**(n-1), 1024) float32 intermediate is at most 4 MB under the
# dispatch rule (3 MB at the defaults, against 29 MB for all 10,000
# components at once). At D = 10000 the blocks took 14.6 ms per 20k-char
# text against 14.9 ms for one block (medians of 30 alternating runs).
CONTRACT_WORDS = 16


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


def _unpack(words, dim):
    """uint8 bits of packed words along the last axis, ``dim`` bits per row."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=dim, bitorder="little")


def _contracts(nsym: int, n: int, k: int) -> bool:
    """Dispatch rule of ``accumulate_ngrams``: True to contract, False to stream.

    Contract only when the histogram has at most 4 bins per window, a
    ``(nsym**(n-1), dim)`` float32 intermediate would be no larger than a
    ``(NGRAM_CHUNK, dim)`` uint8 stream block, and k < 2**24 keeps float32
    exact. At the defaults (n = 3, 27 symbols, D = 10000) the measured
    crossover was about 6.6 bins per window: the contraction took a flat
    ~12 ms, the stream 12.5 ms at k = 3000 and 25 ms at k = 5000. Smaller
    tables (n = 2, or 8 symbols at n = 4) crossed at about 2.5 bins, where
    the contraction's fixed cost weighs more; 4 lies between.
    """
    # n may be as large as dim; with nsym >= 2, an exponent capped at 32
    # already fails both size bounds, so the cap changes no answer.
    e = min(n, 32)
    return k < 2**24 and nsym**e <= 4 * k and 4 * nsym ** (e - 1) <= NGRAM_CHUNK


def _count_stream(table, syms, counts):
    """Block stream: XOR-fold up to NGRAM_CHUNK windows as words, unpack, sum."""
    n = table.shape[0]
    dim = counts.shape[0]
    k = syms.shape[0] - n + 1
    for lo in range(0, k, NGRAM_CHUNK):
        hi = min(lo + NGRAM_CHUNK, k)
        block = table[0][syms[lo:hi]]
        for j in range(1, n):
            block ^= table[j][syms[lo + j : hi + j]]
        counts += _unpack(block, dim).sum(axis=0, dtype=np.uint16)
    return k


def _signs(words, dim):
    """Float32 sign table ``1 - 2*bit`` (+1 or -1) of packed rows."""
    s = _unpack(words, dim).astype(np.float32)
    s *= -2
    s += 1
    return s


def ngram_histogram(syms, nsym, n):
    """int64 count of each sliding n-gram, indexed by base-``nsym`` code, first symbol high.

    The one window counter: the contraction and the n-gram baseline use it.
    Works in blocks of ``NGRAM_CHUNK`` windows; ``np.add.at`` costs per window,
    not per bin (a per-block bincount took 37 ms at 27**5 bins, add.at 40 us).
    """
    k = syms.shape[0] - n + 1
    hist = np.zeros(nsym**n, dtype=np.int64)
    for lo in range(0, k, NGRAM_CHUNK):
        hi = min(lo + NGRAM_CHUNK, k)
        code = syms[lo:hi].copy()
        for j in range(1, n):
            code *= nsym
            code += syms[lo + j : hi + j]
        np.add.at(hist, code, 1)
    return hist


def _count_contraction(table, syms, counts):
    """Histogram contraction: counts = (k - sum_w prod_j s_j[sym_{w+j}]) / 2.

    A window's XOR bit b satisfies 1 - 2b = prod_j (1 - 2 b_j), so summing
    the sign products over windows gives k - 2*count. ``ngram_histogram``
    counts the windows; the histogram is then contracted with the
    sign table of each position, last position first, one block of
    ``CONTRACT_WORDS`` words of components at a time. Every partial sum is
    an integer of magnitude at most k, so float32 is exact for k < 2**24.
    """
    n, nsym, nwords = table.shape
    dim = counts.shape[0]
    k = syms.shape[0] - n + 1
    hist = ngram_histogram(syms, nsym, n).astype(np.float32).reshape(-1, nsym)
    for w in range(0, nwords, CONTRACT_WORDS):
        words = table[:, :, w : w + CONTRACT_WORDS]
        lo = w * 64
        width = min(dim - lo, CONTRACT_WORDS * 64)
        v = hist @ _signs(words[n - 1], width)
        for j in range(n - 2, -1, -1):
            v = v.reshape(-1, nsym, width)
            v *= _signs(words[j], width)
            v = v.sum(axis=1)
        counts[lo : lo + width] += (k - v[0].astype(np.int64)) // 2
    return k


def accumulate_ngrams(table, syms, counts):
    """Accumulate all sliding n-gram hypervectors of a symbol stream.

    ``table`` is the pre-rotated alphabet as packed words, shape (n, n_symbols,
    n_words) uint64; ``table[j][s]`` is the vector used when symbol ``s`` sits
    at window position ``j``. Adds to ``counts`` (int64, dim) how many of the
    k windows have a 1 in each component, and returns k. Long texts go
    through the histogram contraction, short ones through the block stream
    (see ``_contracts``); both give the same counts.
    """
    n, nsym, _ = table.shape
    k = syms.shape[0] - n + 1
    if _contracts(nsym, n, k):
        return _count_contraction(table, syms, counts)
    return _count_stream(table, syms, counts)


def markov_sample(cum_rows, start, uniforms):
    """Walk stacked first-order Markov chains in lockstep on pre-drawn uniforms.

    ``cum_rows[c, s]`` is chain c's cumulative transition distribution out of
    state s, ``start[c]`` its state before the first step and ``uniforms[c]``
    one uniform per step. A step moves to the number of cumulative entries
    <= u (``searchsorted(side="right")``), clipped to the last state. Returns
    the int64 (chains, steps) state array.
    """
    chains, nstates, _ = cum_rows.shape
    flat = cum_rows.reshape(chains * nstates, nstates)
    base = np.arange(chains) * nstates
    out = np.empty(uniforms.shape, dtype=np.int64)
    last = nstates - 1
    s = np.asarray(start, dtype=np.int64)
    for t in range(uniforms.shape[1]):
        s = np.minimum((flat[base + s] <= uniforms[:, t, np.newaxis]).sum(axis=1), last)
        out[:, t] = s
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
