"""Hot numeric kernels, written in numpy.

Word layout: hypervectors are packed into uint64 words, bit ``i`` living in
word ``i // 64`` at bit ``i % 64``. The kernels take that layout and unpack
bits only to count them. ``hamming_bitloop`` is the per-bit reference over
unpacked uint8 bit arrays that the word-wise kernels are tested and
benchmarked against (``python -m hdclab.bench``).

``hamming_many`` scores one query against every row; ``hamming_matrix``
scores a (Q, W) query block against every row, one row at a time through
two reused (Q, W) buffers: the XOR words and their uint8 bit counts. Each
row's counts are summed in the narrowest unsigned type that holds 64*W,
the largest distance a W-word row can have, so the sum is exact: uint16
up to 1023 words (D = 10000 is 157), uint32 beyond. At Q = 630 and
D = 10000 a uint16 row sum took 26 us against 64 us in int64, and the
whole (630, 21) matrix 2.5 ms against 3.1 ms for 21 ``hamming_many``
calls stacked by column (fastest of 400 interleaved calls, one thread,
2-vCPU Xeon VM).

``accumulate_ngrams`` counts, per component, how many sliding n-gram
vectors have a 1, for groups of symbol streams in one call, by one of two
exact methods per stream:

* the block stream gathers and XOR-folds up to ``STREAM_BLOCK`` (255)
  windows as words, folds them once more by a 3:2 carry-save level into
  about 2/3 as many rows of two weights, then unpacks those rows and sums
  them as uint8 (exact: a column's block count is at most 255); its cost
  grows with the number of windows k. At D = 10000 it took 0.11/0.63/4.1 ms
  at k = 98/600/4000, against 0.13/0.79/5.2 ms for the same blocks unpacked
  without the carry-save level (fastest of 5 repeats, three runs, one
  OpenBLAS thread, 2-vCPU Xeon VM);
* the pair-sign contraction counts each distinct n-gram of a stream once,
  into one float32 histogram row per group (the long streams of a group
  share their row), and contracts up to ``CONTRACT_ROWS`` rows
  at once against the sign tables of the window positions, one matmul per
  block of components; its cost depends on ``nsym**n`` and the number of
  rows, not on k, and float32 keeps it exact while each row's k < 2**24.
  At the defaults, the 21 texts of 20k chars of the benchmark corpus took
  75-95 ms in one call against 194-204 ms for 21 one-text contractions of
  the (nsym**(n-1), nsym) @ (nsym, 1024) form it replaced, with OpenBLAS on
  one thread as perfbench runs it, and 61-62 ms against 242-247 ms on two
  (fastest of 15 calls, 2-vCPU Xeon VM).

``_contracts`` picks the contraction for long texts only: at most 4 bins
per window, ``nsym**(n-1) <= NGRAM_CHUNK / 4`` (so a ``(nsym**(n-1), dim)``
float32 table would be no larger than a ``(NGRAM_CHUNK, dim)`` uint8
block), and k < 2**24. Neither method keeps a sign table between calls;
the contraction unpacks the sign rows it needs per block.
"""

from __future__ import annotations

import numpy as np

# Windows per block of ngram_histogram, and the size bound of _contracts.
NGRAM_CHUNK = 4096
# Windows per stream block: column sums are exact in uint8, and the unpacked
# (255, dim) block is 2.5 MB at D = 10000 (4096 windows made 41 MB).
STREAM_BLOCK = np.iinfo(np.uint8).max
# Float32 values one block's P and R may hold: 1 MiB, within one core's
# 2 MiB L2. A block is as many whole words as fit: at the defaults 3 for the
# 21 benchmark texts, 5 for one text. At 2/3/4 words, train_pipeline's
# tracemalloc peak read 3.37/3.69/4.02 MiB and the 21-text call took
# 76/74/73 ms on one OpenBLAS thread, 57/51/46 ms on two; one 20k-char text
# took 7.9/7.6/8.1/9.0 ms at 3/5/8/14 words on one thread and
# 9.5/8.4/8.0/8.0 ms on two (fastest of 12 interleaved calls).
CONTRACT_FLOATS = 2**18
# Histogram rows per contraction pass: the 21 languages of the paper fit in
# one. More rows are split into the fewest passes of equal size, so 84
# one-text groups make four passes of 21 and the peak does not grow with the
# number of texts; 84 texts in 21 groups are 21 rows and one pass.
CONTRACT_ROWS = 24


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


def hamming_matrix(queries, rows):
    """(Q, C) int64 distances from each packed query row to each packed row of ``rows``."""
    n_queries, n_w = queries.shape
    xor = np.empty((n_queries, n_w), dtype=np.uint64)
    bits = np.empty((n_queries, n_w), dtype=np.uint8)
    # Exact: no distance exceeds 64 * n_w, which this type holds.
    dist = np.empty((rows.shape[0], n_queries), dtype=np.min_scalar_type(64 * n_w))
    for c, row in enumerate(rows):
        np.bitwise_xor(queries, row, out=xor)
        np.bitwise_count(xor, out=bits)
        bits.sum(axis=1, dtype=dist.dtype, out=dist[c])
    return dist.T.astype(np.int64, order="C")


def _unpack(words, dim):
    """uint8 bits of packed words along the last axis, ``dim`` bits per row."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=dim, bitorder="little")


def _contracts(nsym: int, n: int, k: int) -> bool:
    """Dispatch rule of ``accumulate_ngrams``: True to contract, False to stream.

    Contract only when the histogram has at most 4 bins per window, a
    ``(nsym**(n-1), dim)`` float32 table would be no larger than a
    ``(NGRAM_CHUNK, dim)`` uint8 block, and k < 2**24 keeps float32 exact.
    At the defaults (n = 3, 27 symbols, D = 10000) the measured crossover
    for a text contracted alone is about 7,000 windows, or about 2.8 bins
    per window, since the stream's carry-save level: the contraction took a
    flat 7.3-8.2 ms, the stream 5.1-5.6 ms at k = 4920 (the 4-bin edge),
    5.9-6.1 ms at k = 6000 and 7.1-7.8 ms at k = 7000. Smaller tables,
    where the contraction's fixed cost weighs more, cross lower still: at 4
    bins the stream took 0.17 ms against 0.54-0.56 ms (n = 2) and 1.1-1.2 ms
    against 3.8-4.0 ms (8 symbols, n = 4) (fastest of 5 repeats, three
    runs). A text contracted together with others costs less; see the
    module docstring.
    """
    # n may be as large as dim; with nsym >= 2, an exponent capped at 32
    # already fails both size bounds, so the cap changes no answer.
    e = min(n, 32)
    return k < 2**24 and nsym**e <= 4 * k and 4 * nsym ** (e - 1) <= NGRAM_CHUNK


def _count_stream(table, syms, counts):
    """Block stream: XOR-fold up to STREAM_BLOCK windows as words, one 3:2
    carry-save level, unpack, sum.

    A block of r windows is split at m = r // 3: rows a, b and c are its
    first three runs of m rows. c takes their sum bits a ^ b ^ c in place,
    and the carry bits (a & b) | ((a ^ b) & c) go to a new (m, words) array,
    so a column's count is the sum of rows 2m.. plus twice the sum of the
    carry rows, and about 2/3 as many rows are unpacked. Both sums are exact
    in uint8, and so is their total: it is the block's count, at most 255.
    """
    n = table.shape[0]
    dim = counts.shape[0]
    k = syms.shape[0] - n + 1
    for lo in range(0, k, STREAM_BLOCK):
        hi = min(lo + STREAM_BLOCK, k)
        block = table[0][syms[lo:hi]]
        for j in range(1, n):
            block ^= table[j][syms[lo + j : hi + j]]
        m = (hi - lo) // 3
        a, b, c = block[:m], block[m : 2 * m], block[2 * m : 3 * m]
        half = a ^ b
        carry = a & b
        carry |= half & c
        c ^= half
        total = _unpack(block[2 * m :], dim).sum(axis=0, dtype=np.uint8)
        twice = _unpack(carry, dim).sum(axis=0, dtype=np.uint8)
        twice <<= 1
        total += twice
        counts += total
    return k


# Float32 sign 1 - 2*bit of each bit of a byte, bit 0 first.
_BYTE_SIGNS = 1 - 2 * _unpack(np.arange(256, dtype=np.uint8)[:, np.newaxis], 8).astype(np.float32)


def _signs(words):
    """Float32 sign table ``1 - 2*bit`` (+1 or -1) of packed rows, 64 values a word."""
    return np.take(_BYTE_SIGNS, words.view(np.uint8), axis=0).reshape(words.shape[0], -1)


def ngram_codes(syms, nsym, n):
    """int64 base-``nsym`` code of each sliding n-gram (n or more syms), first symbol high."""
    k = syms.shape[0] - n + 1
    code = syms[:k].astype(np.int64)
    for j in range(1, n):
        code *= nsym
        code += syms[j : j + k]
    return code


def ngram_histogram(syms, nsym, n, hist=None):
    """int64 count of each sliding n-gram by ``ngram_codes`` code, in NGRAM_CHUNK blocks,
    added into ``hist`` when given (a zeroed histogram otherwise) and returned.

    ``np.add.at`` costs per window, not per bin (a per-block bincount took
    37 ms at 27**5 bins, add.at 40 us).
    """
    k = syms.shape[0] - n + 1
    if hist is None:
        hist = np.zeros(nsym**n, dtype=np.int64)
    for lo in range(0, k, NGRAM_CHUNK):
        np.add.at(hist, ngram_codes(syms[lo : lo + NGRAM_CHUNK + n - 1], nsym, n), 1)
    return hist


def _histograms(groups, rows, nsym, n):
    """(hist, ks, targets) of contraction rows: each row's float32 n-gram
    histogram, its window count and the count row it adds to.

    Row ``(g, None)`` is every stream of ``groups[g]``; row ``(g, i)`` is its
    stream i alone. Each stream is read only while it is histogrammed.
    """
    hist = np.empty((len(rows), nsym**n), dtype=np.float32)
    ks = np.zeros(len(rows), dtype=np.int64)
    targets = np.array([g for g, _ in rows], dtype=np.intp)
    for r, (g, i) in enumerate(rows):
        row = np.zeros(nsym**n, dtype=np.int64)
        for j, syms in enumerate(groups[g]):
            if i is None or i == j:
                ks[r] += syms.shape[0] - n + 1
                ngram_histogram(syms, nsym, n, row)
        hist[r] = row
    return hist, ks, targets


def _count_contraction(table, groups, rows, counts):
    """Pair-sign contraction: counts = (k - sum_a s_0[a] * (H[a, :] @ P)) / 2, per row.

    A window's XOR bit b satisfies 1 - 2b = prod_j (1 - 2 b_j), so summing
    the sign products over windows gives k - 2*count. ``rows`` lists
    ``(g, i)``: the streams of ``groups[g]`` whose windows add to
    ``counts[g]``, all of them for i None, else stream i (see
    ``_histograms``). Row r's histogram ``H`` (float32) is split by the
    symbol a at window position 0; ``P[(b, c, ...), d]`` is the product of
    the sign rows of positions 1..n-1 (a row of ones for n = 1). ``P`` is
    built once per block of components and shared by every row, so each
    block is one ``(rows*nsym, nsym**(n-1)) @ (nsym**(n-1), width)`` matmul
    into ``R``. Every partial sum is an integer of magnitude at most the
    row's k, so float32 is exact for k < 2**24.
    """
    n, nsym, nwords = table.shape
    dim = counts.shape[1]
    hist, ks, targets = _histograms(groups, rows, nsym, n)
    hist = hist.reshape(len(rows) * nsym, -1)
    # Whole words per block: as many as keep P and R within CONTRACT_FLOATS.
    step = max(1, CONTRACT_FLOATS // (hist.shape[1] + hist.shape[0]) // 64)
    for w in range(0, nwords, step):
        lo = w * 64
        width = min(dim - lo, step * 64)
        block = _contract_block(hist, ks, table[:, :, w : w + step])[:, :width]
        np.add.at(counts[:, lo : lo + width], targets, block.astype(counts.dtype, copy=False))


def _contract_block(hist, ks, words):
    """(rows, 64*words) int64 counts of one block of words; its P and R die with it.

    P's sign rows come from the XOR of packed rows, since the product of
    signs is the sign of the XOR of the bits.
    """
    n, nsym, nw = words.shape
    pairs = np.zeros((1, nw), dtype=np.uint64)
    for j in range(1, n):
        pairs = (pairs[:, np.newaxis] ^ words[j]).reshape(-1, nw)
    v = (hist @ _signs(pairs)).reshape(ks.shape[0], nsym, -1)
    v *= _signs(words[0])
    c = ks[:, np.newaxis] - v.sum(axis=1).astype(np.int64)
    c //= 2
    return c


def _dispatch(table, g, streams, counts):
    """Stream the short streams of group g into ``counts[g]``; return its
    window count and its contraction rows.

    A group whose every stream contracts is one row, ``(g, None)``, while
    its windows total below 2**24, so float32 stays exact; otherwise each
    contracted stream i is a row ``(g, i)`` of its own.
    """
    n, nsym, _ = table.shape
    total, row_k, contracted = 0, 0, []
    for i, syms in enumerate(streams):
        k = syms.shape[0] - n + 1
        total += k
        if _contracts(nsym, n, k):
            contracted.append(i)
            row_k += k
        else:
            _count_stream(table, syms, counts[g])
    if contracted and len(contracted) == len(streams) and row_k < 2**24:
        return total, [(g, None)]
    return total, [(g, i) for i in contracted]


def accumulate_ngrams(table, groups, counts):
    """Accumulate all sliding n-gram hypervectors of groups of symbol streams.

    ``table`` is the pre-rotated alphabet as packed words, shape (n, n_symbols,
    n_words) uint64; ``table[j][s]`` is the vector used when symbol ``s`` sits
    at window position ``j``. ``groups[g]`` is a sequence of the symbol
    streams whose windows add to ``counts[g]``: per component, how many of
    the k windows have a 1. It is read once to dispatch and once more if any
    of its streams contracts. ``counts`` is a (groups, dim) integer array
    whose type holds each group's total. Returns the total k over every
    stream; no window spans two streams. Long streams go through the
    pair-sign contraction, the long streams of one group as one histogram
    row, ``CONTRACT_ROWS`` or fewer rows to a pass; short ones go through the
    block stream (see ``_contracts`` and ``_dispatch``). Both give the same
    counts. No stream is kept past its reading: a contraction row is a
    group index and at most one stream index.
    """
    total, rows = 0, []
    for g, streams in enumerate(groups):
        k, group_rows = _dispatch(table, g, streams, counts)
        total += k
        rows += group_rows
    if rows:
        # The fewest passes of at most CONTRACT_ROWS rows, of equal size.
        size = -(-len(rows) // -(-len(rows) // CONTRACT_ROWS))
        for lo in range(0, len(rows), size):
            _count_contraction(table, groups, rows[lo : lo + size], counts)
    return total


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
