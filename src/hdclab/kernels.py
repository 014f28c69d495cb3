"""Hot numeric kernels, written in numpy.

Word layout: hypervectors are packed into uint64 words, bit ``i`` living in
word ``i // 64`` at bit ``i % 64``. The kernels take that layout and unpack
bits only to count them. ``hamming_bitloop`` is the per-bit reference over
unpacked uint8 bit arrays that the word-wise kernels are tested against, and
acceptance criterion 10's timing reference.

Table layout: the n-gram table of ``accumulate_ngrams`` is in kernel order,
the same words with each byte's bits reversed (``kernel_order``), so that
component ``i`` is bit ``7 - i % 8`` of byte ``i // 8``. That is numpy's
native most-significant-bit-first order: a flat ``np.unpackbits`` of a
kernel-order row yields its components in natural order, with no ``count``
and no ``axis``. A fixed bit permutation commutes with XOR, so a window's
XOR of kernel-order rows is the kernel order of its natural XOR. Only this
table is in kernel order; every hypervector and every other word matrix
keeps the natural layout.

``hamming_many`` scores one query against every row; ``hamming_matrix``
scores a (Q, W) query block against every row, one row at a time through
two reused (Q, W) buffers: the XOR words and their uint8 bit counts. Each
row's counts are summed in the narrowest unsigned type that holds 64*W,
the largest distance a W-word row can have, so the sum is exact: uint16
up to 1023 words (D = 10000 is 157), uint32 beyond.

``accumulate_ngrams`` counts, per component, how many sliding n-gram
vectors have a 1, for every group of symbol streams it is given, by one of
two exact methods, picked once per group by ``_contracts`` from its window
count k over all its streams. A group is a ``(syms, ends)`` pair: one uint8
buffer of its streams' symbols, joined, and where each stream ends in it
(see ``encoder.code_texts``); a stream is read as the view ``syms[lo:hi]``.

* the block stream gathers and XOR-folds up to ``STREAM_BLOCK`` (255)
  windows as words, folds them once more by a 3:2 carry-save level into
  about 2/3 as many rows of two weights, then unpacks those rows and sums
  them in 8-byte lanes, one byte per component (exact: a column's block
  count is at most 255, so no lane carries into its neighbour); its cost
  grows with k.
* the pair-sign contraction counts each distinct n-gram of a group once,
  into one float32 histogram row of ``nsym**n`` values over all the group's
  streams, and contracts every such row of the call at once against the
  sign tables of the window positions, one matmul per block of components;
  its cost depends on ``nsym**n`` and the number of rows, not on k, and
  float32 keeps it exact while each row's k < 2**24.

As the method is the group's, a language's 200 sentences of 100 chars are
one histogram row, as one 20k-char text is. Neither method keeps a sign
table between calls; the contraction unpacks the sign rows it needs per
block.
"""

from __future__ import annotations

import itertools

import numpy as np

# Windows per block of ngram_histogram; a quarter of it bounds the sign rows
# of P in _contracts.
NGRAM_CHUNK = 4096
# Windows per stream block: column sums are exact in uint8, and the unpacked
# (255, dim) block is 2.5 MB at D = 10000 (4096 windows made 41 MB).
STREAM_BLOCK = np.iinfo(np.uint8).max
# Float32 values one block's P and R may hold: 1 MiB, within one core's
# 2 MiB L2. A block is as many whole words as fit: at the defaults 3 for the
# 21 benchmark texts, 5 for one text. Wider blocks raise train_pipeline's
# peak; their measured speed is in CHANGES.md, "One bench".
CONTRACT_FLOATS = 2**18
# Uniforms markov_sample maps to table indices at once: a 64 KiB intp block.
MARKOV_BLOCK = 2**13
# Equal buckets over [0, 1] by which markov_sample finds a uniform's grid index.
MARKOV_BUCKETS = 2**12
_BUCKET_EDGES = np.arange(MARKOV_BUCKETS + 1) / MARKOV_BUCKETS


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


# Each byte with its bits reversed.
_REVERSED = np.packbits(np.unpackbits(np.arange(256, dtype=np.uint8)[:, np.newaxis],
                                      axis=1)[:, ::-1], axis=1).ravel()


def kernel_order(words):
    """Packed uint64 words with each byte's bits reversed: the table layout
    of ``accumulate_ngrams`` from the natural one. It is its own inverse."""
    return _REVERSED[np.ascontiguousarray(words).view(np.uint8)].view(np.uint64)


def _lane_sums(rows, width):
    """(width,) uint64 column sums of the flat MSB-first unpack of kernel-order
    rows, 8 components a lane, one byte each; ``width`` is 8 lanes a word,
    given so that a block of no rows sums to a row of zeros. Exact while no
    column sum exceeds 255."""
    bits = np.unpackbits(rows.view(np.uint8)).view(np.uint64)
    return bits.reshape(-1, width).sum(axis=0)


def _contracts(nsym: int, n: int, k: int) -> bool:
    """Method of a group of k windows in ``accumulate_ngrams``: True to
    contract the group as one histogram row, False to stream each of its
    streams.

    k counts the windows of every stream of the group. Contract only when
    the histogram has at most 4 bins per window, P has at most
    ``NGRAM_CHUNK / 4`` sign rows (``nsym**(n-1)``, one per symbol tuple of
    window positions 1..n-1), and k < 2**24 keeps float32 exact.
    The 4-bin edge predates the stream's carry-save level: at the defaults
    (n = 3, 27 symbols, D = 10000) a group contracted alone now crosses over
    at about 2.8 bins per window, and smaller tables, where the
    contraction's fixed cost weighs more, cross lower still. A group
    contracted together with others costs less, since the rows of a call
    share each block's sign rows. (Measured crossovers: CHANGES.md, "One
    bench".)
    """
    # n may be as large as dim; with nsym >= 2, an exponent capped at 32
    # already fails both size bounds, so the cap changes no answer.
    e = min(n, 32)
    return k < 2**24 and nsym**e <= 4 * k and 4 * nsym ** (e - 1) <= NGRAM_CHUNK


def _count_stream(table, syms, counts):
    """Block stream: XOR-fold up to STREAM_BLOCK windows as words, one 3:2
    carry-save level, unpack, sum in lanes.

    A block of r windows is split at m = r // 3: rows a, b and c are its
    first three runs of m rows. c takes their sum bits a ^ b ^ c in place,
    and the carry bits (a & b) | ((a ^ b) & c) go to a new (m, words) array,
    so a column's count is the sum of rows 2m.. plus twice the sum of the
    carry rows, and about 2/3 as many rows are unpacked. Each sum is taken
    in uint64 lanes of 8 one-byte columns (see ``_lane_sums``); a carry
    lane holds at most 2 * 85 after its shift, and the total is the block's
    count, at most 255, so no byte carries into the next. The lanes' bytes,
    in memory order, are the components in natural order.
    """
    n, _, nwords = table.shape
    dim = counts.shape[0]
    width = 8 * nwords
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
        total = _lane_sums(block[2 * m :], width)
        twice = _lane_sums(carry, width)
        twice <<= 1
        total += twice
        counts += total.view(np.uint8)[:dim]
    return k


# Float32 sign 1 - 2*bit of each bit of a byte, most significant bit first:
# a kernel-order byte's components in natural order.
_BYTE_SIGNS = 1 - 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, np.newaxis],
                                    axis=1).astype(np.float32)


def _signs(words):
    """Float32 sign table ``1 - 2*bit`` (+1 or -1) of kernel-order rows, 64
    values a word, in natural component order."""
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

    ``np.add.at`` costs per window, not per bin, so a block's cost does not
    grow with ``nsym**n`` as a per-block bincount's does (CHANGES.md, "One
    bench").
    """
    k = syms.shape[0] - n + 1
    if hist is None:
        hist = np.zeros(nsym**n, dtype=np.int64)
    for lo in range(0, k, NGRAM_CHUNK):
        np.add.at(hist, ngram_codes(syms[lo : lo + NGRAM_CHUNK + n - 1], nsym, n), 1)
    return hist


def streams(group):
    """Each stream of a ``(syms, ends)`` group, as a view of its buffer."""
    syms, ends = group
    for lo, hi in itertools.pairwise([0, *ends]):
        yield syms[lo:hi]


def _count_contraction(table, groups, ks, rows, counts):
    """Pair-sign contraction: counts = (k - sum_a s_0[a] * (H[a, :] @ P)) / 2, per row.

    A window's XOR bit b satisfies 1 - 2b = prod_j (1 - 2 b_j), so summing
    the sign products over windows gives k - 2*count. ``rows`` lists
    distinct group indices: row r holds the ``ks[rows[r]]`` windows of
    ``groups[rows[r]]`` and adds to ``counts[rows[r]]``. Its histogram ``H``
    (float32, over every stream of the group, each read while it is
    histogrammed) is split by the symbol a at window position 0;
    ``P[(b, c, ...), d]`` is the product of the sign rows of positions
    1..n-1 (a row of ones for n = 1). ``P`` is built once per block of
    components and shared by every row, so each block is one
    ``(rows*nsym, nsym**(n-1)) @ (nsym**(n-1), width)`` matmul into ``R``.
    Every partial sum is an integer of magnitude at most the row's k, so
    float32 is exact for k < 2**24.
    """
    n, nsym, nwords = table.shape
    dim = counts.shape[1]
    hist = np.empty((len(rows), nsym**n), dtype=np.float32)
    for r, g in enumerate(rows):
        row = np.zeros(nsym**n, dtype=np.int64)
        for syms in streams(groups[g]):
            ngram_histogram(syms, nsym, n, row)
        hist[r] = row
    hist = hist.reshape(len(rows) * nsym, -1)
    row_ks = np.array([ks[g] for g in rows], dtype=np.int64)
    # Whole words per block: as many as keep P and R within CONTRACT_FLOATS.
    step = max(1, CONTRACT_FLOATS // (hist.shape[1] + hist.shape[0]) // 64)
    for w in range(0, nwords, step):
        lo = w * 64
        width = min(dim - lo, step * 64)
        block = _contract_block(hist, row_ks, table[:, :, w : w + step])[:, :width]
        counts[rows, lo : lo + width] += block.astype(counts.dtype, copy=False)


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


def accumulate_ngrams(table, groups, ks, counts):
    """Accumulate all sliding n-gram hypervectors of groups of symbol streams.

    ``table`` is the pre-rotated alphabet as packed words in kernel order
    (``kernel_order``: each byte's bits reversed), shape (n, n_symbols,
    n_words) uint64; ``table[j][s]`` is the vector used when symbol ``s`` sits
    at window position ``j``. ``groups[g]`` is a ``(syms, ends)`` pair whose
    streams' ``ks[g]`` windows add to ``counts[g]``: per component, in
    natural order, how many of them have a 1. Every stream has at least n
    symbols, so ``ks[g]`` is ``len(syms) - len(ends) * (n - 1)``.
    ``counts`` is a (groups, dim) integer array whose type holds each
    group's total. Returns the total windows, ``sum(ks)``; no window spans
    two streams.

    The method is picked once per group, from ``ks[g]``: every group for
    which ``_contracts`` holds is one histogram row of one pair-sign
    contraction; each stream of any other group goes through the block
    stream. Both give the same counts. A group is read once, by its method,
    and no stream is kept past its reading: a contraction row is a group
    index. The contraction holds all its rows at once, so the caller bounds
    the groups of a call (``encoder.ENCODE_GROUPS``).
    """
    n, nsym, _ = table.shape
    rows = []
    for g, k in enumerate(ks):
        if _contracts(nsym, n, k):
            rows.append(g)
        else:
            for syms in streams(groups[g]):
                _count_stream(table, syms, counts[g])
    if rows:
        _count_contraction(table, groups, ks, rows, counts)
    return sum(ks)


def _next_states(cum):
    """(grid, next) of a (rows, nstates) array of cumulative rows.

    ``grid`` holds the sorted distinct entries of ``cum``, and
    ``next[p, s] = min(#{j : cum[s, j] <= grid[p - 1]}, nstates - 1)``, with
    ``next[0] = 0``: the state row s moves to on any u whose
    ``searchsorted(grid, u, side="right")`` is p. This is exact: every entry
    of ``cum`` is on the grid, so no count changes between two grid values.
    """
    rows, nstates = cum.shape
    grid, pos = np.unique(cum, return_inverse=True)
    # hits[p, s]: entries of row s equal to grid[p]; their running sum is the count.
    keys = pos.reshape(rows, nstates) * rows + np.arange(rows)[:, np.newaxis]
    hits = np.bincount(keys.ravel(), minlength=grid.size * rows).reshape(grid.size, rows)
    nxt = np.zeros((grid.size + 1, rows), dtype=np.min_scalar_type(rows))
    np.minimum(np.cumsum(hits, axis=0), nstates - 1, out=nxt[1:], casting="unsafe")
    return grid, nxt


def markov_sample(cum_start, cum_trans, table, uniforms):
    """Walk first-order Markov chains in lockstep on pre-drawn uniforms in [0, 1].

    Chain c follows table ``table[c]``: ``uniforms[c, 0]`` picks its first
    state from the cumulative start distribution ``cum_start[table[c]]``, and
    each later ``uniforms[c, t]`` moves it from state s to the number of
    entries of ``cum_trans[table[c], s]`` that are <= u
    (``searchsorted(side="right")``), clipped to the last state. Returns the
    (chains, steps) state array, of the narrowest unsigned type that holds
    ``nstates``.

    Each table becomes a next-state table over the grid of its distinct
    cumulative entries (see ``_next_states``), whose row ``nstates`` is the
    start distribution, so every chain starts in that extra state. A
    uniform is mapped once to its grid index p: ``MARKOV_BUCKETS`` equal
    buckets over [0, 1] give the grid values at or below each bucket's low
    edge, and as many compares as the fullest bucket has grid values add
    the rest. That is exact, and faster than ``searchsorted`` (CHANGES.md,
    "One bench").
    Then p is a flat index into all tables, and a step is one add and one
    take over every chain. Uniforms are mapped ``MARKOV_BLOCK`` at a time,
    so beyond its input and output a call holds the tables and a few
    blocks of indices.
    """
    nstates = cum_start.shape[1]
    chains, steps = uniforms.shape
    width = nstates + 1
    # Slot i of the flat tables is one grid index of one table; the last
    # slot of each table holds an infinite value that no uniform reaches.
    values, luts, nexts, passes, slots = [], [], [], 0, 0
    for start_row, trans in zip(cum_start, cum_trans):
        grid, nxt = _next_states(np.vstack([trans, start_row]))
        below = np.searchsorted(grid, _BUCKET_EDGES, side="right")
        passes = max(passes, int(np.diff(below).max()))
        luts.append(below + slots)
        values += [grid, [np.inf]]
        nexts.append(nxt)
        slots += grid.size + 1
    values = np.concatenate(values)
    lut = np.concatenate(luts, dtype=np.int32)
    flat = np.concatenate(nexts).ravel()
    del luts, nexts
    lut_base = (np.asarray(table, dtype=np.int32) * _BUCKET_EDGES.size)[:, np.newaxis]
    out = np.empty((steps, chains), dtype=flat.dtype)
    span = max(1, min(steps, MARKOV_BLOCK // max(chains, 1)))
    prev = np.full(chains, nstates, dtype=flat.dtype)
    for lo in range(0, steps, span):
        u = uniforms[:, lo : lo + span]
        p = (u * MARKOV_BUCKETS).astype(np.int32)
        p += lut_base
        p = lut[p]
        for _ in range(passes):
            p += values[p] <= u
        p *= width
        for t, row in enumerate(p.T.astype(np.intp, order="C"), lo):
            row += prev
            flat.take(row, out=out[t], mode="clip")
            prev = out[t]
    return out.T


def hamming_bitloop(bits_a, bits_b) -> int:
    """Per-bit reference loop over unpacked uint8 bit arrays.

    Deliberately naive; serves as the correctness oracle and as acceptance
    criterion 10's reference, which times the word-wise kernel against it.
    """
    d = 0
    for i in range(bits_a.shape[0]):
        if bits_a[i] != bits_b[i]:
            d += 1
    return d
