"""Behavioral fault models: stuck-at components and random bit flips.

Nothing here models electrical causes. A FaultMask pins a chosen set of
components to 0 or 1, and flip_noise inverts an exact count of positions.
Both come from draw_stuck, which draws a block of packed masks with an exact
fault count per row. fault_sweep runs a trained classifier through a grid of
fault fractions and reports accuracy per trial.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .algebra import Hypervector, RandomSource, _ones_words, _tail_mask, n_words

# Version of the stuck-at draw recorded in sweep JSON; it changes whenever the
# same seed starts giving different masks.
MASK_SCHEME = 2
# The first pass draws Bernoulli words with p rounded to this many bits.
_CODE_BITS = 10


def _exact_count(fraction: float, dim: int) -> int:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    # Half-up rounding; round() would send exact halves to the even neighbor.
    return int(fraction * dim + 0.5)


def _random_words(gen: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    # The raw 64-bit outputs: gen.integers costs several microseconds more per call.
    return gen.bit_generator.random_raw(shape[0] * shape[1]).reshape(shape)


def _bernoulli_words(p: float, shape, gen: np.random.Generator) -> np.ndarray:
    """Packed words whose bits are 1 independently with probability ~p.

    Random planes folded least significant bit first (OR where the bit of
    code is 1, AND where it is 0) give probability code / 2**_CODE_BITS.
    """
    # 2**_CODE_BITS itself would need one more bit; the count fix absorbs it.
    code = min(int(p * 2**_CODE_BITS + 0.5), 2**_CODE_BITS - 1)
    words = np.zeros(shape, dtype=np.uint64)
    for bit in range(_CODE_BITS):
        fold = np.bitwise_or if code >> bit & 1 else np.bitwise_and
        fold(words, _random_words(gen, shape), out=words)
    return words


def _distinct_keys(need: np.ndarray, avail: np.ndarray, dim: int,
                   gen: np.random.Generator) -> np.ndarray:
    """Sorted keys row * dim + rank: need[row] distinct ranks below avail[row].

    Ranks are drawn with replacement and each row's shortfall is redrawn, so
    a row's set is that of the first need[row] distinct values of an iid
    uniform sequence, which is uniform over need[row]-subsets.
    """
    keys = np.empty(0, dtype=np.int64)
    short = need
    while short.any():
        owner = np.repeat(np.arange(need.size), short)
        keys = np.sort(np.concatenate([keys, gen.integers(0, avail[owner]) + owner * dim]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        short = need - np.bincount(keys // dim, minlength=need.size)
    return keys


def _select_bit(words: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Bit index of the rank-th set bit (from 0) of each word."""
    words = words.copy()
    rank = rank.astype(np.uint64)
    pos = np.zeros_like(words)
    for width in (32, 16, 8, 4, 2, 1):
        low = np.bitwise_count(words & np.uint64((1 << width) - 1)).astype(np.uint64)
        high = rank >= low  # the bit lies above the low `width` bits
        rank -= low * high
        shift = np.uint64(width) * high
        pos += shift
        words >>= shift
    return pos


def _fix_counts(faults: np.ndarray, count: int, dim: int, gen: np.random.Generator):
    """Flip bits in place so that every row of faults holds exactly count ones.

    A row with m > count loses m - count of its ones and a row with m < count
    gains count - m of its zeros, each set uniform without replacement.
    """
    m = np.bitwise_count(faults).sum(axis=1, dtype=np.int64)
    rows = np.flatnonzero(m != count)
    m = m[rows]
    excess = m > count
    cand = faults[rows]  # the bits that may flip: a row's ones or its zeros
    cand[~excess] ^= _ones_words(dim)
    keys = _distinct_keys(np.abs(m - count), np.where(excess, m, dim - m), dim, gen)
    owner = keys // dim
    # Running candidate counts, offset by row * dim so that one sorted
    # search finds the word holding each key's candidate.
    per_word = np.bitwise_count(cand).astype(np.int64)
    ends = (np.cumsum(per_word, axis=1) + (np.arange(rows.size) * dim)[:, np.newaxis]).ravel()
    per_word = per_word.ravel()
    at = np.searchsorted(ends, keys, side="right")
    bit = _select_bit(cand.ravel()[at], keys - (ends[at] - per_word[at]))
    np.bitwise_xor.at(faults, (rows[owner], at - owner * faults.shape[1]),
                      np.left_shift(np.uint64(1), bit))


def _apply_stuck(words: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """New array of words with the s0 bits forced to 0 and the s1 bits to 1."""
    out = words & ~s0
    out |= s1
    return out


def draw_stuck(dim: int, fraction: float, rows: int,
               rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """(rows, n_words(dim)) stuck-at-0 and stuck-at-1 words for rows masks.

    Every row has exactly round(fraction*dim) faults (half up), placed
    uniformly and independently per row, each stuck at 0 or 1 with
    probability 1/2. The draw order is part of the determinism contract
    (MASK_SCHEME 2): Bernoulli words from _CODE_BITS random planes, the count
    fix, then one random value word per word (s1 = faults & v, s0 = faults &
    ~v). No faults draws nothing, and all faults only the values.
    """
    count = _exact_count(fraction, dim)
    shape = (rows, n_words(dim))
    if count == 0:
        return np.zeros(shape, dtype=np.uint64), np.zeros(shape, dtype=np.uint64)
    gen = rng.generator
    if count == dim:
        faults = np.tile(_ones_words(dim), (rows, 1))
    else:
        faults = _bernoulli_words(count / dim, shape, gen)
        faults[:, -1] &= _tail_mask(dim)
        _fix_counts(faults, count, dim, gen)
    values = _random_words(gen, shape)
    return faults & ~values, faults & values


class FaultMask:
    """Per-component stuck-at fault map held as two packed bit masks."""

    def __init__(self, dim: int, stuck0_words: np.ndarray, stuck1_words: np.ndarray):
        self.dim = dim
        # Held as a Hypervector holds words: writeable input is copied, not frozen.
        s0, s1 = Hypervector(dim, stuck0_words).words, Hypervector(dim, stuck1_words).words
        if np.any(s0 & s1):
            raise ValueError("a component cannot be stuck at 0 and 1 at once")
        self.stuck0_words = s0
        self.stuck1_words = s1

    @classmethod
    def make(cls, dim: int, fraction: float, rng: RandomSource) -> "FaultMask":
        """Place round(fraction*dim) faults uniformly; each stuck0 or stuck1 at 1/2.

        This is the one-row draw_stuck, so its draw order (MASK_SCHEME 2) is
        part of the determinism contract.
        """
        s0, s1 = draw_stuck(dim, fraction, 1, rng)
        return cls(dim, s0[0], s1[0])

    @property
    def num_faults(self) -> int:
        return int(kernels.popcount_words(self.stuck0_words)
                   + kernels.popcount_words(self.stuck1_words))

    def apply(self, hv: Hypervector) -> Hypervector:
        if hv.dim != self.dim:
            raise ValueError(f"dimension mismatch: mask {self.dim}, vector {hv.dim}")
        words = _apply_stuck(hv.words, self.stuck0_words, self.stuck1_words)
        words.setflags(write=False)  # so Hypervector keeps it rather than copying
        return Hypervector(self.dim, words)

    def apply_words(self, rows: np.ndarray) -> np.ndarray:
        """Mask a whole (num_rows, n_words) matrix at once."""
        return _apply_stuck(rows, self.stuck0_words, self.stuck1_words)

    def __repr__(self):
        return f"FaultMask(dim={self.dim}, faults={self.num_faults})"


def flip_noise(hv: Hypervector, fraction: float, rng: RandomSource) -> Hypervector:
    """Invert exactly round(fraction*dim) distinct positions, chosen uniformly.

    The positions are those of a one-row draw_stuck; its stuck values are unused.
    """
    s0, s1 = draw_stuck(hv.dim, fraction, 1, rng)
    return Hypervector(hv.dim, hv.words ^ (s0[0] | s1[0]))


def _checked_rows(rows, words_per_query: int) -> np.ndarray:
    """rows as a non-empty (labels, words_per_query) uint64 array, or ValueError."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or len(rows) == 0 or rows.dtype != np.uint64:
        raise ValueError("prototype rows must form a non-empty (labels, words per row) "
                         "uint64 matrix")
    if rows.shape[1] != words_per_query:
        raise ValueError(f"prototype rows have {rows.shape[1]} words per row, "
                         f"the queries {words_per_query}")
    return rows


def distance_matrix(rows: np.ndarray, query_words) -> np.ndarray:
    """(Q, C) int64 Hamming distances from each packed query to each prototype row."""
    # Caller input: a list of word arrays is accepted, any other shape rejected.
    query_words = np.asarray(query_words)
    if len(query_words) == 0:
        raise ValueError("no queries to score")
    if query_words.ndim != 2 or query_words.dtype != np.uint64:
        raise ValueError("query words must form a (queries, words per row) uint64 matrix")
    rows = _checked_rows(rows, query_words.shape[1])
    return kernels.hamming_matrix(query_words, rows)


def _label_index(true_idx, n_queries: int, n_labels: int) -> np.ndarray:
    true_idx = np.asarray(true_idx)
    if true_idx.shape != (n_queries,):
        raise ValueError("true_idx needs exactly one label index per query")
    if true_idx.dtype.kind not in "iu":
        raise ValueError(f"true_idx must hold integer label indices, not {true_idx.dtype}")
    if n_queries and (true_idx.min() < 0 or true_idx.max() >= n_labels):
        raise ValueError(f"true_idx holds a value outside label indices 0..{n_labels - 1}")
    return true_idx.astype(np.int64, copy=False)


def multiclass_accuracy(rows: np.ndarray, queries, true_idx) -> float:
    """Fraction of queries whose nearest row (lowest index on ties) is the true one."""
    dmat = distance_matrix(rows, queries)
    return float(np.mean(np.argmin(dmat, axis=1) == _label_index(true_idx, *dmat.shape)))


def pairwise_from_dmat(dmat: np.ndarray, true_idx: np.ndarray) -> float:
    """Mean two-class accuracy over every unordered label pair.

    For pair (i, j) only queries whose true label is i or j count, and the
    decision is the restricted argmin (tie goes to the lower index).
    """
    n_queries, n_labels = dmat.shape
    true_idx = _label_index(true_idx, n_queries, n_labels)
    d_true = dmat[np.arange(n_queries), true_idx][:, np.newaxis]
    lower = true_idx[:, np.newaxis] < np.arange(n_labels)
    # beats[q, j]: query q's true label wins the two-class decision against j.
    beats = (d_true < dmat) | ((d_true == dmat) & lower)
    cells = (true_idx[:, np.newaxis] * n_labels + np.arange(n_labels))[beats]
    wins = np.bincount(cells, minlength=n_labels * n_labels).reshape(n_labels, n_labels)
    members = np.bincount(true_idx, minlength=n_labels)
    i, j = np.triu_indices(n_labels, k=1)
    totals = members[i] + members[j]
    used = totals > 0
    if not used.any():
        raise ValueError("no query belongs to any label pair")
    return float(np.mean((wins[i, j] + wins[j, i])[used] / totals[used]))


def pairwise_accuracy(rows: np.ndarray, queries, true_idx) -> float:
    return pairwise_from_dmat(distance_matrix(rows, queries), true_idx)


@dataclass
class SweepResult:
    """Per-trial accuracies of a fault sweep plus aggregate helpers."""

    mode: str
    rows: list = field(default_factory=list)  # (fraction, trial, accuracy)

    def add(self, fraction: float, trial: int, accuracy: float):
        self.rows.append((fraction, trial, accuracy))

    def aggregate(self):
        """List of (fraction, mean accuracy, std) in first-seen fraction order."""
        order, per = [], {}
        for fraction, _, acc in self.rows:
            if fraction not in per:
                per[fraction] = []
                order.append(fraction)
            per[fraction].append(acc)
        out = []
        for fraction in order:
            a = np.array(per[fraction])
            out.append((fraction, float(a.mean()), float(a.std())))
        return out

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["fraction", "trial", "mode", "accuracy"])
            for fraction, trial, acc in self.rows:
                w.writerow([f"{fraction:g}", trial, self.mode, f"{acc:.6f}"])

    def write_json(self, path):
        doc = {
            "mode": self.mode,
            "mask_scheme": MASK_SCHEME,
            "rows": [
                {"fraction": fraction, "trial": trial, "accuracy": acc}
                for fraction, trial, acc in self.rows
            ],
            "aggregate": [
                {"fraction": fraction, "mean_accuracy": mean, "std": std}
                for fraction, mean, std in self.aggregate()
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def fault_sweep(rows: np.ndarray, queries, true_idx, fractions, trials: int,
                mode: str = "multiclass", shared: bool = True,
                seed: int = 0) -> SweepResult:
    """Accuracy under stuck-at faults across a fraction grid.

    rows is the packed prototype matrix, queries a list of Hypervector,
    true_idx the row index of each query's true label. shared=True applies
    one mask per trial to the rows and every query (one physical array);
    shared=False gives every query its own mask. Each (fraction, trial) cell
    draws from one stream, root.child(fi, trial), so trials are
    order-independent: first the row mask (FaultMask.make), then, with
    shared=False, one draw_stuck block of a mask per query.
    """
    if mode not in ("multiclass", "pairwise"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len({q.dim for q in queries}) != 1:
        raise ValueError("fault_sweep needs at least one query, all of one dimension")
    dim = queries[0].dim
    query_words = np.concatenate([q.words for q in queries]).reshape(len(queries), -1)
    rows = _checked_rows(rows, query_words.shape[1])
    root = RandomSource(seed)
    score = multiclass_accuracy if mode == "multiclass" else pairwise_accuracy
    result = SweepResult(mode=mode)
    for fi, fraction in enumerate(fractions):
        for trial in range(trials):
            rng = root.child(fi, trial)
            mask = FaultMask.make(dim, fraction, rng)
            masked_rows = mask.apply_words(rows)
            if shared:
                masked_queries = mask.apply_words(query_words)
            else:
                s0, s1 = draw_stuck(dim, fraction, len(query_words), rng)
                masked_queries = _apply_stuck(query_words, s0, s1)
            result.add(fraction, trial, score(masked_rows, masked_queries, true_idx))
    return result
