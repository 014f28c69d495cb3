"""Behavioral fault models: stuck-at components and random bit flips.

Nothing here models electrical causes. A FaultMask pins a chosen set of
components to 0 or 1, and flip_noise inverts an exact count of positions.
fault_sweep runs a trained classifier through a grid of fault fractions and
reports accuracy per trial.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .algebra import Hypervector, RandomSource, n_words, pack_bits, unpack_bits

PASS, STUCK0, STUCK1 = 0, 1, 2


def _exact_count(fraction: float, dim: int) -> int:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    # Half-up rounding; round() would send exact halves to the even neighbor.
    return int(fraction * dim + 0.5)


class FaultMask:
    """Per-component stuck-at fault map held as two packed bit masks."""

    def __init__(self, dim: int, stuck0_words: np.ndarray, stuck1_words: np.ndarray,
                 fraction: float | None = None):
        self.dim = dim
        s0 = np.ascontiguousarray(stuck0_words, dtype=np.uint64)
        s1 = np.ascontiguousarray(stuck1_words, dtype=np.uint64)
        if s0.shape != (n_words(dim),) or s1.shape != (n_words(dim),):
            raise ValueError("mask word arrays do not match the dimension")
        if np.any(s0 & s1):
            raise ValueError("a component cannot be stuck at 0 and 1 at once")
        s0.setflags(write=False)
        s1.setflags(write=False)
        self.stuck0_words = s0
        self.stuck1_words = s1
        self.fraction = fraction

    @classmethod
    def make(cls, dim: int, fraction: float, rng: RandomSource) -> "FaultMask":
        """Place round(fraction*dim) faults uniformly; each stuck0 or stuck1 at 1/2.

        Draw order (positions, then values) is part of the determinism contract.
        """
        count = _exact_count(fraction, dim)
        gen = rng.generator
        positions = gen.choice(dim, size=count, replace=False)
        values = gen.integers(0, 2, size=count, dtype=np.uint8)
        bits0 = np.zeros(dim, dtype=np.uint8)
        bits1 = np.zeros(dim, dtype=np.uint8)
        bits0[positions[values == 0]] = 1
        bits1[positions[values == 1]] = 1
        return cls(dim, pack_bits(bits0), pack_bits(bits1), fraction)

    @classmethod
    def from_states(cls, states) -> "FaultMask":
        """Build from an explicit per-component array of PASS/STUCK0/STUCK1."""
        states = np.asarray(states, dtype=np.int8)
        dim = states.shape[0]
        if dim < 1 or states.ndim != 1:
            raise ValueError("states must be a non-empty 1-d array")
        if not np.isin(states, (PASS, STUCK0, STUCK1)).all():
            raise ValueError("states may only contain PASS, STUCK0, STUCK1")
        b0 = (states == STUCK0).astype(np.uint8)
        b1 = (states == STUCK1).astype(np.uint8)
        frac = float((states != PASS).sum()) / dim
        return cls(dim, pack_bits(b0), pack_bits(b1), frac)

    def states(self) -> np.ndarray:
        out = np.full(self.dim, PASS, dtype=np.int8)
        out[unpack_bits(self.stuck0_words, self.dim) == 1] = STUCK0
        out[unpack_bits(self.stuck1_words, self.dim) == 1] = STUCK1
        return out

    @property
    def num_faults(self) -> int:
        return int(kernels.popcount_words(self.stuck0_words)
                   + kernels.popcount_words(self.stuck1_words))

    def apply(self, hv: Hypervector) -> Hypervector:
        if hv.dim != self.dim:
            raise ValueError(f"dimension mismatch: mask {self.dim}, vector {hv.dim}")
        words = (hv.words & ~self.stuck0_words) | self.stuck1_words
        return Hypervector(self.dim, words)

    def apply_words(self, rows: np.ndarray) -> np.ndarray:
        """Mask a whole (num_rows, n_words) matrix at once."""
        return (rows & ~self.stuck0_words) | self.stuck1_words

    def __repr__(self):
        return f"FaultMask(dim={self.dim}, faults={self.num_faults})"


def make_mask(dim: int, fraction: float, rng: RandomSource) -> FaultMask:
    return FaultMask.make(dim, fraction, rng)


def apply_mask(hv: Hypervector, mask: FaultMask) -> Hypervector:
    return mask.apply(hv)


def flip_noise(hv: Hypervector, fraction: float, rng: RandomSource) -> Hypervector:
    """Invert exactly round(fraction*dim) distinct positions, chosen uniformly."""
    count = _exact_count(fraction, hv.dim)
    if count == 0:
        return hv
    positions = rng.generator.choice(hv.dim, size=count, replace=False)
    bits = np.zeros(hv.dim, dtype=np.uint8)
    bits[positions] = 1
    return Hypervector(hv.dim, hv.words ^ pack_bits(bits))


def distance_matrix(rows: np.ndarray, query_words) -> np.ndarray:
    """(Q, C) int64 Hamming distances from each packed query to each prototype row."""
    # Caller input: a list of word arrays is accepted, any other shape rejected.
    query_words = np.asarray(query_words)
    if len(query_words) == 0:
        raise ValueError("no queries to score")
    if query_words.ndim != 2 or query_words.shape[1:] != np.shape(rows)[1:]:
        raise ValueError("query words must form a (queries, words per row) matrix")
    return np.column_stack([kernels.hamming_many(query_words, row) for row in rows])


def _label_index(true_idx, n_queries: int, n_labels: int) -> np.ndarray:
    true_idx = np.asarray(true_idx)
    if true_idx.shape != (n_queries,):
        raise ValueError("true_idx needs exactly one label index per query")
    if not np.isin(true_idx, np.arange(n_labels)).all():
        raise ValueError(f"true_idx holds a value outside label indices 0..{n_labels - 1}")
    return true_idx.astype(np.int64)


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
    wins = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(wins, true_idx, beats)
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
    shared=False draws an independent mask for each query. Seeds split per
    (fraction, trial) by counter, so trials are order-independent.
    """
    if mode not in ("multiclass", "pairwise"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len({q.dim for q in queries}) != 1:
        raise ValueError("fault_sweep needs at least one query, all of one dimension")
    dim = queries[0].dim
    query_words = np.vstack([q.words for q in queries])
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
                masked_queries = np.vstack([
                    FaultMask.make(dim, fraction, rng.child(qi)).apply_words(words)
                    for qi, words in enumerate(query_words)
                ])
            result.add(fraction, trial, score(masked_rows, masked_queries, true_idx))
    return result
