import csv

import numpy as np
import pytest

from hdclab import (
    FaultMask,
    Hypervector,
    RandomSource,
    complement,
    fault_sweep,
    flip_noise,
    hamming,
    pack_bits,
    random_hv,
)
from hdclab import kernels
from hdclab.algebra import _tail_mask, n_words
from hdclab.faultlab import (
    MASK_SCHEME,
    _exact_count,
    distance_matrix,
    draw_stuck,
    multiclass_accuracy,
    pairwise_accuracy,
    pairwise_from_dmat,
)
from _oracles import ref_pairwise
from conftest import hv_from_string, hv_to_string

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class TestFaultMask:
    def test_fraction_zero_is_identity(self):
        hv = random_hv(1000, RandomSource(1))
        mask = FaultMask.make(1000, 0.0, RandomSource(2))
        assert mask.num_faults == 0
        assert mask.apply(hv) == hv

    def test_fraction_one_leaves_no_pass(self):
        mask = FaultMask.make(256, 1.0, RandomSource(3))
        assert mask.num_faults == 256
        assert np.all((mask.stuck0_words | mask.stuck1_words) == ALL_ONES)

    def test_exact_count_at_078(self):
        mask = FaultMask.make(10000, 0.78, RandomSource(4))
        assert mask.num_faults == 7800

    def test_rounding_convention(self):
        assert FaultMask.make(10, 0.25, RandomSource(5)).num_faults == 3  # 2.5 rounds up

    def test_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            FaultMask.make(64, 1.1, RandomSource(6))
        with pytest.raises(ValueError):
            flip_noise(random_hv(64, RandomSource(7)), -0.1, RandomSource(8))

    def test_regeneration_deterministic(self):
        a = FaultMask.make(512, 0.3, RandomSource(9))
        b = FaultMask.make(512, 0.3, RandomSource(9))
        assert np.array_equal(a.stuck0_words, b.stuck0_words)
        assert np.array_equal(a.stuck1_words, b.stuck1_words)

    def test_hand_example(self):
        # Components: pass, stuck at 1, pass, stuck at 0.
        mask = FaultMask(4, pack_bits([0, 0, 0, 1]), pack_bits([0, 1, 0, 0]))
        assert hv_to_string(mask.apply(hv_from_string("1010"))) == "1110"

    def test_idempotent(self):
        hv = random_hv(2048, RandomSource(10))
        mask = FaultMask.make(2048, 0.4, RandomSource(11))
        once = mask.apply(hv)
        assert mask.apply(once) == once

    def test_caller_arrays_stay_writeable_and_apart(self):
        s0, s1 = pack_bits([0, 0, 0, 1]), pack_bits([0, 1, 0, 0])
        mask = FaultMask(4, s0, s1)
        assert s0.flags.writeable and s1.flags.writeable
        assert not mask.stuck0_words.flags.writeable and not mask.stuck1_words.flags.writeable
        s0[0], s1[0] = 1, 4  # the caller's own arrays, free to change
        assert mask.stuck0_words.tolist() == [8] and mask.stuck1_words.tolist() == [2]
        assert hv_to_string(mask.apply(hv_from_string("1010"))) == "1110"
        # A read-only array is already safe to keep as it is.
        s0.setflags(write=False)
        assert FaultMask(4, s0, np.zeros(1, dtype=np.uint64)).stuck0_words is s0

    def test_conflicting_masks_rejected(self):
        ones = np.array([np.uint64(1)])
        with pytest.raises(ValueError):
            FaultMask(64, ones, ones)

    def test_apply_words_matches_apply(self):
        rng = RandomSource(13)
        vecs = [random_hv(777, rng.child(i)) for i in range(4)]
        rows = np.vstack([v.words for v in vecs])
        mask = FaultMask.make(777, 0.25, RandomSource(14))
        batch = mask.apply_words(rows)
        for i, v in enumerate(vecs):
            assert np.array_equal(batch[i], mask.apply(v).words)

    def test_make_is_the_one_row_draw(self):
        mask = FaultMask.make(777, 0.3, RandomSource(15, (2,)))
        s0, s1 = draw_stuck(777, 0.3, 1, RandomSource(15, (2,)))
        assert np.array_equal(mask.stuck0_words, s0[0])
        assert np.array_equal(mask.stuck1_words, s1[0])


class TestDrawStuck:
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 777, 10000])
    @pytest.mark.parametrize("fraction", ["0", "1/D", "0.01", "0.5", "0.78", "1-1/D", "1"])
    def test_exact_count_disjoint_values_clear_tail(self, dim, fraction):
        f = {"1/D": 1 / dim, "1-1/D": 1 - 1 / dim}.get(fraction, None)
        f = float(fraction) if f is None else f
        s0, s1 = draw_stuck(dim, f, 40, RandomSource(20, (dim,)))
        assert s0.shape == s1.shape == (40, n_words(dim))
        assert s0.dtype == s1.dtype == np.uint64
        assert not np.any(s0 & s1)
        assert not np.any((s0 | s1)[:, -1] & ~_tail_mask(dim))
        counts = np.bitwise_count(s0 | s1).sum(axis=1)
        assert np.all(counts == _exact_count(f, dim))

    def test_positions_uniform(self):
        # Every position is faulted in about the same share of rows: a
        # chi-square over positions against Bernoulli(c/D) per row.
        dim, rows = 1000, 4000
        c = _exact_count(0.78, dim)
        s0, s1 = draw_stuck(dim, 0.78, rows, RandomSource(22))
        bits = np.unpackbits((s0 | s1).view(np.uint8), axis=1, bitorder="little")
        hits = bits[:, :dim].sum(axis=0)
        p = c / dim
        z = (hits - rows * p) / np.sqrt(rows * p * (1 - p))
        chi2 = float(np.sum(z**2))
        assert abs(chi2 - dim) < 6 * np.sqrt(2 * dim)
        assert np.abs(z).max() < 5.0

    def test_stuck_values_balanced(self):
        s0, s1 = draw_stuck(1000, 0.78, 4000, RandomSource(23))
        ones = np.bitwise_count(s1).sum()
        share = ones / (ones + np.bitwise_count(s0).sum())
        assert abs(share - 0.5) < 0.005  # about 8 standard deviations

    def test_rows_independent(self):
        # Two independent uniform c-subsets share c*c/D positions on average
        # (hypergeometric), with variance c p (1 - p) (D - c) / (D - 1).
        dim, rows = 1000, 4001
        c = _exact_count(0.78, dim)
        s0, s1 = draw_stuck(dim, 0.78, rows, RandomSource(24))
        faults = s0 | s1
        overlap = np.bitwise_count(faults[:-1] & faults[1:]).sum(axis=1)
        p = c / dim
        sd = np.sqrt(c * p * (1 - p) * (dim - c) / (dim - 1))
        assert abs(overlap.mean() - c * p) < 6 * sd / np.sqrt(rows - 1)
        assert 0.8 < overlap.std() / sd < 1.2

    def test_same_cell_same_block(self):
        root = RandomSource(25)
        a = draw_stuck(777, 0.78, 8, root.child(1, 0))
        b = draw_stuck(777, 0.78, 8, root.child(1, 0))
        c = draw_stuck(777, 0.78, 8, root.child(1, 1))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0] | a[1], c[0] | c[1])


class TestFlipNoise:
    def test_zero_identity(self):
        hv = random_hv(500, RandomSource(20))
        assert flip_noise(hv, 0.0, RandomSource(21)) == hv

    def test_exact_third(self):
        hv = random_hv(10000, RandomSource(22))
        assert hamming(hv, flip_noise(hv, 1 / 3, RandomSource(23))) == 3333

    def test_full_fraction_is_complement(self):
        hv = random_hv(321, RandomSource(24))
        assert flip_noise(hv, 1.0, RandomSource(25)) == complement(hv)


def _random_setup(dim, n_labels, n_queries, seed, flip=0.1):
    rng = RandomSource(seed)
    protos = [random_hv(dim, rng.child(0, i)) for i in range(n_labels)]
    rows = np.vstack([p.words for p in protos])
    queries, true_idx = [], []
    for qi in range(n_queries):
        r = rng.child(1, qi)
        lb = int(r.generator.integers(0, n_labels))
        queries.append(flip_noise(protos[lb], flip, r))
        true_idx.append(lb)
    return rows, queries, np.array(true_idx)


class TestSweep:
    def test_fraction_zero_equals_fault_free(self):
        rows, queries, true_idx = _random_setup(2000, 5, 40, 50)
        qwords = np.vstack([q.words for q in queries])
        base = multiclass_accuracy(rows, qwords, true_idx)
        res = fault_sweep(rows, queries, true_idx, [0.0], trials=3, seed=51)
        for _, trial, acc in res.rows:
            assert acc == base

    def test_independent_fraction_zero_equals_fault_free(self):
        rows, queries, true_idx = _random_setup(2000, 5, 40, 50, flip=0.49)
        qwords = np.vstack([q.words for q in queries])
        base = multiclass_accuracy(rows, qwords, true_idx)
        assert base < 1.0  # so a wrong mask could show
        res = fault_sweep(rows, queries, true_idx, [0.0], trials=3, shared=False, seed=51)
        assert [acc for _, _, acc in res.rows] == [base] * 3

    def test_accuracy_survives_heavy_shared_faults(self):
        rows, queries, true_idx = _random_setup(10000, 21, 60, 52)
        res = fault_sweep(rows, queries, true_idx, [0.78], trials=3, seed=53)
        for _, mean, _ in res.aggregate():
            assert mean >= 0.95

    def test_pairwise_mode_and_aggregate(self):
        rows, queries, true_idx = _random_setup(4096, 6, 30, 54)
        res = fault_sweep(
            rows, queries, true_idx, [0.0, 0.5], trials=2, mode="pairwise", seed=55
        )
        agg = res.aggregate()
        assert [f for f, _, _ in agg] == [0.0, 0.5]
        assert len(res.rows) == 4

    def test_independent_masks_mode_runs(self):
        rows, queries, true_idx = _random_setup(2048, 4, 20, 56)
        res = fault_sweep(
            rows, queries, true_idx, [0.3], trials=2, shared=False, seed=57
        )
        assert len(res.rows) == 2

    def test_independent_masks_differ_per_query(self):
        # Queries equal to their prototypes stay at distance 0 under one
        # shared mask; under a mask of their own they lose most of that lead.
        rows, _, _ = _random_setup(1000, 20, 0, 66)
        true_idx = np.arange(20)
        queries = [Hypervector(1000, words) for words in rows]
        shared = fault_sweep(rows, queries, true_idx, [0.9], trials=1, seed=67)
        indep = fault_sweep(rows, queries, true_idx, [0.9], trials=1, shared=False, seed=67)
        assert shared.rows[0][2] == 1.0
        assert indep.rows[0][2] < 0.5

    def test_deterministic_given_seed(self):
        rows, queries, true_idx = _random_setup(2048, 4, 20, 58)
        r1 = fault_sweep(rows, queries, true_idx, [0.4], trials=2, seed=59)
        r2 = fault_sweep(rows, queries, true_idx, [0.4], trials=2, seed=59)
        assert r1.rows == r2.rows

    def test_bad_args(self):
        rows, queries, true_idx = _random_setup(128, 3, 5, 60)
        with pytest.raises(ValueError):
            fault_sweep(rows, queries, true_idx, [0.1], trials=0)
        with pytest.raises(ValueError):
            fault_sweep(rows, queries, true_idx, [0.1], trials=1, mode="nope")

    def test_no_queries_rejected(self):
        rows, _, _ = _random_setup(128, 3, 5, 60)
        with pytest.raises(ValueError, match="at least one query"):
            fault_sweep(rows, [], [], [0.1], trials=1)

    def test_mixed_query_dims_rejected(self):
        # 1000 and 1010 bits both pack into 16 words, so only the dim check
        # tells them apart.
        rows, queries, true_idx = _random_setup(1000, 3, 4, 60)
        queries[-1] = random_hv(1010, RandomSource(65))
        with pytest.raises(ValueError, match="one dimension"):
            fault_sweep(rows, queries, true_idx, [0.1], trials=1)

    def test_csv_schema(self, tmp_path):
        rows, queries, true_idx = _random_setup(256, 3, 10, 61)
        res = fault_sweep(rows, queries, true_idx, [0.0, 0.2], trials=2, seed=62)
        out = tmp_path / "sweep.csv"
        res.write_csv(out)
        with open(out, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["fraction", "trial", "mode", "accuracy"]
        assert len(got) == 1 + 4
        assert got[1][2] == "multiclass"

    def test_json_output(self, tmp_path):
        import json

        rows, queries, true_idx = _random_setup(256, 3, 10, 63)
        res = fault_sweep(rows, queries, true_idx, [0.1], trials=2, seed=64)
        out = tmp_path / "sweep.json"
        res.write_json(out)
        doc = json.loads(out.read_text())
        assert doc["mode"] == "multiclass"
        assert doc["mask_scheme"] == MASK_SCHEME == 2
        assert len(doc["rows"]) == 2
        assert len(doc["aggregate"]) == 1


def test_shared_mask_neutrality_spot_check():
    # Shared stuck components act like dimensions that are simply absent:
    # accuracy under a fraction-f shared mask tracks fault-free accuracy at
    # dimension (1-f)*D. Checked loosely here; the real statistical version
    # lives in the acceptance suite.
    dim, f = 4000, 0.5
    rows, queries, true_idx = _random_setup(dim, 21, 150, 70, flip=0.42)
    mask = FaultMask.make(dim, f, RandomSource(71))
    masked = multiclass_accuracy(
        mask.apply_words(rows),
        np.vstack([mask.apply(q).words for q in queries]),
        true_idx,
    )
    small = dim - mask.num_faults
    srows, squeries, strue = _random_setup(small, 21, 150, 72, flip=0.42)
    reduced = multiclass_accuracy(srows, np.vstack([q.words for q in squeries]), strue)
    assert abs(masked - reduced) < 0.15


def test_pairwise_accuracy_perfect_when_separable():
    rows, queries, true_idx = _random_setup(8192, 5, 40, 73, flip=0.05)
    qwords = np.vstack([q.words for q in queries])
    assert pairwise_accuracy(rows, qwords, true_idx) == 1.0


def test_distance_matrix_matches_per_query_distances():
    rows, queries, _ = _random_setup(1000, 7, 12, 74)
    qwords = np.vstack([q.words for q in queries])
    dmat = distance_matrix(rows, qwords)
    assert dmat.shape == (12, 7)
    assert dmat.dtype == np.int64
    for qi, q in enumerate(qwords):
        assert np.array_equal(dmat[qi], kernels.hamming_many(rows, q))


@pytest.mark.parametrize("score", [multiclass_accuracy, pairwise_accuracy])
def test_scoring_zero_queries_rejected(score):
    rows, _, _ = _random_setup(128, 3, 5, 75)
    empty = np.empty((0, rows.shape[1]), dtype=np.uint64)
    with pytest.raises(ValueError, match="no queries"):
        score(rows, empty, np.array([], dtype=np.int64))


@pytest.mark.parametrize("score", [multiclass_accuracy, pairwise_accuracy])
def test_true_idx_length_must_match_queries(score):
    rows, queries, true_idx = _random_setup(128, 3, 5, 76)
    qwords = np.vstack([q.words for q in queries])
    with pytest.raises(ValueError, match="one label index per query"):
        score(rows, qwords, true_idx[:1])
    first = np.arange(len(true_idx)) == 0
    for bad in (-1, rows.shape[0]):
        with pytest.raises(ValueError, match="outside"):
            score(rows, qwords, np.where(first, bad, true_idx))
    # Label indices are integers: not floats, not even whole ones, and not bools.
    for bad in (np.where(first, 0.5, true_idx), true_idx.astype(float), first):
        with pytest.raises(ValueError, match="integer label indices"):
            score(rows, qwords, bad)


def test_pairwise_from_dmat_matches_reference_loop():
    gen = np.random.default_rng(78)
    for _ in range(200):
        n_queries, n_labels = int(gen.integers(1, 40)), int(gen.integers(1, 8))
        dmat = gen.integers(0, 3, size=(n_queries, n_labels))  # small range: many ties
        true_idx = gen.integers(0, n_labels, size=n_queries)
        want = ref_pairwise(dmat.tolist(), true_idx.tolist())
        if not want:
            with pytest.raises(ValueError, match="no query belongs"):
                pairwise_from_dmat(dmat, true_idx)
        else:
            assert pairwise_from_dmat(dmat, true_idx) == float(np.mean(want))


@pytest.mark.parametrize("score", [multiclass_accuracy, pairwise_accuracy])
def test_scorers_take_a_list_of_word_arrays(score, monkeypatch):
    # distance_matrix turns the caller's list into one checked (Q, W) array;
    # the stand-in fails if the list itself reaches the kernel.
    real_hamming_matrix = kernels.hamming_matrix
    seen = []

    def strict_hamming_matrix(queries, rows):
        assert isinstance(queries, np.ndarray)
        seen.append(queries.shape)
        return real_hamming_matrix(queries, rows)

    rows, queries, true_idx = _random_setup(1000, 4, 12, 77)
    expected = score(rows, np.vstack([q.words for q in queries]), true_idx)
    monkeypatch.setattr(kernels, "hamming_matrix", strict_hamming_matrix)
    assert score(rows, [q.words for q in queries], list(true_idx)) == expected
    assert seen == [(12, rows.shape[1])]


@pytest.mark.parametrize("score", [multiclass_accuracy, pairwise_accuracy])
def test_distance_matrix_names_bad_prototype_rows(score):
    rows, queries, true_idx = _random_setup(1000, 4, 12, 79)
    qwords = np.vstack([q.words for q in queries])
    empty = np.empty((0, rows.shape[1]), dtype=np.uint64)
    for bad in (empty, rows[0], rows.astype(np.int64)):
        with pytest.raises(ValueError, match="prototype rows must form"):
            score(bad, qwords, true_idx)
    with pytest.raises(ValueError, match="prototype rows have 15 words per row, the queries 16"):
        score(rows[:, :-1], qwords, true_idx)
    with pytest.raises(ValueError, match="query words must form"):
        score(rows, qwords.astype(np.int64), true_idx)


def test_fault_sweep_names_bad_prototype_rows():
    rows, queries, true_idx = _random_setup(1000, 4, 12, 80)
    for shared in (True, False):
        with pytest.raises(ValueError, match="prototype rows must form"):
            fault_sweep(rows[:0], queries, true_idx, [0.5], trials=1, shared=shared)
        with pytest.raises(ValueError, match="prototype rows have 17 words per row"):
            fault_sweep(np.pad(rows, ((0, 0), (0, 1))), queries, true_idx, [0.5], trials=1,
                        shared=shared)
