import csv

import numpy as np
import pytest

from hdclab import (
    FaultMask,
    RandomSource,
    apply_mask,
    complement,
    fault_sweep,
    flip_noise,
    hamming,
    make_mask,
    random_hv,
)
from hdclab import kernels
from hdclab.faultlab import (
    PASS,
    STUCK0,
    STUCK1,
    distance_matrix,
    multiclass_accuracy,
    pairwise_accuracy,
    pairwise_from_dmat,
)
from _oracles import ref_pairwise
from conftest import hv_from_string, hv_to_string


class TestFaultMask:
    def test_fraction_zero_is_identity(self):
        hv = random_hv(1000, RandomSource(1))
        mask = make_mask(1000, 0.0, RandomSource(2))
        assert mask.num_faults == 0
        assert apply_mask(hv, mask) == hv

    def test_fraction_one_leaves_no_pass(self):
        mask = make_mask(256, 1.0, RandomSource(3))
        assert mask.num_faults == 256
        assert not np.any(mask.states() == PASS)

    def test_exact_count_at_078(self):
        mask = make_mask(10000, 0.78, RandomSource(4))
        assert mask.num_faults == 7800

    def test_rounding_convention(self):
        assert make_mask(10, 0.25, RandomSource(5)).num_faults == 3  # 2.5 rounds up

    def test_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            make_mask(64, 1.1, RandomSource(6))
        with pytest.raises(ValueError):
            flip_noise(random_hv(64, RandomSource(7)), -0.1, RandomSource(8))

    def test_regeneration_deterministic(self):
        a = make_mask(512, 0.3, RandomSource(9))
        b = make_mask(512, 0.3, RandomSource(9))
        assert np.array_equal(a.stuck0_words, b.stuck0_words)
        assert np.array_equal(a.stuck1_words, b.stuck1_words)

    def test_hand_example(self):
        mask = FaultMask.from_states([PASS, STUCK1, PASS, STUCK0])
        assert hv_to_string(mask.apply(hv_from_string("1010"))) == "1110"

    def test_idempotent(self):
        hv = random_hv(2048, RandomSource(10))
        mask = make_mask(2048, 0.4, RandomSource(11))
        once = mask.apply(hv)
        assert mask.apply(once) == once

    def test_states_round_trip(self):
        mask = make_mask(100, 0.5, RandomSource(12))
        again = FaultMask.from_states(mask.states())
        assert np.array_equal(again.stuck0_words, mask.stuck0_words)
        assert np.array_equal(again.stuck1_words, mask.stuck1_words)

    def test_conflicting_masks_rejected(self):
        ones = np.array([np.uint64(1)])
        with pytest.raises(ValueError):
            FaultMask(64, ones, ones)

    def test_apply_words_matches_apply(self):
        rng = RandomSource(13)
        vecs = [random_hv(777, rng.child(i)) for i in range(4)]
        rows = np.vstack([v.words for v in vecs])
        mask = make_mask(777, 0.25, RandomSource(14))
        batch = mask.apply_words(rows)
        for i, v in enumerate(vecs):
            assert np.array_equal(batch[i], mask.apply(v).words)


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
        assert len(doc["rows"]) == 2
        assert len(doc["aggregate"]) == 1


def test_shared_mask_neutrality_spot_check():
    # Shared stuck components act like dimensions that are simply absent:
    # accuracy under a fraction-f shared mask tracks fault-free accuracy at
    # dimension (1-f)*D. Checked loosely here; the real statistical version
    # lives in the acceptance suite.
    dim, f = 4000, 0.5
    rows, queries, true_idx = _random_setup(dim, 21, 150, 70, flip=0.42)
    mask = make_mask(dim, f, RandomSource(71))
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
    for bad in (-1, rows.shape[0], 0.5):
        with pytest.raises(ValueError, match="outside"):
            score(rows, qwords, np.where(np.arange(len(true_idx)) == 0, bad, true_idx))


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
    real_hamming_many = kernels.hamming_many

    def strict_hamming_many(rows, q):
        assert isinstance(rows, np.ndarray) and rows.ndim == 2
        return real_hamming_many(rows, q)

    rows, queries, true_idx = _random_setup(1000, 4, 12, 77)
    expected = score(rows, np.vstack([q.words for q in queries]), true_idx)
    monkeypatch.setattr(kernels, "hamming_many", strict_hamming_many)
    assert score(rows, [q.words for q in queries], list(true_idx)) == expected
