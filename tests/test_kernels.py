import numpy as np
import pytest

from hdclab import RandomSource, kernels, random_hv, unpack_bits
from hdclab.algebra import n_words


def _pair(dim, seed):
    rng = RandomSource(seed)
    return random_hv(dim, rng), random_hv(dim, rng)


def test_backend_reports_a_known_name():
    assert kernels.backend() == "numpy"


def test_popcount_words():
    a, _ = _pair(1000, 1)
    assert kernels.popcount_words(a.words) == int(a.to_bits().sum())


def test_hamming_matches_bitloop():
    for dim in (64, 100, 10000):
        a, b = _pair(dim, dim)
        want = kernels.hamming_bitloop(a.to_bits(), b.to_bits())
        assert kernels.hamming_words(a.words, b.words) == want


def test_hamming_many():
    rng = RandomSource(3)
    vecs = [random_hv(500, rng) for _ in range(8)]
    q = random_hv(500, rng)
    rows = np.vstack([v.words for v in vecs])
    got = kernels.hamming_many(rows, q.words)
    want = [kernels.hamming_bitloop(v.to_bits(), q.to_bits()) for v in vecs]
    assert list(got) == want


def _accumulate_inputs(dim, n, num_symbols, length, seed):
    rng = RandomSource(seed)
    table = np.empty((n, num_symbols, n_words(dim)), dtype=np.uint64)
    for j in range(n):
        for s in range(num_symbols):
            table[j, s] = random_hv(dim, rng).words
    syms = rng.generator.integers(0, num_symbols, size=length).astype(np.int64)
    return table, syms


def test_accumulate_ngrams_window_count():
    table, syms = _accumulate_inputs(dim=64, n=4, num_symbols=5, length=10, seed=6)
    counts = np.zeros(64, dtype=np.int64)
    assert kernels.accumulate_ngrams(table, syms, counts) == 7


@pytest.mark.parametrize("dim,n,length", [
    (128, 3, 50), (100, 1, 50), (100, 2, 50), (100, 4, 50), (10000, 3, 50),
    (100, 3, kernels.NGRAM_CHUNK + 100),  # two blocks of windows
])
def test_accumulate_matches_explicit_sum(dim, n, length):
    table, syms = _accumulate_inputs(dim=dim, n=n, num_symbols=4, length=length, seed=7)
    counts = np.zeros(dim, dtype=np.int64)
    assert kernels.accumulate_ngrams(table, syms, counts) == length - n + 1
    want = np.zeros(dim, dtype=np.int64)
    for i in range(length - n + 1):
        v = table[0][syms[i]]
        for j in range(1, n):
            v = v ^ table[j][syms[i + j]]
        want += unpack_bits(v, dim)
    assert np.array_equal(counts, want)


def test_markov_sample_handles_uniform_one_edge():
    cum = np.array([[0.5, 1.0], [0.5, 1.0]])
    out = kernels.markov_sample(cum, 0, np.array([0.9999999, 1.0 - 1e-16]))
    assert set(out) <= {0, 1}
