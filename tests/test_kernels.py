import numpy as np
import pytest

from hdclab import RandomSource, kernels, pack_bits, random_hv, unpack_bits
from hdclab.algebra import n_words
from _oracles import ref_hamming


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


@pytest.mark.parametrize("n_queries,n_rows,dim", [
    (1, 1, 64), (1, 21, 1000), (7, 1, 130), (12, 5, 1), (30, 21, 10000), (5, 3, 65 * 64 + 3),
])
def test_hamming_matrix_matches_per_query_kernel_and_oracle(n_queries, n_rows, dim):
    rng = RandomSource(dim, (n_queries, n_rows))
    queries = [random_hv(dim, rng.child(0, q)) for q in range(n_queries)]
    rows = [random_hv(dim, rng.child(1, c)) for c in range(n_rows)]
    qwords = np.vstack([q.words for q in queries])
    rwords = np.vstack([r.words for r in rows])
    got = kernels.hamming_matrix(qwords, rwords)
    assert got.shape == (n_queries, n_rows) and got.dtype == np.int64
    for qi, q in enumerate(queries):
        assert np.array_equal(got[qi], kernels.hamming_many(rwords, q.words))
    # The pure-Python oracle on a few cells only: it walks every bit.
    for qi, c in {(0, 0), (n_queries - 1, n_rows - 1), (n_queries // 2, n_rows // 2)}:
        want = ref_hamming(list(queries[qi].to_bits()), list(rows[c].to_bits()))
        assert got[qi, c] == want


def test_hamming_matrix_counts_past_uint16():
    # A distance of 70,000 wraps in a 16-bit accumulator (to 4,464).
    dim = 70000
    ones = pack_bits(np.ones(dim, dtype=np.uint8))
    zeros = pack_bits(np.zeros(dim, dtype=np.uint8))
    queries = np.vstack([ones, zeros, ones])
    got = kernels.hamming_matrix(queries, np.vstack([zeros, ones]))
    assert got.tolist() == [[dim, 0], [0, dim], [dim, 0]]


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
    counts = np.zeros((1, 64), dtype=np.int64)
    assert kernels.accumulate_ngrams(table, [[syms]], counts) == 7


@pytest.mark.parametrize("dim,n,length", [
    (128, 3, 50), (100, 1, 50), (100, 2, 50), (100, 4, 50), (10000, 3, 50),
    (100, 3, kernels.NGRAM_CHUNK + 100),  # two blocks of windows
])
def test_accumulate_matches_explicit_sum(dim, n, length):
    table, syms = _accumulate_inputs(dim=dim, n=n, num_symbols=4, length=length, seed=7)
    counts = np.zeros((1, dim), dtype=np.int64)
    assert kernels.accumulate_ngrams(table, [[syms]], counts) == length - n + 1
    want = np.zeros((1, dim), dtype=np.int64)
    for i in range(length - n + 1):
        v = table[0][syms[i]]
        for j in range(1, n):
            v = v ^ table[j][syms[i + j]]
        want += unpack_bits(v, dim)
    assert np.array_equal(counts, want)


def _explicit_counts(table, syms, dim):
    """Per-window sum: XOR each window's rows, unpack, add; no blocks."""
    n = table.shape[0]
    k = syms.shape[0] - n + 1
    words = table[0][syms[:k]]
    for j in range(1, n):
        words = words ^ table[j][syms[j : j + k]]
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=dim, bitorder="little")
    return bits.sum(axis=0, dtype=np.int64)


def _count_cases():
    """(dim, n, nsym, k): k on both sides of the nsym**n <= 4k boundary
    (two consecutive k, so one odd and one even), plus two-block streams."""
    cases = []
    for dim in (1, 63, 65, 100, 128, 10000):
        for n in (1, 2, 3, 4):
            for nsym in (1, 4, 8, 27):
                if (n, nsym) == (4, 27) and dim not in (100, 128):
                    continue  # ~133k windows: 1.3 GB to unpack at D = 10000, and
                    # covered at dims 100 and 128 elsewhere
                edge = -(-nsym**n // 4)  # smallest k that contracts
                ks = (edge - 1, edge) if edge > 1 else (1, 2)  # every k contracts
                cases += [(dim, n, nsym, k) for k in ks]
    chunk = kernels.NGRAM_CHUNK
    cases += [(100, 3, 4, chunk + 1), (128, 2, 27, 2 * chunk), (10000, 3, 27, chunk + 7)]
    # Stream block edges (STREAM_BLOCK = 255). With one symbol every window is
    # the same vector, so a column reaches k: a uint8 block sum of 256 would wrap.
    cases += [(dim, 3, nsym, k) for dim in (100, 10000) for nsym in (1, 27)
              for k in (254, 255, 256, 510, 511)]
    # The carry-save level: blocks of fewer than three windows have no carry
    # rows, 3-7 windows one or two carry rows and a remainder, 253 the most
    # carry rows below a full block. (One symbol at k = 1 and 2 is above.)
    carry = [(dim, 3, nsym, k) for dim in (100, 10000) for nsym in (1, 27)
             for k in (1, 2, 3, 4, 5, 6, 7, 253)]
    return cases + [case for case in carry if case not in cases]


@pytest.mark.parametrize("dim,n,nsym,k", _count_cases())
def test_count_paths_match_explicit_sum(dim, n, nsym, k):
    table, syms = _accumulate_inputs(dim=dim, n=n, num_symbols=nsym,
                                     length=k + n - 1, seed=dim + 10 * n + nsym)
    start = np.arange(dim, dtype=np.int64)  # counts are added to, not overwritten
    want = start + _explicit_counts(table, syms, dim)
    stream, contraction, routed = start.copy(), start[np.newaxis].copy(), start[np.newaxis].copy()
    assert kernels._count_stream(table, syms, stream) == k
    kernels._count_contraction(table, [[syms]], [(0, None)], contraction)
    assert kernels.accumulate_ngrams(table, [[syms]], routed) == k
    assert np.array_equal(stream, want)
    assert np.array_equal(contraction[0], stream)
    assert np.array_equal(routed[0], want)


def _group_cases():
    """(dim, n, nsym, groups): one to five groups in one call, over 8 or 27 symbols."""
    return [(dim, n, nsym, groups)
            for dim in (1, 63, 65, 100, 10000) for n in (1, 2, 3, 4) for nsym in (8, 27)
            if (n, nsym) != (4, 27)  # never contracts: 4 * 27**3 > NGRAM_CHUNK
            for groups in (1, 2, 5)]


@pytest.mark.parametrize("dim,n,nsym,groups", _group_cases())
def test_many_group_calls_match_explicit_sums(monkeypatch, dim, n, nsym, groups):
    # Window counts per text, by group: one contracted text; a contracted and
    # a streamed one; two contracted ones (one histogram row); one streamed;
    # and three texts, streamed between two contracted ones (one group twice
    # in a pass).
    edge = -(-nsym**n // 4)  # smallest k that contracts
    lengths = [[edge], [edge + 1, edge - 1], [edge + 2, edge + 5], [1], [edge + 7, 2, edge + 3]]
    lengths = lengths[:groups]
    table, pool = _accumulate_inputs(dim=dim, n=n, num_symbols=nsym,
                                     length=sum(map(sum, lengths)) + 64 * n,
                                     seed=dim + 10 * n + nsym + 1000 * groups)
    streams, lo = [], 0
    for ks in lengths:
        streams.append([pool[lo : lo + k + n - 1] for k in ks])
        lo += sum(ks) + n
    for ks, group in zip(lengths, streams):
        assert [kernels._contracts(nsym, n, k) for k in ks] == [k >= edge for k in ks]
    want = np.array([sum(_explicit_counts(table, syms, dim) for syms in group)
                     for group in streams])
    total = sum(map(sum, lengths))
    start = np.arange(groups * dim, dtype=np.int64).reshape(groups, dim)
    # Passes of CONTRACT_ROWS texts and of one or two; int64 counts and the
    # narrowest type that holds each group's windows.
    for rows in (kernels.CONTRACT_ROWS, 2, 1):
        monkeypatch.setattr(kernels, "CONTRACT_ROWS", rows)
        counts = start.copy()
        assert kernels.accumulate_ngrams(table, streams, counts) == total
        assert np.array_equal(counts, start + want)
        narrow = np.zeros((groups, dim), dtype=np.min_scalar_type(max(map(sum, lengths))))
        assert kernels.accumulate_ngrams(table, streams, narrow) == total
        assert narrow.dtype != np.int64 and np.array_equal(narrow, want)


def test_group_row_keeps_float32_exact():
    # A group whose streams all contract is one histogram row while its
    # windows total below 2**24; at 2**24 each stream is a row of its own.
    table = np.zeros((3, 27, 1), dtype=np.uint64)
    half = np.empty(2**23 + 2, dtype=np.uint8)  # 2**23 windows; never read
    assert kernels._dispatch(table, 4, [half[1:], half], None) == (2**24 - 1, [(4, None)])
    assert kernels._dispatch(table, 4, [half, half], None) == (2**24, [(4, 0), (4, 1)])
    short = np.zeros(5, dtype=np.uint8)  # streams
    counts = np.zeros((5, 64), dtype=np.int64)
    assert kernels._dispatch(table, 4, [half, short], counts) == (2**23 + 3, [(4, 0)])
    assert kernels._dispatch(table, 4, [], counts) == (0, [])


def test_dispatch_rule():
    contracts = kernels._contracts
    assert not contracts(27, 3, 100 - 2)  # a 100-char sentence streams
    assert contracts(27, 3, 20000 - 2)  # a 20k-char trigram text contracts
    assert not contracts(27, 4, 20000 - 3)  # (27**3, dim) intermediate too big
    assert not contracts(27, 4, 10**7)
    assert contracts(27, 3, 2**24 - 1)
    assert not contracts(27, 3, 2**24)  # float32 would no longer be exact
    assert not contracts(27, 3, 0)
    assert contracts(4, 3, 16) and not contracts(4, 3, 15)  # 64 bins <= 4k
    assert contracts(4, 6, 1024)  # 4 * 4**5 == NGRAM_CHUNK, the size bound's edge
    assert not contracts(4, 7, 2**20)
    # n up to dim must not build a huge power.
    assert not contracts(27, 10000, 10**6)
    assert not contracts(2, 10000, 10**6)
    assert contracts(1, 10000, 1)


@pytest.mark.parametrize("length,path", [(100, "_count_stream"), (20000, "_count_contraction")])
def test_accumulate_ngrams_dispatches_on_length(monkeypatch, length, path):
    table, syms = _accumulate_inputs(dim=64, n=3, num_symbols=27, length=length, seed=10)
    called = []

    def spy(name):
        real = getattr(kernels, name)

        def count(*args):
            called.append(name)
            return real(*args)
        return count

    for name in ("_count_stream", "_count_contraction"):
        monkeypatch.setattr(kernels, name, spy(name))
    counts = np.zeros((1, 64), dtype=np.int64)
    assert kernels.accumulate_ngrams(table, [[syms]], counts) == length - 2
    assert called == [path]


def test_markov_sample_handles_uniform_one_edge():
    cum = np.array([[[0.5, 1.0], [0.5, 1.0]]])
    out = kernels.markov_sample(cum, np.array([0]), np.array([[0.9999999, 1.0 - 1e-16, 1.0]]))
    assert out.tolist() == [[1, 1, 1]]
