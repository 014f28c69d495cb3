import numpy as np
import pytest

from hdclab import (
    DEFAULT_ALPHABET,
    ItemMemory,
    RandomSource,
    flip_noise,
    hamming,
    normalized_hamming,
)
from conftest import hv_from_string


@pytest.fixture(scope="module")
def latin():
    return ItemMemory.build(list(DEFAULT_ALPHABET), 10000, seed=17)


def test_build_counts_and_determinism(latin):
    assert len(latin) == 27
    again = ItemMemory.build(list(DEFAULT_ALPHABET), 10000, seed=17)
    for ch in DEFAULT_ALPHABET:
        assert latin.lookup(ch) == again.lookup(ch)


def test_single_symbol_memory():
    mem = ItemMemory.build(["a"], 64, seed=1)
    assert len(mem) == 1
    assert mem.cleanup(mem.lookup("a")) == ("a", 0)


def test_duplicate_symbols_rejected():
    with pytest.raises(ValueError):
        ItemMemory.build(["a", "b", "a"], 64, seed=1)


def test_empty_symbols_rejected():
    with pytest.raises(ValueError):
        ItemMemory.build([], 64, seed=1)


def test_lookup_unknown_symbol(latin):
    with pytest.raises(KeyError):
        latin.lookup("é")


def test_lookup_stable(latin):
    assert latin.lookup("a") == latin.lookup("a")


def test_lookup_is_a_read_only_view_of_the_packed_matrix(latin):
    v = latin.lookup("c")
    assert np.shares_memory(v.words, latin.words_matrix())
    assert np.array_equal(v.words, latin.words_matrix()[latin.index_of("c")])
    assert not v.words.flags.writeable


def test_pairwise_distances_near_half(latin):
    rows = [latin.lookup(ch) for ch in DEFAULT_ALPHABET]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            assert 0.45 <= normalized_hamming(rows[i], rows[j]) <= 0.55


def test_cleanup_exact(latin):
    sym, dist = latin.cleanup(latin.lookup("q"))
    assert (sym, dist) == ("q", 0)


def test_cleanup_distance_matches_hamming(latin):
    noisy = flip_noise(latin.lookup("k"), 0.2, RandomSource(5))
    sym, dist = latin.cleanup(noisy)
    assert dist == hamming(noisy, latin.lookup(sym))


def test_cleanup_tie_goes_to_lower_index():
    v = hv_from_string("10100000")
    mem = ItemMemory(["x", "y"], [v, v], 8)
    probe = hv_from_string("10100001")
    assert mem.cleanup(probe) == ("x", 1)


def test_cleanup_dimension_mismatch(latin):
    with pytest.raises(ValueError):
        latin.cleanup(hv_from_string("1010"))


def test_recovery_monotone_in_noise():
    # Small dimension so the rates actually move off 1.0 inside the range.
    mem = ItemMemory.build([str(i) for i in range(27)], 256, seed=3)
    root = RandomSource(4)
    rates = []
    for fi, frac in enumerate((0.1, 0.2, 0.3, 0.4)):
        hits = 0
        trials = 400
        for t in range(trials):
            rng = root.child(fi, t)
            idx = int(rng.generator.integers(0, 27))
            noisy = flip_noise(mem.lookup(str(idx)), frac, rng)
            hits += mem.cleanup(noisy)[0] == str(idx)
        rates.append(hits / trials)
    assert rates[0] > rates[-1]  # the curve does fall over this span
    for lo, hi in zip(rates, rates[1:]):
        margin = 2 * np.sqrt(lo * (1 - lo) / 400 + hi * (1 - hi) / 400) + 1e-9
        assert hi <= lo + margin
