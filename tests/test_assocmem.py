import numpy as np
import pytest

from hdclab import (
    AssociativeMemory,
    NotTrainedError,
    RandomSource,
    bind,
    complement,
    flip_noise,
    hamming,
    random_hv,
)


def make_memory(dim, labels, seed):
    rng = RandomSource(seed)
    mem = AssociativeMemory(dim)
    vecs = {}
    for i, lb in enumerate(labels):
        vecs[lb] = random_hv(dim, rng.child(i))
        mem.add(lb, vecs[lb])
    return mem, vecs


def test_train_once_classify_exact():
    mem, vecs = make_memory(1000, ["en", "fr"], 1)
    res = mem.classify_full(vecs["en"])
    assert (res.label, res.distance) == ("en", 0)


def test_holds_21_rows():
    labels = [f"lang{i:02d}" for i in range(21)]
    mem, _ = make_memory(500, labels, 2)
    assert len(mem) == 21
    assert mem.labels == labels
    assert mem.rows().shape[0] == 21


def test_duplicate_training_is_stable():
    # A label holds one finished prototype; a second add for it raises.
    mem = AssociativeMemory(800)
    v = random_hv(800, RandomSource(3))
    mem.add("x", v)
    with pytest.raises(ValueError, match="'x' already has a prototype"):
        mem.add("x", random_hv(800, RandomSource(4)))
    assert mem.prototype("x") == v
    assert mem.labels == ["x"]


def test_empty_memory_raises():
    with pytest.raises(NotTrainedError):
        AssociativeMemory(64).classify_full(random_hv(64, RandomSource(5)))


def test_dimension_mismatch():
    mem, _ = make_memory(128, ["a"], 6)
    with pytest.raises(ValueError):
        mem.classify_full(random_hv(64, RandomSource(7)))
    with pytest.raises(ValueError):
        mem.add("b", random_hv(129, RandomSource(7)))


def test_noisy_query_recovers_class():
    labels = [str(i) for i in range(21)]
    mem, vecs = make_memory(10000, labels, 8)
    root = RandomSource(9)
    for t in range(50):
        rng = root.child(t)
        lb = labels[int(rng.generator.integers(0, 21))]
        noisy = flip_noise(vecs[lb], 0.1, rng)
        assert mem.classify_full(noisy).label == lb


def test_tie_goes_to_first_stored_label():
    mem = AssociativeMemory(64)
    v = random_hv(64, RandomSource(10))
    mem.add("b", v)
    mem.add("a", v)
    assert mem.classify_full(v).label == "b"  # stored first, wins the tie


def test_classify_full_distances_check_out():
    mem, vecs = make_memory(512, ["p", "q", "r"], 11)
    q = random_hv(512, RandomSource(12))
    res = mem.classify_full(q)
    assert res.distance == min(d for _, d in res.all_distances)
    for lb, d in res.all_distances:
        assert d == hamming(q, mem.prototype(lb))


def test_classification_result_is_compact():
    mem, _ = make_memory(512, ["p", "q", "r"], 11)
    q = random_hv(512, RandomSource(12))
    res, again = mem.classify_full(q), mem.classify_full(q)
    assert res.labels is again.labels  # one tuple, shared with the memory
    assert res.distances.dtype == np.int64 and not res.distances.flags.writeable
    assert res.all_distances == tuple(zip(("p", "q", "r"), res.distances.tolist()))
    assert all(type(d) is int for _, d in res.all_distances)
    assert res == again and res != mem.classify_full(complement(q))
    assert not hasattr(res, "__dict__")
    with pytest.raises(AttributeError):
        res.label = "x"


def test_storage_order_invariance_without_ties():
    labels = ["a", "b", "c", "d"]
    mem1, vecs = make_memory(2000, labels, 13)
    mem2 = AssociativeMemory(2000)
    for lb in reversed(labels):
        mem2.add(lb, vecs[lb])
    q = flip_noise(vecs["c"], 0.2, RandomSource(14))
    assert mem1.classify_full(q).label == mem2.classify_full(q).label


def test_binding_invariance():
    mem, vecs = make_memory(1024, ["a", "b", "c"], 15)
    c = random_hv(1024, RandomSource(16))
    q = flip_noise(vecs["b"], 0.15, RandomSource(17))
    shifted = AssociativeMemory(1024)
    for lb in mem.labels:
        shifted.add(lb, bind(mem.prototype(lb), c))
    assert shifted.classify_full(bind(q, c)).label == mem.classify_full(q).label


def test_from_rows_round_trip():
    mem, _ = make_memory(300, ["x", "y", "z"], 21)
    clone = AssociativeMemory.from_rows(mem.labels, mem.rows(), 300)
    assert clone.labels == mem.labels
    assert np.array_equal(clone.rows(), mem.rows())


def test_rejected_add_leaves_memory_unchanged():
    mem = AssociativeMemory(128)
    v = random_hv(128, RandomSource(24))
    with pytest.raises(ValueError, match="dimension mismatch"):
        mem.add("x", random_hv(129, RandomSource(24)))
    assert len(mem) == 0
    assert "x" not in mem
    mem.add("y", v)
    assert mem.classify_full(v).label == "y"


def test_from_rows_memory_reads_prototypes():
    mem, vecs = make_memory(300, ["x", "y"], 25)
    clone = AssociativeMemory.from_rows(mem.labels, mem.rows(), 300)
    assert "y" in clone and "z" not in clone
    assert clone.prototype("y") == mem.prototype("y") == vecs["y"]
    with pytest.raises(KeyError):
        clone.prototype("z")
    assert np.array_equal(clone.rows(), mem.rows())


def test_from_rows_copies_rows_and_clears_tail_bits():
    rows = np.full((2, 2), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    clone = AssociativeMemory.from_rows(["a", "b"], rows, 100)
    assert clone.rows()[0, 1] == (1 << 36) - 1
    assert clone.prototype("b").popcount() == 100
    assert rows[0, 1] == 0xFFFFFFFFFFFFFFFF  # the caller's array is untouched
    assert not clone.rows().flags.writeable
