import numpy as np
import pytest

from hdclab import (
    Accumulator,
    Hypervector,
    RandomSource,
    bind,
    bundle,
    complement,
    hamming,
    inverse_permute,
    normalized_hamming,
    pack_bits,
    permute,
    random_hv,
    unpack_bits,
)
from hdclab.algebra import majority_words, n_words
from conftest import hv_from_string, hv_to_string
from _oracles import ref_hamming, ref_majority, ref_rotate_left, ref_rotate_right, ref_xor

D_BIG = 10000


def rand(dim, seed):
    return random_hv(dim, RandomSource(seed))


class TestPacking:
    def test_round_trip(self):
        rng = RandomSource(1)
        for dim in (1, 7, 8, 63, 64, 65, 1000):
            bits = rng.generator.integers(0, 2, size=dim).astype(np.uint8)
            assert np.array_equal(unpack_bits(pack_bits(bits), dim), bits)

    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 10000])
    def test_arrays_pack_along_the_last_axis_row_by_row(self, dim):
        bits = RandomSource(dim).generator.integers(0, 2, size=(2, 3, dim)).astype(np.uint8)
        words = pack_bits(bits)
        assert words.dtype == np.uint64 and words.shape == (2, 3, n_words(dim))
        for r, row in enumerate(bits.reshape(-1, dim)):
            want = pack_bits(row)
            # Bit i of a row is bit i % 64 of word i // 64; the padding is zero.
            assert want.tolist() == [sum(int(b) << i for i, b in enumerate(row[w:w + 64]))
                                     for w in range(0, dim, 64)]
            assert np.array_equal(words.reshape(-1, n_words(dim))[r], want)
        back = unpack_bits(words, dim)
        assert back.dtype == np.uint8 and np.array_equal(back, bits)
        padded = n_words(dim) * 64
        for r, row in enumerate(words.reshape(-1, n_words(dim))):
            assert np.array_equal(unpack_bits(words, padded).reshape(-1, padded)[r],
                                  unpack_bits(row, padded))
            assert not unpack_bits(row, padded)[dim:].any()

    def test_canonical_padding(self):
        hv = hv_from_string("1" * 65)
        assert hv.words.shape == (2,)
        assert hv.words[1] == np.uint64(1)  # bits 65..127 are zero

    def test_dirty_padding_is_scrubbed(self):
        words = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
        hv = Hypervector(4, words)
        assert hv.popcount() == 4

    def test_words_immutable(self):
        hv = rand(100, 3)
        with pytest.raises(ValueError):
            hv.words[0] = 0


class TestRandomSource:
    def test_same_seed_same_stream(self):
        assert rand(128, 7) == rand(128, 7)

    def test_children_differ_from_parent_and_siblings(self):
        root = RandomSource(5)
        a = random_hv(256, root.child(0))
        b = random_hv(256, root.child(1))
        c = random_hv(256, RandomSource(5).child(0))
        assert a != b
        assert a == c

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)

    def test_density_near_half(self):
        hv = rand(D_BIG, 11)
        assert 0.45 <= hv.popcount() / D_BIG <= 0.55

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_hv(0, RandomSource(1))


class TestBind:
    def test_hand_example(self):
        a = hv_from_string("1010")
        b = hv_from_string("0110")
        assert hv_to_string(bind(a, b)) == "1100"

    def test_self_inverse(self):
        a = rand(D_BIG, 21)
        assert bind(a, a) == Hypervector.zero(D_BIG)

    def test_unbind_recovers(self):
        a, b = rand(D_BIG, 22), rand(D_BIG, 23)
        assert bind(bind(a, b), b) == a

    def test_group_laws_exhaustive_d3(self):
        vecs = [hv_from_string(format(i, "03b")) for i in range(8)]
        zero = hv_from_string("000")
        for a in vecs:
            assert bind(a, zero) == a
            for b in vecs:
                assert bind(a, b) == bind(b, a)
                for c in vecs:
                    assert bind(bind(a, b), c) == bind(a, bind(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bind(rand(64, 1), rand(65, 1))

    def test_xor_operator_alias(self):
        a, b = rand(100, 1), rand(100, 2)
        assert (a ^ b) == bind(a, b)


class TestPermute:
    def test_hand_example(self):
        assert hv_to_string(permute(hv_from_string("1000"), 1)) == "0100"
        assert hv_to_string(inverse_permute(hv_from_string("0100"), 1)) == "1000"

    def test_zero_shift_identity(self):
        a = rand(D_BIG, 31)
        assert permute(a, 0) == a

    def test_full_cycle(self):
        a = rand(257, 32)
        assert permute(permute(a, 1), 256) == a
        assert permute(a, 257) == a
        assert inverse_permute(permute(a, 3), 3) == a

    def test_matches_reference_rotation(self):
        rng = RandomSource(33)
        for dim in (5, 64, 65, 200):
            a = random_hv(dim, rng.child(dim))
            bits = list(a.to_bits())
            for s in (0, 1, 2, dim - 1, dim, dim + 3):
                assert list(permute(a, s).to_bits()) == ref_rotate_right(bits, s)
                assert list(inverse_permute(a, s).to_bits()) == ref_rotate_left(bits, s)

    def test_distributes_over_bind(self):
        a, b = rand(D_BIG, 34), rand(D_BIG, 35)
        for s in (1, 17, 9999):
            assert permute(bind(a, b), s) == bind(permute(a, s), permute(b, s))


class TestHamming:
    def test_identity_and_complement(self):
        a = rand(D_BIG, 41)
        assert hamming(a, a) == 0
        assert hamming(a, complement(a)) == D_BIG

    def test_hand_example(self):
        a = hv_from_string("10110010")
        b = hv_from_string("10011010")
        assert hamming(a, b) == 2

    def test_symmetry_and_triangle(self):
        rng = RandomSource(42)
        for _ in range(50):
            a = random_hv(300, rng.child(0, _))
            b = random_hv(300, rng.child(1, _))
            c = random_hv(300, rng.child(2, _))
            assert hamming(a, b) == hamming(b, a)
            assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    def test_preserved_under_bind_and_permute(self):
        a, b, c = rand(D_BIG, 43), rand(D_BIG, 44), rand(D_BIG, 45)
        d = hamming(a, b)
        assert hamming(bind(c, a), bind(c, b)) == d
        assert hamming(permute(a, 12345), permute(b, 12345)) == d

    def test_matches_reference(self):
        a, b = rand(500, 46), rand(500, 47)
        assert hamming(a, b) == ref_hamming(list(a.to_bits()), list(b.to_bits()))

    def test_normalized(self):
        a = rand(1000, 48)
        assert normalized_hamming(a, complement(a)) == 1.0


class TestOrthogonality:
    def test_random_pairs_near_half(self):
        rng = RandomSource(50)
        dists = []
        for i in range(200):
            a = random_hv(D_BIG, rng.child(0, i))
            b = random_hv(D_BIG, rng.child(1, i))
            nd = normalized_hamming(a, b)
            assert 0.45 <= nd <= 0.55
            dists.append(nd)
        assert 0.495 <= float(np.mean(dists)) <= 0.505


class TestAccumulator:
    def test_single_add(self):
        acc = Accumulator(4)
        acc.add(hv_from_string("1010"))
        assert list(acc.counts) == [1, 0, 1, 0]
        assert acc.items_added == 1

    def test_repeated_add(self):
        a = hv_from_string("0110")
        acc = Accumulator(4)
        for _ in range(5):
            acc.add(a)
        assert list(acc.counts) == [0, 5, 5, 0]

    def test_add_with_complement_levels_counts(self):
        a = rand(200, 51)
        acc = Accumulator(200)
        acc.add(a)
        acc.add(complement(a))
        assert np.all(acc.counts == 1)
        assert acc.items_added == 2

    def test_majority_of_one(self):
        a = rand(D_BIG, 52)
        acc = Accumulator(D_BIG)
        acc.add(a)
        assert acc.threshold() == a

    def test_strict_majority_hand_example(self):
        acc = Accumulator(4)
        for bits in ("1011", "1010", "1000"):  # counts 3, 0, 2, 1 of 3
            acc.add(hv_from_string(bits))
        assert acc.counts.tolist() == [3, 0, 2, 1]
        assert hv_to_string(acc.threshold()) == "1010"

    def test_empty_accumulator_rejected(self):
        with pytest.raises(ValueError):
            Accumulator(8).threshold()

    def test_tie_handling(self):
        acc = Accumulator(4)
        for bits in ("1011", "0010"):  # counts 1, 0, 2, 1 of 2
            acc.add(hv_from_string(bits))
        assert acc.counts.tolist() == [1, 0, 2, 1]
        assert hv_to_string(acc.threshold()) == "1011"  # deterministic ties -> 1
        seen = set()
        for s in range(20):
            seen.add(hv_to_string(acc.threshold(RandomSource(s))))
        assert len(seen) > 1  # random ties actually vary
        for s in (3, 9):
            one = acc.threshold(RandomSource(s))
            again = acc.threshold(RandomSource(s))
            assert one == again

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Accumulator(8).add(rand(9, 1))

    def test_fewer_than_2_pow_31_additions(self):
        acc = Accumulator(4)
        acc._items = 2**31 - 2  # the literal bound, so a moved _MAX_ITEMS fails here
        acc.add(hv_from_string("1000"))
        assert acc.items_added == 2**31 - 1
        with pytest.raises(ValueError, match="fewer than 2\\*\\*31 additions"):
            acc.add(hv_from_string("1000"))
        assert acc.items_added == 2**31 - 1 and acc.counts.tolist() == [1, 0, 0, 0]

    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 100, D_BIG])
    @pytest.mark.parametrize("items", [1, 2, 3, 4])
    def test_threshold_matches_majority_oracle(self, dim, items):
        rng = RandomSource(10 * dim + items)
        vecs = [random_hv(dim, rng.child(j)) for j in range(items)]
        acc = Accumulator(dim)
        for v in vecs:
            acc.add(v)
        bits = [v.to_bits().tolist() for v in vecs]
        # A tie at component i (even items only) takes bit i of the seeded words.
        ties = [i for i, c in enumerate(np.sum(bits, axis=0)) if 2 * c == items]
        tie_bits = unpack_bits(RandomSource(7).words(n_words(dim)), dim).tolist()
        for got, want in ((acc.threshold(), ref_majority(bits, tie_value=1)),
                          (acc.threshold(RandomSource(7)), ref_majority(bits, tie_bits))):
            assert got.to_bits().tolist() == want
            assert not got.words.flags.writeable
            tail = np.unpackbits(got.words.view(np.uint8), bitorder="little")[dim:]
            assert not tail.any()
        if items % 2 == 0 and dim >= 64:
            assert ties  # the tie path ran
            assert {tie_bits[i] for i in ties} == {0, 1}  # and drew both values


class TestMajorityWords:
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 100, 1000])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_each_row_matches_the_majority_oracle(self, dim, dtype):
        # Rows of odd and even item counts in one matrix, each row its own
        # vectors, with per-row tie words and with ties to 1.
        rng = RandomSource(dim)
        items = [1, 2, 3, 4, 6, 5]
        vecs = [[random_hv(dim, rng.child(r, j)).to_bits().tolist() for j in range(k)]
                for r, k in enumerate(items)]
        counts = np.array([np.sum(v, axis=0) for v in vecs], dtype=dtype)
        ties = rng.child(99).words(len(items) * n_words(dim)).reshape(len(items), -1)
        got_random = majority_words(counts, items, ties)
        got_ones = majority_words(counts, items)
        assert got_random.shape == got_ones.shape == (len(items), n_words(dim))
        assert not got_random.flags.writeable and not got_ones.flags.writeable
        for r, v in enumerate(vecs):
            tie_bits = unpack_bits(ties[r], dim).tolist()
            assert unpack_bits(got_random[r], n_words(dim) * 64)[dim:].sum() == 0
            assert unpack_bits(got_random[r], dim).tolist() == ref_majority(v, tie_bits)
            assert unpack_bits(got_ones[r], dim).tolist() == ref_majority(v, 1)

    def test_odd_rows_ignore_their_tie_words(self):
        # Count 1 of 3 items is half of 3 rounded down, but no tie.
        counts = np.array([[1, 2, 0, 3], [1, 2, 0, 2]], dtype=np.uint8)
        zeros = np.zeros((2, 1), dtype=np.uint64)
        ones = np.full((2, 1), 2**64 - 1, dtype=np.uint64)
        for ties in (zeros, ones, None):
            got = majority_words(counts, [3, 2], ties)
            assert unpack_bits(got[0], 4).tolist() == [0, 1, 0, 1]
        assert unpack_bits(majority_words(counts, [3, 2], zeros)[1], 4).tolist() == [0, 1, 0, 1]
        assert unpack_bits(majority_words(counts, [3, 2], ones)[1], 4).tolist() == [1, 1, 0, 1]


class TestBundle:
    def test_single(self):
        a = rand(D_BIG, 61)
        assert bundle([a]) == a

    def test_two_copies_beat_one(self):
        a, b = rand(16, 62), rand(16, 63)
        got = bundle([a, b, a])
        want = ref_majority([list(v.to_bits()) for v in (a, b, a)])
        assert list(got.to_bits()) == want

    def test_matches_majority_oracle_d16(self):
        rng = RandomSource(64)
        for trial in range(30):
            vecs = [random_hv(16, rng.child(trial, j)) for j in range(3)]
            got = bundle(vecs)  # odd k: no ties, rng-free majority
            assert list(got.to_bits()) == ref_majority([list(v.to_bits()) for v in vecs])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bundle([])

    def test_similar_to_arguments(self):
        rng = RandomSource(65)
        a, b, c = (random_hv(D_BIG, rng.child(i)) for i in range(3))
        s = bundle([a, b, c])
        # expected distance 0.25*D; 0.5 - 4 sigma with sigma = sqrt(D*3/16)/D
        sigma = np.sqrt(3 / 16 / D_BIG)
        cut = 0.5 - 4 * sigma
        for v in (a, b, c):
            assert normalized_hamming(s, v) < cut

    def test_arguments_closer_than_fresh_vectors(self):
        rng = RandomSource(66)
        wins = 0
        for t in range(100):
            vecs = [random_hv(D_BIG, rng.child(t, j)) for j in range(3)]
            s = bundle(vecs)
            fresh = random_hv(D_BIG, rng.child(t, 99))
            if all(hamming(s, v) < hamming(s, fresh) for v in vecs):
                wins += 1
        assert wins >= 95


def test_ref_xor_consistency():
    a, b = rand(64, 71), rand(64, 72)
    assert list(bind(a, b).to_bits()) == ref_xor(list(a.to_bits()), list(b.to_bits()))
