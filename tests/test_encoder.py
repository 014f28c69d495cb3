import gc

import numpy as np
import pytest

from hdclab import (
    DEFAULT_ALPHABET,
    DataError,
    EncoderConfig,
    ItemMemory,
    RandomSource,
    TextEncoder,
    TextTooShortError,
    bind,
    decode_field,
    encode_record,
    normalized_hamming,
    normalize_text,
    kernels,
    permute,
)
from hdclab import encoder as encoder_module
from hdclab.encoder import symbol_codes
from _oracles import ref_encode_text, ref_encode_texts, ref_ngram


class TestNormalize:
    def test_hello_world(self):
        assert normalize_text("Hello, World!") == "hello world"

    def test_non_latin_dropped(self):
        assert normalize_text("Ça va") == "a va"

    def test_strip_and_collapse(self):
        assert normalize_text("  a  ") == "a"
        assert normalize_text("a\t\n b") == "a b"

    def test_empty_ok(self):
        assert normalize_text("!!!") == ""

    def test_idempotent(self):
        s = normalize_text("Some; Running—text 42 here.")
        assert normalize_text(s) == s


class TestConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert (cfg.dim, cfg.n, cfg.item_seed, cfg.tie_seed) == (10000, 3, 1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(dim=0)
        with pytest.raises(ValueError):
            EncoderConfig(n=0)
        with pytest.raises(ValueError, match="n must not exceed dim"):
            EncoderConfig(dim=2, n=3)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            EncoderConfig(dim=2**32)  # the model file stores dim as a u32
        assert EncoderConfig(dim=2**32 - 1).dim == 2**32 - 1
        with pytest.raises(ValueError):
            EncoderConfig(item_seed=2**64)
        with pytest.raises(TypeError):
            EncoderConfig(tie_seed=3)  # derived from item_seed, not set


@pytest.fixture(scope="module")
def enc():
    return TextEncoder(EncoderConfig(dim=10000, item_seed=9))


class TestNgram:
    def test_structural_composition(self, enc):
        mem = enc.item_memory
        want = bind(
            bind(permute(mem.lookup("a"), 2), permute(mem.lookup("b"), 1)),
            mem.lookup("c"),
        )
        assert enc.encode("abc") == want

    def test_order_sensitivity(self, enc):
        d = normalized_hamming(enc.encode("abc"), enc.encode("acb"))
        assert 0.45 <= d <= 0.55

    def test_unigram_is_lookup(self):
        e = TextEncoder(EncoderConfig(dim=500, n=1, item_seed=1))
        assert e.encode("a") == e.item_memory.lookup("a")


class TestEncodeText:
    def test_rotated_table_is_packed(self, enc):
        table = enc._table
        assert table.dtype == np.uint64 and table.shape == (3, 27, 157)
        assert table.nbytes == 101736 and not table.flags.writeable
        for j in range(3):
            want = permute(enc.item_memory.lookup("q"), 2 - j).words
            assert np.array_equal(table[j, enc.symbol_indices("q")[0]], want)

    def test_exact_window_equals_ngram(self, enc):
        seed_bits = {ch: enc.item_memory.lookup(ch).to_bits() for ch in "the"}
        assert list(enc.encode("the").to_bits()) == ref_ngram("the", seed_bits, 3)

    def test_too_short(self, enc):
        with pytest.raises(TextTooShortError):
            enc.encode("ab")
        with pytest.raises(TextTooShortError):
            enc.encode("!!")  # empty after normalization

    def test_same_text_same_vector(self, enc):
        a = enc.encode("many words make a text")
        b = enc.encode("many words make a text")
        assert a == b

    def test_encoding_order_independent(self):
        # Content-keyed tie breaking: interleaving other texts must not shift
        # the result of encoding a given text.
        e1 = TextEncoder(EncoderConfig(dim=200, item_seed=3))
        e2 = TextEncoder(EncoderConfig(dim=200, item_seed=3))
        e2.encode("completely different material first")
        assert e1.encode("abab") == e2.encode("abab")

    def test_normalization_applied(self, enc):
        assert enc.encode("The Cat!") == enc.encode("the cat")

    def test_matches_histogram_oracle(self):
        rng = RandomSource(77)
        for dim in (16, 32):
            e = TextEncoder(
                EncoderConfig(dim=dim, item_seed=5, deterministic_ties=True)
            )
            seed_bits = {
                ch: list(e.item_memory.lookup(ch).to_bits()) for ch in DEFAULT_ALPHABET
            }
            for t in range(30):
                n_chars = int(rng.child(dim, t).generator.integers(3, 40))
                idx = rng.child(dim, t, 1).generator.integers(0, 27, size=n_chars)
                text = "".join(DEFAULT_ALPHABET[i] for i in idx)
                text = normalize_text(text) or "abc"
                if len(text) < 3:
                    text = "abc"
                want = ref_encode_text(text, 3, seed_bits, tie_value=1)
                assert list(e.encode(text).to_bits()) == want

    # Even and odd window counts; the oracle takes Python int or numpy uint8 bits.
    @pytest.mark.parametrize("length, bit_list", [
        pytest.param(5000, np.ndarray.tolist, id="5000"),
        pytest.param(5001, np.ndarray.tolist, id="5001"),
        pytest.param(5000, list, id="5000-uint8-bits"),
    ])
    def test_long_text_matches_histogram_oracle(self, length, bit_list):
        e = TextEncoder(EncoderConfig(dim=100, item_seed=7, deterministic_ties=True))
        assert kernels._contracts(27, 3, length - 2)  # goes through the contraction
        idx = RandomSource(78).child(length).generator.integers(0, 5, size=length)
        text = "".join("abcde"[i] for i in idx)
        seed_bits = {ch: bit_list(e.item_memory.lookup(ch).to_bits()) for ch in "abcde"}
        want = ref_encode_text(text, 3, seed_bits, tie_value=1)
        assert list(e.encode(text).to_bits()) == want

    def test_encoder_keeps_no_sign_table(self, enc):
        enc.encode("a long text " * 2000)  # contracts
        arrays = [v for v in vars(enc).values() if isinstance(v, np.ndarray)]
        assert [a.dtype for a in arrays] == [np.dtype(np.uint64)]

    def test_several_texts_match_summed_count_oracle(self):
        e = TextEncoder(EncoderConfig(dim=100, item_seed=7, deterministic_ties=True))
        seed_bits = {ch: list(e.item_memory.lookup(ch).to_bits()) for ch in DEFAULT_ALPHABET}
        texts = ["the cat sat", "on the mat", " ".join(["ab"] * 2000)]  # the last contracts
        assert kernels._contracts(27, 3, len(texts[2]) - 2)
        assert list(e.encode(*texts).to_bits()) == ref_encode_texts(texts, 3, seed_bits)

    @pytest.mark.parametrize("deterministic", [False, True], ids=["random-ties", "ties-to-1"])
    def test_encode_each_matches_encode(self, deterministic):
        e = TextEncoder(EncoderConfig(dim=1000, item_seed=4, deterministic_ties=deterministic))
        gen = RandomSource(5).generator
        long = ["".join(DEFAULT_ALPHABET[i] for i in gen.integers(0, 26, size=6000))
                for _ in range(3)]
        assert kernels._contracts(27, 3, len(long[0]) - 2)
        # Even window counts (ties) and odd ones; long and short texts in one group.
        groups = [["the cat sat"], [long[0], "on the mat"], long[1:], ["abab"], ["ab ab", "bab"]]
        got = e.encode_each(groups)
        assert len(got) == len(groups)
        for hv, texts in zip(got, groups):
            assert hv == e.encode(*texts)
        assert e.encode_each([groups[1]]) == [e.encode(*groups[1])]
        assert e.encode_each([]) == []

    def test_encode_each_names_the_failing_group(self, enc):
        with pytest.raises(TextTooShortError) as exc:
            enc.encode_each([["long enough"], ["also long enough", "ab"]])
        assert exc.value.group == 1
        with pytest.raises(ValueError, match="at least one text"):
            enc.encode_each([["long enough"], []])

    def test_encode_needs_texts_each_one_window_long(self, enc):
        with pytest.raises(ValueError, match="at least one text"):
            enc.encode()
        with pytest.raises(TextTooShortError):
            enc.encode("long enough", "ab")

    def test_long_texts_of_one_group_are_one_contraction_row(self, monkeypatch):
        e = TextEncoder(EncoderConfig(dim=100, item_seed=7, deterministic_ties=True))
        seed_bits = {ch: list(e.item_memory.lookup(ch).to_bits()) for ch in DEFAULT_ALPHABET}
        texts = [" ".join(["ab"] * 2000), " ".join(["bca"] * 1500)]
        assert all(kernels._contracts(27, 3, len(t) - 2) for t in texts)
        rows = []
        contraction = kernels._count_contraction

        def spy(table, groups, group_rows, counts):
            rows.append(group_rows)
            return contraction(table, groups, group_rows, counts)

        monkeypatch.setattr(kernels, "_count_contraction", spy)
        assert list(e.encode(*texts).to_bits()) == ref_encode_texts(texts, 3, seed_bits)
        assert rows == [[(0, None)]]
        # A streamed text in the group: each long text is a row of its own.
        rows.clear()
        mixed = [texts[0], "the cat sat", texts[1]]
        assert list(e.encode(*mixed).to_bits()) == ref_encode_texts(mixed, 3, seed_bits)
        assert rows == [[(0, 0), (0, 2)]]


class TestJoinedGroup:
    def test_reads_back_each_stream(self):
        streams = [np.array([26, 0, 5]), np.array([3]), np.array([0, 0]), np.array([26] * 300)]
        group = encoder_module._JoinedGroup(streams)
        assert len(group) == 4
        for _ in range(2):  # read more than once
            got = list(group)
            assert [g.dtype for g in got] == [np.dtype(np.uint8)] * 4
            assert [g.tolist() for g in got] == [s.tolist() for s in streams]
        assert [g.tolist() for g in encoder_module._JoinedGroup(streams[3:])] == [[26] * 300]

    def test_keeps_one_byte_per_symbol_and_no_per_stream_array(self):
        group = encoder_module._JoinedGroup([np.arange(27)] * 5)
        assert group.__slots__ == ("_syms", "_len")
        assert group._syms.dtype == np.uint8 and group._syms.shape == (135,)


class TestSeedTables:
    def test_encoders_of_one_config_share_tables(self):
        a = TextEncoder(EncoderConfig(dim=300, item_seed=21))
        b = TextEncoder(EncoderConfig(dim=300, item_seed=21, deterministic_ties=True))
        assert a._table is b._table and a.item_memory is b.item_memory
        for other in (EncoderConfig(dim=301, item_seed=21),
                      EncoderConfig(dim=300, n=2, item_seed=21),
                      EncoderConfig(dim=300, item_seed=22)):
            c = TextEncoder(other)
            assert c._table is not a._table and c.item_memory is not a.item_memory

    def test_tables_go_with_the_last_encoder(self):
        key = (300, 3, 23)
        a = TextEncoder(EncoderConfig(dim=300, item_seed=23))
        b = TextEncoder(EncoderConfig(dim=300, item_seed=23))
        want = a.encode("shared tables")
        del a
        gc.collect()
        assert key in encoder_module._SEED_TABLES and b.encode("shared tables") == want
        del b
        gc.collect()
        assert key not in encoder_module._SEED_TABLES
        assert TextEncoder(EncoderConfig(dim=300, item_seed=23)).encode("shared tables") == want


class TestSymbolCodes:
    def test_alphabet_positions(self):
        syms = symbol_codes("cab z")
        assert syms.dtype == np.int64 and syms.tolist() == [2, 0, 1, 26, 25]
        text = normalize_text("The quick brown fox jumps over the lazy dog. " * 50)
        want = [DEFAULT_ALPHABET.index(ch) for ch in text]
        assert symbol_codes(text).tolist() == want

    @pytest.mark.parametrize("text, bad", [
        ("ab!c", "!"),  # below the table's end, not in the alphabet
        ("ab\u20acc!", "\u20ac"),  # above the table: clipped onto its -1 entry
        ("ab\ud800c", "\ud800"),  # lone surrogate
    ], ids=["in-range", "above-table", "lone-surrogate"])
    def test_outside_alphabet_is_data_error(self, text, bad):
        with pytest.raises(DataError) as exc:
            symbol_codes(text)
        assert str(exc.value) == f"symbol {bad!r} is not in the alphabet"

    def test_empty_text(self):
        syms = symbol_codes("")
        assert syms.dtype == np.int64 and syms.shape == (0,)

    def test_normalized_text_always_has_codes(self):
        # Any text, once normalized, holds only DEFAULT_ALPHABET symbols, so the
        # fixed alphabet can never reject what the encoder and baseline read.
        gen = RandomSource(2016).generator
        spans = [(0, 0x80), (0x80, 0x3000), (0xD800, 0xE000), (0, 0x110000)]
        for t in range(2000):
            low, high = spans[t % len(spans)]  # ASCII, non-ASCII letters, surrogates, any
            points = gen.integers(low, high, size=int(gen.integers(0, 40)))
            text = normalize_text("".join(map(chr, points)))
            assert set(text) <= set(DEFAULT_ALPHABET)
            syms = symbol_codes(text)
            assert "".join(DEFAULT_ALPHABET[s] for s in syms) == text


@pytest.fixture(scope="module")
def mem():
    return ItemMemory.build(list("xyzabc"), 10000, seed=12)


class TestRecord:
    def test_single_field_is_bind(self, mem):
        hv = encode_record([("x", "a")], mem)
        assert hv == bind(mem.lookup("x"), mem.lookup("a"))
        assert decode_field(hv, "x", mem) == ("a", 0)

    def test_three_field_round_trip(self, mem):
        hv = encode_record(
            [("x", "a"), ("y", "b"), ("z", "c")], mem, rng=RandomSource(13)
        )
        assert decode_field(hv, "x", mem)[0] == "a"
        assert decode_field(hv, "y", mem)[0] == "b"
        assert decode_field(hv, "z", mem)[0] == "c"

    def test_absent_key_lands_far_from_everything(self, mem):
        hv = encode_record([("x", "a"), ("y", "b")], mem, rng=RandomSource(14))
        probe = bind(mem.lookup("c"), hv)  # "c" was never used as a key
        dists = [
            normalized_hamming(probe, mem.lookup(s)) for s in mem.symbols
        ]
        assert min(dists) > 0.4

    def test_empty_record_rejected(self, mem):
        with pytest.raises(ValueError):
            encode_record([], mem)

    def test_duplicate_keys_rejected(self, mem):
        with pytest.raises(ValueError):
            encode_record([("x", "a"), ("x", "b")], mem)

    def test_majority_oracle_small_d(self):
        from _oracles import ref_majority

        mem = ItemMemory.build(list("xyzabc"), 16, seed=15)
        pairs = [("x", "a"), ("y", "b"), ("z", "c")]
        hv = encode_record(pairs, mem)  # three items: no ties possible
        bound = [
            list(bind(mem.lookup(k), mem.lookup(v)).to_bits()) for k, v in pairs
        ]
        assert list(hv.to_bits()) == ref_majority(bound)
