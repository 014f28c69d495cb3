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
    encode_ngram,
    encode_record,
    normalized_hamming,
    normalize_text,
    kernels,
    permute,
)
from hdclab.encoder import code_table, symbol_codes
from _oracles import ref_encode_text


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
        assert cfg.dim == 10000 and cfg.n == 3 and len(cfg.alphabet) == 27

    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(dim=0)
        with pytest.raises(ValueError):
            EncoderConfig(n=0)
        with pytest.raises(ValueError, match="n must not exceed dim"):
            EncoderConfig(dim=2, n=3)
        with pytest.raises(ValueError, match="free of duplicates"):
            EncoderConfig(alphabet="abca")
        with pytest.raises(ValueError, match="non-empty"):
            EncoderConfig(alphabet="")
        with pytest.raises(ValueError):
            EncoderConfig(item_seed=2**64)


@pytest.fixture(scope="module")
def enc():
    return TextEncoder(EncoderConfig(dim=10000, item_seed=9, tie_seed=10))


class TestNgram:
    def test_structural_composition(self, enc):
        mem = enc.item_memory
        want = bind(
            bind(permute(mem.lookup("a"), 2), permute(mem.lookup("b"), 1)),
            mem.lookup("c"),
        )
        assert encode_ngram("abc", mem) == want
        assert enc.encode_ngram("abc") == want

    def test_order_sensitivity(self, enc):
        d = normalized_hamming(
            encode_ngram("abc", enc.item_memory), encode_ngram("acb", enc.item_memory)
        )
        assert 0.45 <= d <= 0.55

    def test_unigram_is_lookup(self):
        e = TextEncoder(EncoderConfig(dim=500, n=1, item_seed=1, tie_seed=2))
        assert encode_ngram("a", e.item_memory) == e.item_memory.lookup("a")

    def test_wrong_length_rejected(self, enc):
        with pytest.raises(ValueError):
            enc.encode_ngram("ab")

    def test_unknown_symbol(self, enc):
        with pytest.raises(KeyError):
            encode_ngram("a!c", enc.item_memory)


class TestEncodeText:
    def test_rotated_table_is_packed(self, enc):
        table = enc._table
        assert table.dtype == np.uint64 and table.shape == (3, 27, 157)
        assert table.nbytes == 101736 and not table.flags.writeable
        for j in range(3):
            want = permute(enc.item_memory.lookup("q"), 2 - j).words
            assert np.array_equal(table[j, enc.symbol_indices("q")[0]], want)

    def test_exact_window_equals_ngram(self, enc):
        assert enc.encode("the") == enc.encode_ngram("the")

    def test_too_short(self, enc):
        with pytest.raises(TextTooShortError):
            enc.encode("ab")
        with pytest.raises(TextTooShortError):
            enc.encode("!!")  # empty after normalization

    def test_window_count_instrumentation(self, enc):
        before = enc.symbols_consumed
        enc.encode("abcdef")
        assert enc.symbols_consumed - before == 6

    def test_same_text_same_vector(self, enc):
        a = enc.encode("many words make a text")
        b = enc.encode("many words make a text")
        assert a == b

    def test_encoding_order_independent(self):
        # Content-keyed tie breaking: interleaving other texts must not shift
        # the result of encoding a given text.
        e1 = TextEncoder(EncoderConfig(dim=200, item_seed=3, tie_seed=4))
        e2 = TextEncoder(EncoderConfig(dim=200, item_seed=3, tie_seed=4))
        e2.encode("completely different material first")
        assert e1.encode("abab") == e2.encode("abab")

    def test_normalization_applied(self, enc):
        assert enc.encode("The Cat!") == enc.encode("the cat")

    def test_matches_histogram_oracle(self):
        rng = RandomSource(77)
        for dim in (16, 32):
            e = TextEncoder(
                EncoderConfig(dim=dim, item_seed=5, tie_seed=6, deterministic_ties=True)
            )
            seed_bits = {
                ch: list(e.item_memory.lookup(ch).to_bits()) for ch in e.config.alphabet
            }
            for t in range(30):
                n_chars = int(rng.child(dim, t).generator.integers(3, 40))
                idx = rng.child(dim, t, 1).generator.integers(0, 27, size=n_chars)
                text = "".join(e.config.alphabet[i] for i in idx)
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
        e = TextEncoder(EncoderConfig(dim=100, item_seed=7, tie_seed=8, deterministic_ties=True))
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


class TestSymbolCodes:
    def test_alphabet_positions(self, enc):
        syms = enc.symbol_indices("cab z", normalize=False)
        assert syms.dtype == np.int64 and syms.tolist() == [2, 0, 1, 26, 25]
        text = normalize_text("The quick brown fox jumps over the lazy dog. " * 50)
        want = [DEFAULT_ALPHABET.index(ch) for ch in text]
        assert symbol_codes(text, DEFAULT_ALPHABET).tolist() == want

    @pytest.mark.parametrize("text, bad", [
        ("ab!c", "!"),  # below the table's end, not in the alphabet
        ("ab\u20acc!", "\u20ac"),  # above the table: clipped onto its -1 entry
        ("ab\ud800c", "\ud800"),  # lone surrogate
    ], ids=["in-range", "above-table", "lone-surrogate"])
    def test_outside_alphabet_is_data_error(self, enc, text, bad):
        with pytest.raises(DataError) as exc:
            enc.symbol_indices(text, normalize=False)
        assert str(exc.value) == f"symbol {bad!r} is not in the alphabet"

    def test_encode_ngram_outside_alphabet_is_data_error(self, enc):
        with pytest.raises(DataError, match="symbol '!' is not in the alphabet"):
            enc.encode_ngram("a!c")

    def test_empty_text(self, enc):
        syms = enc.symbol_indices("", normalize=False)
        assert syms.dtype == np.int64 and syms.shape == (0,)

    def test_code_table_is_cached_and_read_only(self):
        table = code_table("ab")
        assert code_table("ab") is table and not table.flags.writeable
        assert table.dtype == np.int64 and table.tolist()[-3:] == [0, 1, -1]
        assert table.shape == (ord("b") + 2,)


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
