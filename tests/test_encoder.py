import gc
import hashlib
import string

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
    unpack_bits,
)
from hdclab import baseline as baseline_module
from hdclab import encoder as encoder_module
from hdclab import pipeline as pipeline_module
from hdclab.baseline import BaselineClassifier
from hdclab.corpus import Corpus, ingest
from hdclab.pipeline import encode_test_sentences, train_pipeline
from _oracles import ref_encode_text, ref_encode_texts, ref_ngram, ref_normalize


def _alphabet_indices(text):
    """The DEFAULT_ALPHABET position of each character of a normalized text."""
    return [DEFAULT_ALPHABET.index(ch) for ch in text]


def _rows(e, groups):
    """encode_symbols over groups of texts, each coded by one symbol_indices call."""
    return e.encode_symbols([e.symbol_indices(*texts) for texts in groups])


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

    # Every ASCII character, then Latin-1, Greek, Cyrillic, non-BMP
    # characters, NEL and NBSP, and lone surrogates (high and low).
    FUZZ_POOLS = [string.printable + "\x00\x1c\x1f\x7f", "".join(map(chr, range(0x80, 0x100))),
                  "".join(map(chr, range(0x391, 0x3CA))), "".join(map(chr, range(0x410, 0x450))),
                  "\U0001F600\U00010348\U0010FFFF", "\x85\xa0", "\ud800\udbff\udc00\udfff"]
    FIXED = ["", "!?;,. -", "HELLO World", "Ça  va, GARÇON", "Ελληνικά κείμενο", "Привет, мир",
             "a\U0001F600b", "a\x85b\xa0c", "a\ud800b", "\udc80", "  Tab\tand\nline\r\n"]

    def _fuzz(self, count, seed=30):
        """``count`` seeded strings of 0-40 characters, each drawn from a random pool."""
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            chars = [rng.choice(list(self.FUZZ_POOLS[rng.integers(len(self.FUZZ_POOLS))]))
                     for _ in range(rng.integers(41))]
            out.append("".join(chars))
        return out

    def test_matches_the_regex_oracle(self):
        for text in self.FIXED + self._fuzz(3000):
            assert normalize_text(text) == ref_normalize(text), repr(text)

    def test_ingest_round_trip_matches_the_regex_oracle(self, tmp_path):
        # Raw UTF-8 of the fuzz set plus a bad byte sequence, read back by ingest.
        lines = self.FIXED[1:] + self._fuzz(200, seed=31)
        raw = "\n".join(lines).encode("utf-8", "surrogatepass") + b" \xff\xfeZ"
        for role in ("train", "test"):
            (tmp_path / role / "xx").mkdir(parents=True)
            (tmp_path / role / "xx" / "f.txt").write_bytes(raw)
        corpus = ingest(tmp_path)
        text = raw.decode("utf-8", "replace")
        assert corpus.train["xx"] == [ref_normalize(text)]
        assert corpus.test["xx"] == [s for s in map(ref_normalize, text.splitlines()) if s]


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
            want = kernels.kernel_order(permute(enc.item_memory.lookup("q"), 2 - j).words)
            syms, _ = enc.symbol_indices("q")
            assert np.array_equal(table[j, syms[0]], want)

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
    def test_encode_symbols_matches_encode(self, deterministic):
        e = TextEncoder(EncoderConfig(dim=1000, item_seed=4, deterministic_ties=deterministic))
        gen = RandomSource(5).generator
        long = ["".join(DEFAULT_ALPHABET[i] for i in gen.integers(0, 26, size=6000))
                for _ in range(3)]
        assert kernels._contracts(27, 3, len(long[0]) - 2)
        # Even window counts (ties) and odd ones; long and short texts in one group.
        groups = [["the cat sat"], [long[0], "on the mat"], long[1:], ["abab"], ["ab ab", "bab"]]
        got = _rows(e, groups)
        assert got.shape == (len(groups), 16) and not got.flags.writeable
        for row, texts in zip(got, groups):
            assert np.array_equal(row, e.encode(*texts).words)
        assert np.array_equal(_rows(e, [groups[1]]), [e.encode(*groups[1]).words])
        assert _rows(e, []).shape == (0, 16)

    def test_encode_symbols_names_the_failing_group(self, enc, monkeypatch):
        with pytest.raises(TextTooShortError) as exc:
            _rows(enc, [["long enough"], ["also long enough", "ab"]])
        assert exc.value.group == 1
        # A short text in the last chunk fails before any counting.
        monkeypatch.setattr(kernels, "accumulate_ngrams", lambda *args: pytest.fail("counted"))
        last = encoder_module.ENCODE_GROUPS
        with pytest.raises(TextTooShortError) as exc:
            _rows(enc, [["long enough"]] * last + [["ab"]])
        assert exc.value.group == last
        with pytest.raises(ValueError, match="at least one text"):
            _rows(enc, [["long enough"], []])

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

        def spy(table, groups, ks, group_rows, counts):
            rows.append(group_rows)
            return contraction(table, groups, ks, group_rows, counts)

        monkeypatch.setattr(kernels, "_count_contraction", spy)
        assert list(e.encode(*texts).to_bits()) == ref_encode_texts(texts, 3, seed_bits)
        assert rows == [[0]]
        # The method is the group's, from its total windows: a short text
        # shares the row, and so do many short texts that are long together.
        short = [(DEFAULT_ALPHABET[i % 26] + " quick brown fox jumps over the lazy dog") * 3
                 for i in range(60)]
        assert not any(kernels._contracts(27, 3, len(t) - 2) for t in short)
        for group in ([texts[0], "the cat sat", texts[1]], short):
            rows.clear()
            assert list(e.encode(*group).to_bits()) == ref_encode_texts(group, 3, seed_bits)
            assert rows == [[0]]

    @staticmethod
    def _random_texts(windows, n, seed):
        """One random a-z text per window count, each of k + n - 1 chars."""
        gen = RandomSource(seed).generator
        return ["".join(DEFAULT_ALPHABET[i] for i in gen.integers(0, 26, size=k + n - 1))
                for k in windows]

    @pytest.mark.parametrize("chunk", [encoder_module.ENCODE_GROUPS, 2, 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dim", [63, 65, 1000])
    def test_every_chunk_size_matches_encode(self, monkeypatch, dim, n, chunk):
        # Window counts per text, by group, around the contraction's edge:
        # one long text; a long and a short one; two long ones; one short; a
        # short one between two long ones; short ones whose total reaches the
        # edge; two short ones. The fourth and the last group stream.
        edge = -(-27**n // 4)  # smallest k that contracts
        windows = [[edge], [edge + 1, edge - 1], [edge + 2, edge + 5], [1],
                   [edge + 7, 2, edge + 3], [edge - 1, 1, edge - 1], [2, 3]]
        groups = [self._random_texts(ks, n, seed=g) for g, ks in enumerate(windows)]
        e = TextEncoder(EncoderConfig(dim=dim, n=n, item_seed=9))
        want = np.array([e.encode(*texts).words for texts in groups])
        monkeypatch.setattr(encoder_module, "ENCODE_GROUPS", chunk)
        got = e.encode_symbols([encoder_module.code_texts(texts) for texts in groups])
        assert np.array_equal(got, want)

    def test_kernel_calls_take_equal_chunks_and_contract_once(self, monkeypatch):
        limit = encoder_module.ENCODE_GROUPS
        edge = -(-27**2 // 4)
        # Alternately a group that contracts and one that streams.
        texts = self._random_texts([edge + 1, 5] * limit + [edge], 2, seed=3)
        groups = [encoder_module.code_texts([t]) for t in texts]
        e = TextEncoder(EncoderConfig(dim=100, n=2, item_seed=9))
        calls = []
        accumulate, contraction = kernels.accumulate_ngrams, kernels._count_contraction

        def spy_accumulate(table, chunk, ks, counts):
            calls.append([len(chunk), 0])
            return accumulate(table, chunk, ks, counts)

        def spy_contraction(*args):
            calls[-1][1] += 1
            return contraction(*args)

        monkeypatch.setattr(kernels, "accumulate_ngrams", spy_accumulate)
        monkeypatch.setattr(kernels, "_count_contraction", spy_contraction)
        words = e.encode_symbols(groups)
        sizes = [size for size, _ in calls]
        assert sum(sizes) == len(groups) == 2 * limit + 1
        assert len(sizes) == 3 and max(sizes) <= limit  # the fewest chunks
        assert max(sizes) - min(sizes) == 1  # of equal size, as near as can be
        assert [contractions for _, contractions in calls] == [1] * len(calls)
        assert np.array_equal(words, np.array([e.encode(t).words for t in texts]))
        calls.clear()
        assert e.encode_symbols([]).shape == (0, 2) and calls == []


class TestJoinedGroup:
    """A group joined as ``(syms, ends)``: one uint8 buffer and where each stream ends."""

    def test_reads_back_each_stream(self):
        streams = [np.array([26, 0, 5]), np.array([3]), np.array([0, 0]), np.array([26] * 300)]
        group = (np.concatenate(streams).astype(np.uint8), [3, 4, 6, 306])
        for _ in range(2):  # read more than once
            got = list(kernels.streams(group))
            assert [g.dtype for g in got] == [np.dtype(np.uint8)] * 4
            assert [g.tolist() for g in got] == [s.tolist() for s in streams]
        last = (np.full(300, 26, dtype=np.uint8), [300])
        assert [g.tolist() for g in kernels.streams(last)] == [[26] * 300]

    def test_keeps_one_byte_per_symbol_and_no_per_stream_array(self):
        syms, ends = encoder_module.code_texts(["abcdefghijklm nopqrstuvwxyz"] * 5)
        assert syms.dtype == np.uint8 and syms.shape == (135,)
        assert syms[:27].tolist() == [*range(13), 26, *range(13, 26)]
        assert ends == [27, 54, 81, 108, 135] and all(type(e) is int for e in ends)
        got = list(kernels.streams((syms, ends)))
        assert len(got) == 5 and all(g.base is syms for g in got)  # views, not copies


class TestCodeTexts:
    TEXTS = ["The cat!", "", "a", "  ", "Zebra crossing, twice " * 20, "xyz"]

    def test_joins_each_texts_codes(self):
        syms, ends = encoder_module.code_texts(self.TEXTS)
        codes = [_alphabet_indices(ref_normalize(t)) for t in self.TEXTS]
        assert syms.tolist() == sum(codes, [])
        assert ends == np.cumsum([len(c) for c in codes]).tolist()
        syms, ends = encoder_module.code_texts([])
        assert syms.dtype == np.uint8 and syms.shape == (0,) and ends == []

    def test_reads_back_each_stream_one_byte_per_symbol(self):
        group = encoder_module.code_texts(self.TEXTS)
        assert group[0].dtype == np.uint8 and group[0].nbytes == group[1][-1]
        for _ in range(2):  # read more than once
            got = list(kernels.streams(group))
            assert [g.dtype for g in got] == [np.dtype(np.uint8)] * len(self.TEXTS)
            assert [g.tolist() for g in got] == [
                _alphabet_indices(ref_normalize(t)) for t in self.TEXTS]

    def test_empty_text_is_an_empty_stream_encode_rejects(self, enc):
        syms, ends = encoder_module.code_texts(["abc", "!!!", "abc"])
        assert ends == [3, 3, 6]
        with pytest.raises(TextTooShortError, match="got 0") as exc:
            _rows(enc, [["long enough"], ["abc", "!!!", "abc"]])
        assert exc.value.group == 1

    def test_one_coding_call_per_group(self, monkeypatch):
        calls = []
        code = encoder_module.code_texts

        def spy(texts):
            calls.append(list(texts))
            return code(texts)

        for module in (encoder_module, pipeline_module, baseline_module):
            monkeypatch.setattr(module, "code_texts", spy)
        config = EncoderConfig(dim=200, item_seed=3)
        TextEncoder(config).encode("on the", "mat", "Again!")
        assert calls == [["on the", "mat", "Again!"]]
        calls.clear()
        train = {"aa": ["the cat sat"], "bb": ["on the", "mat", "Again!"], "cc": ["x y z"] * 40}
        train_pipeline(Corpus(train=train), config)
        assert calls == [train["aa"], train["bb"], train["cc"]]  # one per label
        calls.clear()
        corpus = Corpus(test={"aa": ["abc abc", "ab", "cab cab"], "bb": ["bca bca"]})
        groups, _, skipped = encode_test_sentences(["aa", "bb"], corpus, 3)
        assert len(calls) == 1 and (len(groups), skipped) == (3, 1)
        calls.clear()
        clf = BaselineClassifier({"aa": ["abc abc", "cab"], "bb": ["bca bca"]})
        assert len(calls) == 2  # one per label
        calls.clear()
        clf.count_vector("abc", "cab cab", "bca")
        assert calls == [["abc", "cab cab", "bca"]]


def _shake_tie_bits(tie_seed, texts, dim):
    """The tie vector of these texts, from its definition: shake_128 of the
    8-byte little-endian tie seed, then each normalized text's alphabet
    indices as bytes, read as little-endian words; bit i is component i."""
    key = hashlib.shake_128(tie_seed.to_bytes(8, "little"))
    for text in texts:
        key.update(bytes(DEFAULT_ALPHABET.index(ch) for ch in normalize_text(text)))
    raw = key.digest(8 * -(-dim // 64))
    return [(raw[i // 8] >> (i % 8)) & 1 for i in range(dim)]


class TestTieVector:
    @pytest.mark.parametrize("dim", [16, 63, 100, 1000])
    def test_random_ties_match_the_oracle_with_the_shake_vector(self, dim):
        e = TextEncoder(EncoderConfig(dim=dim, item_seed=5))
        seed_bits = {ch: list(e.item_memory.lookup(ch).to_bits()) for ch in DEFAULT_ALPHABET}
        idx = RandomSource(79).generator.integers(0, 5, size=5000)
        long = "".join("abcde"[i] for i in idx)
        assert kernels._contracts(27, 3, len(long) - 2)
        # Even window counts (ties) and odd ones, one text or several, and a
        # contracted text beside a streamed one.
        groups = [["abab"], ["the cat sat on"], ["ab ab", "bab"], ["Zebra!"],
                  [long, "on the mat"], [long[:1001]]]
        took_zero = False
        for texts, row in zip(groups, _rows(e, groups)):
            ties = _shake_tie_bits(e.config.tie_seed, texts, dim)
            normed = [normalize_text(t) for t in texts]
            want = ref_encode_texts(normed, 3, seed_bits, tie_value=ties)
            assert unpack_bits(row, dim).tolist() == want
            took_zero |= want != ref_encode_texts(normed, 3, seed_bits, tie_value=1)
        assert took_zero  # some tie took a 0 from its vector

    def test_identical_content_gives_identical_bits_in_any_order(self):
        config = EncoderConfig(dim=1000, item_seed=4)
        e = TextEncoder(config)
        texts = [f"sentence {'ab' * (i % 7)} number {i}" for i in range(70)]
        groups = [[t] for t in texts]
        forward = _rows(e, groups)
        assert np.array_equal(_rows(e, groups[::-1])[::-1], forward)
        # One text at both ends of a call, in two chunks.
        again = _rows(e, [groups[5]] + groups[: encoder_module.ENCODE_GROUPS + 1] + [groups[5]])
        for row in (again[0], again[6], again[-1], e.encode(texts[5]).words):
            assert np.array_equal(row, forward[5])
        # A fresh encoder, and a text that normalizes to the same symbols.
        assert np.array_equal(TextEncoder(config).encode(texts[3]).words, forward[3])
        assert np.array_equal(e.encode(texts[3].upper().replace(" ", " , ")).words, forward[3])
        # The ties are random: without them some text encodes otherwise.
        ties_to_1 = TextEncoder(EncoderConfig(dim=1000, item_seed=4, deterministic_ties=True))
        assert not np.array_equal(_rows(ties_to_1, groups), forward)


    def test_only_groups_of_even_window_count_are_hashed(self):
        # Odd k has no tie, so an odd group's symbols are never hashed; an
        # even group's are, as they always were.
        e = TextEncoder(EncoderConfig(dim=1000, item_seed=4))
        hashed = []

        class SpyKey:
            def __init__(self, key):
                self.key = key

            def copy(self):
                return SpyKey(self.key.copy())

            def update(self, data):
                hashed.append(bytes(data))
                self.key.update(data)

            def digest(self, size):
                return self.key.digest(size)

        e._tie_key = SpyKey(e._tie_key)
        # Window counts 2, 1, 4, 5 and 3.
        groups = [["abab"], ["abc"], ["ab ab", "bab"], ["the cat"], ["abcd", "abc"]]
        got = _rows(e, groups)
        assert hashed == [e.symbol_indices(*groups[g])[0].tobytes() for g in (0, 2)]
        for texts, row in zip(groups, got):
            ties = _shake_tie_bits(e.config.tie_seed, texts, 1000)
            assert unpack_bits(row, 1000).tolist() == ref_encode_texts(
                [normalize_text(t) for t in texts], 3,
                {ch: list(e.item_memory.lookup(ch).to_bits()) for ch in DEFAULT_ALPHABET},
                tie_value=ties)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 1000])
    def test_table_rows_are_the_rotated_item_vectors(self, dim, n):
        seeds = encoder_module._SeedTables(dim, n, 31)
        assert seeds.table.shape == (n, 27, -(-dim // 64)) and not seeds.table.flags.writeable
        for j in range(n):
            for s, ch in enumerate(DEFAULT_ALPHABET):
                want = kernels.kernel_order(permute(seeds.item_memory.lookup(ch), n - 1 - j).words)
                assert np.array_equal(seeds.table[j, s], want)

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
    """The alphabet index of each symbol, as ``code_texts`` codes it."""

    def test_alphabet_positions(self):
        syms, ends = encoder_module.code_texts(["cab z"])
        assert syms.dtype == np.uint8 and syms.tolist() == [2, 0, 1, 26, 25] and ends == [5]
        text = "The quick brown fox jumps over the lazy dog. " * 50
        assert encoder_module.code_texts([text])[0].tolist() == _alphabet_indices(
            ref_normalize(text))

    def test_bytes_outside_the_alphabet_are_past_the_table(self):
        table = encoder_module._SYMBOLS
        assert len(table) == 256
        for c in range(256):
            want = DEFAULT_ALPHABET.index(chr(c)) if chr(c) in DEFAULT_ALPHABET else 0xFF
            assert table[c] == want
        assert 0xFF >= TextEncoder(EncoderConfig(dim=64))._table.shape[1]

    def test_empty_text(self):
        for texts in ([""], ["", "!?"]):
            syms, ends = encoder_module.code_texts(texts)
            assert syms.dtype == np.uint8 and syms.shape == (0,) and ends == [0] * len(texts)

    def test_normalized_text_always_has_codes(self):
        # Any text, once normalized, holds only DEFAULT_ALPHABET symbols, so
        # code_texts never gives the encoder and baseline the 0xFF of another byte.
        gen = RandomSource(2016).generator
        spans = [(0, 0x80), (0x80, 0x3000), (0xD800, 0xE000), (0, 0x110000)]
        texts = []
        for t in range(2000):
            low, high = spans[t % len(spans)]  # ASCII, non-ASCII letters, surrogates, any
            points = gen.integers(low, high, size=int(gen.integers(0, 40)))
            texts.append("".join(map(chr, points)))
            assert set(normalize_text(texts[-1])) <= set(DEFAULT_ALPHABET)
            want = _alphabet_indices(ref_normalize(texts[-1]))
            assert encoder_module.code_texts(texts[-1:])[0].tolist() == want
        # The same texts, coded in groups of several.
        for lo in range(0, len(texts), 7):
            group = texts[lo : lo + 1 + lo % 5]
            syms, ends = encoder_module.code_texts(group)
            wants = [_alphabet_indices(ref_normalize(t)) for t in group]
            assert syms.tolist() == sum(wants, [])
            assert ends == np.cumsum([len(w) for w in wants]).tolist()


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
