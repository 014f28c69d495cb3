"""Mapping and encoding: text streams to hypervectors via rotate-and-bind.

A length-n window of symbols becomes one hypervector by rotating each
symbol's seed vector by its distance from the window end (oldest symbol
rotated most) and XOR-folding the results. Texts are the majority vote over
all their sliding windows, none spanning two texts. The same binding
machinery also encodes key/value records and decodes fields back out of them.

Text reaches this encoder and the n-gram baseline through one front end:
``normalize_text``, then ``symbol_codes``. The symbol set is fixed: the 27
characters ``DEFAULT_ALPHABET`` holds, which are all ``normalize_text`` emits.
"""

from __future__ import annotations

import hashlib
import re
import string
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import Accumulator, Hypervector, RandomSource, bind, bundle, n_words, permute
from .errors import ConfigurationError, DataError, TextTooShortError
from .itemmem import ItemMemory

# The only symbol set: a-z and space, as in the 21-language trigram
# classifier (Rahimi, Kanerva & Rabaey, ISLPED 2016).
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz "

# Largest pre-rotated table TextEncoder builds, n * symbols * words * 8 bytes:
# about 660x the 101,736 B of the default trigram table at D = 10000.
MAX_TABLE_BYTES = 64 * 2**20

_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_NON_ALPHA = re.compile(r"[^a-z]+")


def normalize_text(raw: str) -> str:
    """Case-fold A-Z, collapse every other character run to one space, strip ends.

    Only ASCII letters are folded; accented and non-Latin characters count
    as non-alphabet and disappear into the separating space.
    """
    return _NON_ALPHA.sub(" ", raw.translate(_FOLD)).strip(" ")


# Code point -> DEFAULT_ALPHABET index, -1 elsewhere and in the last entry,
# onto which every larger code point is clipped.
_CODES = np.full(max(map(ord, DEFAULT_ALPHABET)) + 2, -1, dtype=np.int64)
_CODES[[ord(ch) for ch in DEFAULT_ALPHABET]] = np.arange(len(DEFAULT_ALPHABET))
_CODES.setflags(write=False)


def symbol_codes(text: str) -> np.ndarray:
    """int64 alphabet index of every character; DataError names the first one outside it."""
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    syms = _CODES[np.minimum(points, _CODES.shape[0] - 1)]
    bad = np.flatnonzero(syms < 0)
    if bad.size:
        raise DataError(f"symbol {text[bad[0]]!r} is not in the alphabet")
    return syms


@dataclass(frozen=True)
class EncoderConfig:
    """Knobs of the text encoder; defaults match the 27-symbol trigram setup."""

    dim: int = 10000
    n: int = 3
    item_seed: int = 1
    deterministic_ties: bool = False

    def __post_init__(self):
        if not 1 <= self.dim < 2**32:  # the model file stores dim as a u32
            raise ValueError(f"dim must be in [1, 2**32), got {self.dim}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > self.dim:
            # Rotations repeat every dim positions, so a longer window would reuse one.
            raise ValueError("n must not exceed dim")
        if not 0 <= int(self.item_seed) < 2**64:
            raise ValueError("item_seed must be a 64-bit non-negative integer")

    @property
    def tie_seed(self) -> int:
        """Root seed of the tie-breaking streams: the item seed plus one, mod 2**64."""
        return (int(self.item_seed) + 1) % 2**64


@dataclass(frozen=True)
class RecordField:
    """One key/value pair of an encoded record."""

    key: str
    value: str


class TextEncoder:
    """Streams normalized text into a single text hypervector.

    Pre-rotates the whole alphabet once, as packed words only, so counting
    is a packed XOR fold per window for short texts and one n-gram
    histogram contraction for long ones (see ``kernels.accumulate_ngrams``).
    Beyond the text's symbol indices, working memory is bounded independently
    of its length: the stream works in blocks of ``kernels.STREAM_BLOCK``
    (255) windows, 2.5 MB unpacked at D = 10000, the contraction's n-gram
    histogram in blocks of ``kernels.NGRAM_CHUNK``, and the contraction's
    histogram and intermediate depend only on the alphabet size and n.
    """

    def __init__(self, config: EncoderConfig, item_memory: ItemMemory | None = None):
        table_bytes = config.n * len(DEFAULT_ALPHABET) * n_words(config.dim) * 8
        if table_bytes > MAX_TABLE_BYTES:
            raise ConfigurationError(f"an encoder table of n={config.n} at D={config.dim} "
                                     f"is {table_bytes} bytes, over {MAX_TABLE_BYTES}")
        self.config = config
        if item_memory is None:
            item_memory = ItemMemory.build(
                list(DEFAULT_ALPHABET), config.dim, config.item_seed
            )
        if item_memory.dim != config.dim:
            raise ValueError("item memory dimension does not match config")
        for ch in DEFAULT_ALPHABET:
            if ch not in item_memory:
                raise ValueError(f"item memory is missing alphabet symbol {ch!r}")
        self.item_memory = item_memory
        self._table = self._build_rotated_table()
        self._tie_root = RandomSource(config.tie_seed)

    def _build_rotated_table(self) -> np.ndarray:
        n, dim = self.config.n, self.config.dim
        table = np.empty((n, len(DEFAULT_ALPHABET), n_words(dim)), dtype=np.uint64)
        for s, ch in enumerate(DEFAULT_ALPHABET):
            base = self.item_memory.lookup(ch)
            for j in range(n):
                table[j, s] = permute(base, n - 1 - j).words
        table.setflags(write=False)
        return table

    def symbol_indices(self, text: str) -> np.ndarray:
        """Normalize text and map it to int64 alphabet indices."""
        return symbol_codes(normalize_text(text))

    def _tie_rng(self, digest: bytes) -> RandomSource | None:
        # Keyed by content so given texts encode identically regardless of
        # processing order or parallelism.
        if self.config.deterministic_ties:
            return None
        return self._tie_root.child(int.from_bytes(digest[:8], "little"),
                                    int.from_bytes(digest[8:], "little"))

    def encode(self, *texts: str) -> Hypervector:
        """Count the sliding n-grams of every normalized text and threshold once at k/2.

        n symbols are one window: permute(l_0, n-1) XOR ... XOR l_{n-1}. No
        window spans two texts; k is the windows of all texts. Ties are drawn
        from a stream keyed by one blake2b over each text's symbols in order.
        """
        if not texts:
            raise ValueError("encode needs at least one text")
        n = self.config.n
        counts = np.zeros(self.config.dim, dtype=np.int64)
        content, k = hashlib.blake2b(digest_size=16), 0
        for syms in map(self.symbol_indices, texts):
            if syms.shape[0] < n:
                raise TextTooShortError(
                    f"need at least {n} symbols after normalization, got {syms.shape[0]}")
            k += kernels.accumulate_ngrams(self._table, syms, counts)
            content.update(syms.tobytes())
        return Accumulator.from_counts(counts, k).threshold(self._tie_rng(content.digest()))


def encode_record(fields, mem: ItemMemory, rng: RandomSource | None = None) -> Hypervector:
    """Bundle of key XOR value bindings over the record's fields."""
    fields = [f if isinstance(f, RecordField) else RecordField(*f) for f in fields]
    if not fields:
        raise ValueError("record needs at least one field")
    keys = [f.key for f in fields]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate key in record")
    bound = [bind(mem.lookup(f.key), mem.lookup(f.value)) for f in fields]
    return bundle(bound, rng)


def decode_field(record_hv: Hypervector, key, mem: ItemMemory):
    """Unbind ``key`` from the record and clean up: returns (symbol, distance)."""
    probe = bind(mem.lookup(key), record_hv)
    return mem.cleanup(probe)
