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
import weakref
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


class _SeedTables:
    """The item memory and pre-rotated table of one (dim, n, item_seed)."""

    __slots__ = ("item_memory", "table", "__weakref__")

    def __init__(self, dim: int, n: int, item_seed: int):
        self.item_memory = ItemMemory.build(list(DEFAULT_ALPHABET), dim, item_seed)
        table = np.empty((n, len(DEFAULT_ALPHABET), n_words(dim)), dtype=np.uint64)
        for s, ch in enumerate(DEFAULT_ALPHABET):
            base = self.item_memory.lookup(ch)
            for j in range(n):
                table[j, s] = permute(base, n - 1 - j).words
        table.setflags(write=False)
        self.table = table


# Seed tables by (dim, n, item_seed), shared by every encoder of that config
# and dropped with the last one.
_SEED_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class TextEncoder:
    """Streams normalized text into text hypervectors.

    Pre-rotates the whole alphabet once per (dim, n, item seed), as packed
    words only, and shares that table and the item memory with every other
    live encoder of the same key (at the defaults 101,736 B of table and
    33,912 B of item memory). Counting is a packed XOR fold per window for
    short texts and one pair-sign contraction over all long texts of a call
    (see ``kernels.accumulate_ngrams``), into counts of the narrowest
    unsigned type that holds each group's window count. Beyond each text's
    symbols, one byte each, working memory is bounded independently of how
    long or how many the texts are: the stream works in blocks of
    ``kernels.STREAM_BLOCK`` (255) windows, 2.5 MB unpacked at D = 10000,
    and the contraction in passes of at most ``kernels.CONTRACT_ROWS`` texts
    whose histograms take ``nsym**n`` float32 values each and whose blocks
    take at most ``kernels.CONTRACT_FLOATS`` (1 MiB). Training the 21 x
    20k-char benchmark corpus at D = 10000 peaked at 3.69 MiB under
    tracemalloc.
    """

    def __init__(self, config: EncoderConfig):
        table_bytes = config.n * len(DEFAULT_ALPHABET) * n_words(config.dim) * 8
        if table_bytes > MAX_TABLE_BYTES:
            raise ConfigurationError(f"an encoder table of n={config.n} at D={config.dim} "
                                     f"is {table_bytes} bytes, over {MAX_TABLE_BYTES}")
        self.config = config
        key = (config.dim, config.n, int(config.item_seed))
        seeds = _SEED_TABLES.get(key)
        if seeds is None:
            seeds = _SEED_TABLES[key] = _SeedTables(*key)
        self._seeds = seeds  # keeps the shared entry alive
        self.item_memory = seeds.item_memory
        self._table = seeds.table
        self._tie_root = RandomSource(config.tie_seed)

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
        return self.encode_each([texts])[0]

    def encode_each(self, groups) -> list[Hypervector]:
        """``[encode(*texts) for texts in groups]``, bit for bit, counted in one kernel call.

        A too-short text raises TextTooShortError whose ``group`` is its
        group's index.
        """
        n = self.config.n
        streams, windows, digests = [], [], []
        for g, texts in enumerate(groups):
            if not texts:
                raise ValueError("encode needs at least one text")
            content, k, group = hashlib.blake2b(digest_size=16), 0, []
            for text in texts:
                syms = self.symbol_indices(text)
                if syms.shape[0] < n:
                    raise TextTooShortError(
                        f"need at least {n} symbols after normalization, got {syms.shape[0]}",
                        group=g)
                content.update(syms)
                k += syms.shape[0] - n + 1
                group.append(syms.astype(np.uint8))  # 27 symbols: one byte each
            streams.append(group)
            windows.append(k)
            digests.append(content.digest())
        # The narrowest unsigned type that holds every group's window count.
        dtype = np.min_scalar_type(max(windows, default=0))
        counts = np.zeros((len(streams), self.config.dim), dtype=dtype)
        kernels.accumulate_ngrams(self._table, streams, counts)
        return [Accumulator.from_counts(c, k).threshold(self._tie_rng(d))
                for c, k, d in zip(counts, windows, digests)]


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
