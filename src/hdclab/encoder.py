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
from .algebra import (Hypervector, RandomSource, bind, bundle, majority_words, n_words,
                      permute)
from .errors import ConfigurationError, DataError, TextTooShortError
from .itemmem import ItemMemory

# The only symbol set: a-z and space, as in the 21-language trigram
# classifier (Rahimi, Kanerva & Rabaey, ISLPED 2016).
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz "

# Largest pre-rotated table TextEncoder builds, n * symbols * words * 8 bytes:
# about 660x the 101,736 B of the default trigram table at D = 10000.
MAX_TABLE_BYTES = 64 * 2**20

# Groups per counting call of TextEncoder.encode_symbols, so that the count
# buffer is one chunk's (640 KB of uint8 for 64 short texts at D = 10000),
# however many groups a call has. On the 630 sentences of the seed-1
# benchmark corpus, evaluate took 113/110/109/109/109 ms at 16/32/64/128/all
# groups per call, and its tracemalloc peak read 1.8/2.1/2.7/4.0/7.6 MiB
# (fastest of 15 interleaved calls, one OpenBLAS thread, 2-vCPU Xeon VM).
ENCODE_GROUPS = 64

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

# Bit 7 of a _JoinedGroup byte: the first symbol of a stream after the first.
_START = 0x80


class _JoinedGroup:
    """One group's symbol streams, each at least one symbol long, in one uint8 buffer.

    Symbols are below 32, so bit 7 is free: it marks the first symbol of
    every stream after the first. No per-stream array or offset is kept, so
    a group holds its symbols, one byte each, and nothing more however many
    texts they came from. Iterating yields each stream as a fresh uint8
    array, which lives only as long as its reader keeps it.
    """

    __slots__ = ("_syms", "_len")

    def __init__(self, streams):
        self._len = len(streams)
        self._syms = np.concatenate(streams, dtype=np.uint8, casting="unsafe")
        start = 0
        for syms in streams[:-1]:
            start += syms.shape[0]
            self._syms[start] |= _START

    def __len__(self):
        return self._len

    def __iter__(self):
        starts = np.flatnonzero(self._syms >= _START).tolist()
        for lo, hi in zip([0, *starts], [*starts, self._syms.shape[0]]):
            yield self._syms[lo:hi] & (_START - 1)


def _too_short(syms, n: int, g: int) -> TextTooShortError:
    return TextTooShortError(
        f"need at least {n} symbols after normalization, got {syms.shape[0]}", group=g)


class TextEncoder:
    """Streams normalized text into text hypervectors.

    Pre-rotates the whole alphabet once per (dim, n, item seed), as packed
    words only, and shares that table and the item memory with every other
    live encoder of the same key (at the defaults 101,736 B of table and
    33,912 B of item memory). ``encode``, ``encode_each`` and the test-set
    path all end in ``encode_symbols``: groups of symbol streams are counted
    ``ENCODE_GROUPS`` to a call, by a packed XOR fold with one carry-save
    level for short texts and one pair-sign contraction over all long texts
    of the call (see ``kernels.accumulate_ngrams``), into counts of the
    narrowest unsigned type that holds the call's largest group, and each
    count row is thresholded as it is by ``majority_words``. ``encode_each``
    reads the texts of a group of several into one ``_JoinedGroup``, so
    beyond the texts' symbols, one byte each, and one row of words per
    group, nothing is kept per text, and working memory is bounded independently of how
    long or how many the texts are: the count buffer holds one chunk of
    groups, the stream works in blocks of ``kernels.STREAM_BLOCK`` (255)
    windows, 2.5 MB unpacked at D = 10000, and the contraction in passes of
    at most ``kernels.CONTRACT_ROWS`` histogram rows, one per group of long
    texts, of ``nsym**n`` float32 values each, whose blocks take at most
    ``kernels.CONTRACT_FLOATS`` (1 MiB). Training the 21 x
    20k-char benchmark corpus at D = 10000 peaked at 3.56 MiB under
    tracemalloc, and evaluating its 630 test sentences at 2.7 MiB.
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
        """``[encode(*texts) for texts in groups]``, bit for bit, through ``encode_symbols``.

        A group of several texts is read into one ``_JoinedGroup``, one of a
        single text into a list of its uint8 symbols. A too-short text raises
        TextTooShortError whose ``group`` is its group's index.
        """
        words = self.encode_symbols([self._read(g, texts) for g, texts in enumerate(groups)])
        return [Hypervector(self.config.dim, row) for row in words]

    def _read(self, g: int, texts):
        if not texts:
            raise ValueError("encode needs at least one text")
        streams = [self.symbol_indices(text) for text in texts]
        for syms in streams:
            if syms.shape[0] < self.config.n:
                raise _too_short(syms, self.config.n, g)
        if len(streams) == 1:  # nothing to join
            return [streams[0].astype(np.uint8)]
        return _JoinedGroup(streams)

    def encode_symbols(self, groups) -> np.ndarray:
        """Read-only (groups, words) uint64 matrix: row g encodes the symbol streams ``groups[g]``.

        A group is a sequence of streams that may be read more than once; a
        stream is an integer array of alphabet indices, as
        ``symbol_indices`` gives. Row g is ``encode`` of the texts those
        streams came from, bit for bit (the tie stream is keyed by their
        int64 values). Groups are counted ``ENCODE_GROUPS`` to one
        ``kernels.accumulate_ngrams`` call, into counts of the narrowest
        unsigned type that holds the chunk's largest window count, and each
        count row is thresholded as it is by ``majority_words``. A stream
        shorter than n raises TextTooShortError whose ``group`` is g.
        """
        out = np.empty((len(groups), n_words(self.config.dim)), dtype=np.uint64)
        for lo in range(0, len(groups), ENCODE_GROUPS):
            chunk = groups[lo : lo + ENCODE_GROUPS]
            windows, digests = zip(*(self._key(g, group) for g, group in enumerate(chunk, lo)))
            counts = np.zeros((len(chunk), self.config.dim),
                              dtype=np.min_scalar_type(max(windows)))
            kernels.accumulate_ngrams(self._table, chunk, counts)
            for row, c, k, d in zip(out[lo:], counts, windows, digests):
                row[:] = majority_words(c, k, self._tie_rng(d))
        out.setflags(write=False)
        return out

    def _key(self, g: int, group):
        """(k, digest) of group g: its window count and its tie key, one blake2b over its symbols."""
        if not len(group):
            raise ValueError("encode needs at least one text")
        n = self.config.n
        content, k = hashlib.blake2b(digest_size=16), 0
        for syms in group:
            if syms.shape[0] < n:
                raise _too_short(syms, n, g)
            content.update(syms.astype(np.int64, copy=False))
            k += syms.shape[0] - n + 1
        return k, content.digest()


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
