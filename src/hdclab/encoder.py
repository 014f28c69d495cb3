"""Mapping and encoding: text streams to hypervectors via rotate-and-bind.

A length-n window of symbols becomes one hypervector by rotating each
symbol's seed vector by its distance from the window end (oldest symbol
rotated most) and XOR-folding the results. Texts are the majority vote over
all their sliding windows, none spanning two texts. The same binding
machinery also encodes key/value records and decodes fields back out of them.

Text reaches this encoder and the n-gram baseline through one front end,
``code_texts``: it normalizes each text of a group with ``normalize_text``
and codes them all through one byte table, into the form every group takes
from there to the counts, a ``(syms, ends)`` pair. The symbol set is
fixed: the 27 characters ``DEFAULT_ALPHABET`` holds, which are all
``normalize_text`` emits.
"""

from __future__ import annotations

import hashlib
import itertools
import string
import weakref
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import (Hypervector, RandomSource, bind, bundle, majority_words, n_words,
                      pack_bits, unpack_bits)
from .errors import ConfigurationError, TextTooShortError
from .itemmem import ItemMemory

# The only symbol set: a-z and space, as in the 21-language trigram
# classifier (Rahimi, Kanerva & Rabaey, ISLPED 2016).
DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz "

# Largest pre-rotated table TextEncoder builds, n * symbols * words * 8 bytes:
# about 660x the 101,736 B of the default trigram table at D = 10000.
MAX_TABLE_BYTES = 64 * 2**20

# Version of the random tie rule (see TextEncoder), recorded in the model
# sidecar JSON; it changes whenever the same text starts taking other tie bits.
TIE_SCHEME = 2

# Most groups per kernels.accumulate_ngrams call and per threshold call: the
# only bound on how many groups are counted at once. A chunk's count buffer
# and its contraction rows (one float32 row of 27**3 values per group of many
# windows) are all held at once, so working memory does not grow with the
# groups of an encode_symbols call. The paper's 21 languages are one chunk;
# 64 raised the training peak at 48/64 labels from 4.29/4.74 to 6.86/8.28 MiB
# (CHANGES.md, "One batch size from text to counts").
ENCODE_GROUPS = 24

# Byte -> a-z for A-Z and a-z, space for every other byte.
_FOLD = bytes(ord(chr(c).lower()) if chr(c) in string.ascii_letters else 0x20 for c in range(256))


def normalize_text(raw: str) -> str:
    """Case-fold A-Z, collapse every other character run to one space, strip ends.

    Only ASCII letters are folded; accented and non-Latin characters count
    as non-alphabet and disappear into the separating space. Each non-ASCII
    code point, a lone surrogate included, encodes as one ``?``, which maps
    to a space like every other byte outside A-Z and a-z.
    """
    return b" ".join(raw.encode("ascii", "replace").translate(_FOLD).split()).decode("ascii")


# Byte -> DEFAULT_ALPHABET index, and every other byte (find's -1) -> 0xFF: past
# the encoder table's 27 rows, so a byte normalize_text never emits is no symbol.
_SYMBOLS = bytes(DEFAULT_ALPHABET.find(chr(c)) % 256 for c in range(256))


def code_texts(texts) -> tuple[np.ndarray, list]:
    """(syms, ends) of a group of texts.

    ``syms`` is the read-only uint8 alphabet index of every symbol of the
    normalized texts, joined, and ``ends[i]`` is where text i ends in it, so
    text i is ``syms[ends[i - 1]:ends[i]]`` (from 0 for the first). Each text
    is normalized once, and all are coded by one ``bytes.translate``.
    """
    normalized = [normalize_text(text) for text in texts]
    syms = np.frombuffer("".join(normalized).encode("ascii").translate(_SYMBOLS), dtype=np.uint8)
    return syms, list(itertools.accumulate(map(len, normalized)))


def group_windows(ends, n: int, group: int | None = None) -> int:
    """Windows of length n over the texts of a group with these ``ends``.

    ValueError when there is no text; TextTooShortError, whose ``group`` is
    the given one, when a text has fewer than n symbols.
    """
    if not ends:
        raise ValueError("need at least one text")
    shortest = min(hi - lo for lo, hi in itertools.pairwise([0, *ends]))
    if shortest < n:
        raise TextTooShortError(
            f"need at least {n} symbols after normalization, got {shortest}", group=group)
    return ends[-1] - len(ends) * (n - 1)


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
        """Key of the tie vectors: the item seed plus one, mod 2**64.

        Its 8 little-endian bytes are the first input of every text's
        ``hashlib.shake_128`` tie vector (see ``TextEncoder``).
        """
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
        # Row j rotates by n - 1 - j, one symbol unpacked at a time (CHANGES.md, "No detours").
        for s, words in enumerate(self.item_memory.words_matrix()):
            bits = unpack_bits(words, dim)
            rotations = pack_bits([np.roll(bits, n - 1 - j) for j in range(n)])
            table[:, s] = kernels.kernel_order(rotations)
        table.setflags(write=False)
        self.table = table


# Seed tables by (dim, n, item_seed), shared by every encoder of that config
# and dropped with the last one.
_SEED_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class TextEncoder:
    """Streams normalized text into text hypervectors.

    Pre-rotates the whole alphabet once per (dim, n, item seed), as packed
    words in the kernels' table order (``kernels.kernel_order``), and shares
    that table and the item memory with every other live encoder of the
    same key (at the defaults 101,736 B of table and 33,912 B of item
    memory). ``encode``, training and the test-set path all end in
    ``encode_symbols``, whose groups are ``(syms, ends)`` pairs as
    ``code_texts`` gives them.

    Tie rule (``TIE_SCHEME`` 2): an exact tie at component i (an even window
    count k, half of whose windows have a 1 there) takes bit i of the text's
    tie vector. That vector is ``hashlib.shake_128`` of the 8-byte
    little-endian ``EncoderConfig.tie_seed`` and then the symbols of each
    text of the group, one byte each, in order, read as ``8 * n_words(dim)``
    bytes of little-endian words: one extra random vote per component, keyed
    by content alone, so given texts encode identically whatever else is
    encoded and in whatever order. Only a group of even k can tie, so only
    such a group is hashed. With ``deterministic_ties`` every tie is 1.

    A group holds its texts' symbols, one byte each, and one end offset per
    text; beyond that and one row of words per group, nothing is kept per
    text, and working memory is bounded independently of how long or how
    many the texts are: one chunk of at most ``ENCODE_GROUPS`` groups is
    counted at a time, and the kernels work in blocks of bounded size
    (``kernels.STREAM_BLOCK`` windows, ``kernels.CONTRACT_FLOATS`` values).
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
        self._tie_key = hashlib.shake_128(config.tie_seed.to_bytes(8, "little"))

    def symbol_indices(self, *texts: str):
        """``code_texts(texts)``: the (syms, ends) group of the normalized texts."""
        return code_texts(texts)

    def encode(self, *texts: str) -> Hypervector:
        """Count the sliding n-grams of every normalized text and threshold once at k/2.

        n symbols are one window: permute(l_0, n-1) XOR ... XOR l_{n-1}. No
        window spans two texts; k is the windows of all texts. A tied
        component i (even k only) takes bit i of the texts' tie vector (see
        ``TextEncoder``), or 1 with ``deterministic_ties``.
        """
        return Hypervector(self.config.dim, self.encode_symbols([self.symbol_indices(*texts)])[0])

    def encode_symbols(self, groups) -> np.ndarray:
        """Read-only (groups, words) uint64 matrix: row g encodes the group ``groups[g]``.

        A group is a ``(syms, ends)`` pair as ``code_texts`` gives it, and
        row g is ``encode`` of the texts it came from, bit for bit. The
        groups are split into the fewest chunks of at most ``ENCODE_GROUPS``,
        whose sizes differ by at most one, so that no small remainder pays a
        kernel call's fixed cost alone. Each chunk is one
        ``kernels.accumulate_ngrams`` call, into counts of the narrowest
        unsigned type that holds its largest window count, and one
        ``majority_words`` call with its tie vectors. Before anything is
        counted, a group with no text raises ValueError, and one with a
        text shorter than n TextTooShortError whose ``group`` is g.
        """
        windows = [group_windows(ends, self.config.n, g) for g, (_, ends) in enumerate(groups)]
        out = np.empty((len(groups), n_words(self.config.dim)), dtype=np.uint64)
        chunks = -(-len(groups) // ENCODE_GROUPS)
        for c in range(chunks):
            lo, hi = c * len(groups) // chunks, (c + 1) * len(groups) // chunks
            chunk, ks = groups[lo:hi], windows[lo:hi]
            counts = np.zeros((len(chunk), self.config.dim), dtype=np.min_scalar_type(max(ks)))
            kernels.accumulate_ngrams(self._table, chunk, ks, counts)
            ties = None if self.config.deterministic_ties else self._tie_words(chunk, ks)
            out[lo:hi] = majority_words(counts, ks, ties)
        out.setflags(write=False)
        return out

    def _tie_words(self, groups, ks) -> np.ndarray:
        """(groups, words) tie vectors: the tie seed, then each group's symbols,
        hashed, for each group of an even window count ``ks[g]``. A group of
        odd k has no tie, and ``majority_words`` masks its row, so it is zeros."""
        nw = n_words(self.config.dim)
        zeros = bytes(8 * nw)
        digests = []
        for (syms, _), k in zip(groups, ks):
            if k % 2:
                digests.append(zeros)
                continue
            key = self._tie_key.copy()
            key.update(syms.astype(np.uint8, copy=False))
            digests.append(key.digest(8 * nw))
        return np.frombuffer(b"".join(digests), dtype="<u8").reshape(len(groups), nw)


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
