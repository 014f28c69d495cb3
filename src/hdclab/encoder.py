"""Mapping and encoding: text streams to hypervectors via rotate-and-bind.

A length-n window of symbols becomes one hypervector by rotating each
symbol's seed vector by its distance from the window end (oldest symbol
rotated most) and XOR-folding the results. A whole text is the majority
vote over all its sliding windows. The same binding machinery also encodes
key/value records and decodes fields back out of them.

Text reaches this encoder and the n-gram baseline through one front end:
``normalize_text``, then ``symbol_codes`` (``DataError`` outside the alphabet).
"""

from __future__ import annotations

import functools
import hashlib
import re
import string
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import Accumulator, Hypervector, RandomSource, bind, bundle, n_words, permute
from .errors import DataError, TextTooShortError
from .itemmem import ItemMemory

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz "

_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_NON_ALPHA = re.compile(r"[^a-z]+")


def normalize_text(raw: str) -> str:
    """Case-fold A-Z, collapse every other character run to one space, strip ends.

    Only ASCII letters are folded; accented and non-Latin characters count
    as non-alphabet and disappear into the separating space.
    """
    return _NON_ALPHA.sub(" ", raw.translate(_FOLD)).strip(" ")


@functools.lru_cache(maxsize=8)
def code_table(alphabet: str) -> np.ndarray:
    """Read-only int64 code point -> alphabet index table, -1 elsewhere and last."""
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet must be non-empty and free of duplicates")
    points = [ord(ch) for ch in alphabet]
    table = np.full(max(points) + 2, -1, dtype=np.int64)
    table[points] = np.arange(len(points))
    table.setflags(write=False)
    return table


def symbol_codes(text: str, alphabet: str) -> np.ndarray:
    """int64 alphabet index of every character; DataError names the first one outside it."""
    table = code_table(alphabet)
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    syms = table[np.minimum(points, table.shape[0] - 1)]
    bad = np.flatnonzero(syms < 0)
    if bad.size:
        raise DataError(f"symbol {text[bad[0]]!r} is not in the alphabet")
    return syms


@dataclass(frozen=True)
class EncoderConfig:
    """Knobs of the text encoder; defaults match the 27-symbol trigram setup."""

    dim: int = 10000
    n: int = 3
    alphabet: str = DEFAULT_ALPHABET
    item_seed: int = 1
    tie_seed: int = 2
    deterministic_ties: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > self.dim:
            # Rotations repeat every dim positions, so a longer window would reuse
            # one; this also bounds TextEncoder's (n, symbols, words) table.
            raise ValueError("n must not exceed dim")
        code_table(self.alphabet)  # validates the alphabet
        for name in ("item_seed", "tie_seed"):
            s = getattr(self, name)
            if not 0 <= int(s) < 2**64:
                raise ValueError(f"{name} must be a 64-bit non-negative integer")


@dataclass(frozen=True)
class RecordField:
    """One key/value pair of an encoded record."""

    key: str
    value: str


def encode_ngram(letters, mem: ItemMemory) -> Hypervector:
    """Rotate-and-bind composition of a symbol window.

    With letters l_0 .. l_{n-1}, returns
    permute(l_0, n-1) XOR permute(l_1, n-2) XOR ... XOR l_{n-1}.
    """
    letters = list(letters)
    n = len(letters)
    if n < 1:
        raise ValueError("n-gram needs at least one symbol")
    out = None
    for j, sym in enumerate(letters):
        v = permute(mem.lookup(sym), n - 1 - j)
        out = v if out is None else bind(out, v)
    return out


class TextEncoder:
    """Streams normalized text into a single text hypervector.

    Pre-rotates the whole alphabet once, as packed words only, so counting
    is a packed XOR fold per window for short texts and one n-gram
    histogram contraction for long ones (see ``kernels.accumulate_ngrams``).
    Beyond the text's symbol indices, working memory is bounded independently
    of its length: both methods work in blocks of ``kernels.NGRAM_CHUNK``
    windows, and the contraction's histogram and intermediate depend only on
    the alphabet size and n.
    """

    def __init__(self, config: EncoderConfig, item_memory: ItemMemory | None = None):
        self.config = config
        if item_memory is None:
            item_memory = ItemMemory.build(
                list(config.alphabet), config.dim, config.item_seed
            )
        if item_memory.dim != config.dim:
            raise ValueError("item memory dimension does not match config")
        for ch in config.alphabet:
            if ch not in item_memory:
                raise ValueError(f"item memory is missing alphabet symbol {ch!r}")
        self.item_memory = item_memory
        self._table = self._build_rotated_table()
        self._tie_root = RandomSource(config.tie_seed)
        self.symbols_consumed = 0  # instrumentation: total symbols fed to encode()

    def _build_rotated_table(self) -> np.ndarray:
        n, dim = self.config.n, self.config.dim
        nsym = len(self.config.alphabet)
        table = np.empty((n, nsym, n_words(dim)), dtype=np.uint64)
        for s, ch in enumerate(self.config.alphabet):
            base = self.item_memory.lookup(ch)
            for j in range(n):
                table[j, s] = permute(base, n - 1 - j).words
        table.setflags(write=False)
        return table

    def symbol_indices(self, text: str, normalize: bool = True) -> np.ndarray:
        """Map text to int64 alphabet indices; DataError on symbols outside it."""
        if normalize:
            text = normalize_text(text)
        return symbol_codes(text, self.config.alphabet)

    def _tie_rng(self, syms: np.ndarray) -> RandomSource | None:
        if self.config.deterministic_ties:
            return None
        # Keyed by content so a given text encodes identically regardless of
        # processing order or parallelism.
        digest = hashlib.blake2b(syms.tobytes(), digest_size=16).digest()
        hi = int.from_bytes(digest[:8], "little")
        lo = int.from_bytes(digest[8:], "little")
        return self._tie_root.child(hi, lo)

    def encode(self, text: str, normalize: bool = True) -> Hypervector:
        """Accumulate every sliding n-gram of the text and threshold at k/2."""
        syms = self.symbol_indices(text, normalize=normalize)
        n = self.config.n
        if syms.shape[0] < n:
            raise TextTooShortError(
                f"need at least {n} symbols after normalization, got {syms.shape[0]}"
            )
        counts = np.zeros(self.config.dim, dtype=np.int64)
        k = kernels.accumulate_ngrams(self._table, syms, counts)
        self.symbols_consumed += int(syms.shape[0])
        acc = Accumulator.from_counts(counts, k)
        return acc.threshold(self._tie_rng(syms))

    def encode_ngram(self, letters) -> Hypervector:
        """Single-window encode; length must equal the configured n."""
        letters = list(letters)
        if len(letters) != self.config.n:
            raise ValueError(
                f"expected exactly {self.config.n} symbols, got {len(letters)}"
            )
        return self.encode("".join(letters), normalize=False)


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
