"""Binary hypervector type and the multiply-add-permute operation set.

Hypervectors are fixed-dimension binary vectors packed 64 components per
uint64 word (bit ``i`` in word ``i // 64`` at bit ``i % 64``, little-endian
within the word; serialized files keep that word order as little-endian
bytes). The three combining operations are componentwise XOR (``bind``),
componentwise majority with configurable tie handling (``bundle`` /
``Accumulator.threshold``), and cyclic rotation (``permute``). Similarity is
Hamming distance.

All values are immutable once built; operations return new vectors and are
safe to use from concurrent readers. ``Accumulator`` and ``RandomSource``
are single-writer objects.
"""

from __future__ import annotations

import numpy as np

from . import kernels

WORD_BITS = 64


def n_words(dim: int) -> int:
    """Packed uint64 words needed for ``dim`` components."""
    return (dim + WORD_BITS - 1) // WORD_BITS


def _packed_rows(bits) -> np.ndarray:
    """(..., words) uint64 of a (..., dim) 0/1 array; the bits past dim are 0."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros((*bits.shape[:-1], n_words(bits.shape[-1]) * 8), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.uint64)


def pack_bits(bits) -> np.ndarray:
    """Pack a 0/1 uint8 array along its last axis into canonical uint64 words (zero padding)."""
    return _packed_rows(np.ascontiguousarray(bits, dtype=np.uint8))


def unpack_bits(words, dim: int) -> np.ndarray:
    """Unpack canonical uint64 words along the last axis into 0/1 uint8, dim a row."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=dim, bitorder="little")


_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _tail_mask(dim: int) -> np.uint64:
    rem = dim % WORD_BITS
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


def _ones_words(dim: int) -> np.ndarray:
    words = np.full(n_words(dim), _ALL_ONES, dtype=np.uint64)
    words[-1] = _tail_mask(dim)
    return words


class RandomSource:
    """Deterministic random stream with counter-based child derivation.

    The same (seed, key) pair yields the same stream on every run and
    platform. ``child(*key)`` derives an independent stream, so parallel
    work can split randomness without sharing mutable state.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit non-negative integer")
        self.seed = seed
        self.key = tuple(int(k) for k in key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=self.key))
        )

    def child(self, *key: int) -> "RandomSource":
        """Independent stream derived from this source's identity plus ``key``."""
        return RandomSource(self.seed, self.key + tuple(key))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def bits(self, count: int) -> np.ndarray:
        """``count`` independent fair bits as a uint8 array."""
        return self._gen.integers(0, 2, size=count, dtype=np.uint8)

    def words(self, count: int) -> np.ndarray:
        """``count`` uniformly random uint64 words: 64 fair bits each."""
        return self._gen.integers(0, 2**64, size=count, dtype=np.uint64)

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, key={self.key})"


class Hypervector:
    """Immutable bit-packed binary vector of a fixed dimension."""

    __slots__ = ("dim", "words")

    def __init__(self, dim: int, words):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.shape != (n_words(dim),):
            raise ValueError(
                f"expected {n_words(dim)} words for dim={dim}, got shape {words.shape}"
            )
        tail = _tail_mask(dim)
        if words.flags.writeable or (words[-1] & ~tail):
            words = words.copy()
            words[-1] &= tail
            words.setflags(write=False)
        self.dim = dim
        self.words = words

    @classmethod
    def from_bits(cls, bits) -> "Hypervector":
        return cls(len(bits), pack_bits(bits))

    @classmethod
    def zero(cls, dim: int) -> "Hypervector":
        return cls(dim, np.zeros(n_words(dim), dtype=np.uint64))

    def to_bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.dim)

    def popcount(self) -> int:
        return int(kernels.popcount_words(self.words))

    def __eq__(self, other):
        if not isinstance(other, Hypervector):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.words, other.words))

    __hash__ = None

    def __xor__(self, other):
        return bind(self, other)

    def __repr__(self):
        head = "".join(str(b) for b in self.to_bits()[:16])
        tail = "..." if self.dim > 16 else ""
        return f"Hypervector(dim={self.dim}, bits={head}{tail})"


def _check_same_dim(a: Hypervector, b: Hypervector):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")


def random_hv(dim: int, rng: RandomSource) -> Hypervector:
    """Random hypervector with independent equiprobable components."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return Hypervector(dim, pack_bits(rng.bits(dim)))


def bind(a: Hypervector, b: Hypervector) -> Hypervector:
    """Componentwise XOR. Self-inverse: bind(bind(a, b), b) == a."""
    _check_same_dim(a, b)
    return Hypervector(a.dim, np.bitwise_xor(a.words, b.words))


def complement(a: Hypervector) -> Hypervector:
    """Flip every component."""
    return Hypervector(a.dim, np.bitwise_xor(a.words, _ones_words(a.dim)))


def permute(a: Hypervector, shifts: int) -> Hypervector:
    """Cyclic rotation right by ``shifts`` positions (component i moves to i+shifts)."""
    if shifts < 0:
        raise ValueError("shifts must be non-negative")
    s = shifts % a.dim
    if s == 0:
        return a
    return Hypervector.from_bits(np.roll(a.to_bits(), s))


def inverse_permute(a: Hypervector, shifts: int) -> Hypervector:
    """Cyclic rotation left; inverse_permute(permute(a, s), s) == a."""
    if shifts < 0:
        raise ValueError("shifts must be non-negative")
    return permute(a, a.dim - shifts % a.dim)


def hamming(a: Hypervector, b: Hypervector) -> int:
    """Number of components at which two hypervectors differ."""
    _check_same_dim(a, b)
    return int(kernels.hamming_words(a.words, b.words))


def normalized_hamming(a: Hypervector, b: Hypervector) -> float:
    return hamming(a, b) / a.dim


class Accumulator:
    """Per-component integer counters for bundling before thresholding.

    Counts how many accumulated vectors had a 1 in each component. Counters
    are int64; the number of additions must stay below 2**31 (checked).
    """

    _MAX_ITEMS = 2**31

    __slots__ = ("dim", "_counts", "_items")

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self._counts = np.zeros(dim, dtype=np.int64)
        self._items = 0

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def items_added(self) -> int:
        return self._items

    def add(self, hv: Hypervector):
        """Add ``hv`` into the counters."""
        if hv.dim != self.dim:
            raise ValueError(f"dimension mismatch: {hv.dim} != {self.dim}")
        if self._items + 1 >= self._MAX_ITEMS:
            raise ValueError("accumulator supports fewer than 2**31 additions")
        self._counts += hv.to_bits()
        self._items += 1

    def threshold(self, rng: RandomSource | None = None) -> Hypervector:
        """Majority vote: 1 where counts exceed half the additions.

        Exact ties (even counts only) at component i take bit i of
        ``n_words(dim)`` random words drawn from ``rng``; with ``rng=None``
        ties resolve to 1, which keeps regression runs bit-exact across
        platforms.
        """
        if self._items == 0:
            raise ValueError("cannot threshold an empty accumulator")
        ties = None if rng is None else rng.words(n_words(self.dim))[None]
        words = majority_words(self._counts[None], [self._items], ties)
        return Hypervector(self.dim, words[0])


def majority_words(counts, items, ties=None) -> np.ndarray:
    """Read-only (rows, words) packed majorities of a (rows, dim) count matrix.

    Row r of ``counts`` holds, per component, how many of ``items[r]``
    vectors had a 1 there. ``counts`` may be of any integer type that holds
    the largest of ``items``; it is used as it is, with no cast and no range
    check, so every value must lie in [0, items[r]]. A component is 1 where
    its count exceeds half of its row's items. An exact tie (even items
    only) at component i of row r takes bit i of ``ties[r]``, a (rows,
    words) uint64 matrix in the packed bit order, or is 1 with
    ``ties=None``. Two packs and no per-row step:
    ``packbits(counts > half) | (packbits(counts == half) & even rows & ties)``.
    """
    rows, dim = counts.shape
    items = np.asarray(items, dtype=np.int64)
    # c > items // 2 is 2c > items for odd and even items alike.
    half = (items // 2).astype(counts.dtype)[:, None]
    words = _packed_rows(np.greater(counts, half))
    tied = _packed_rows(np.equal(counts, half))
    tied &= np.where(items % 2 == 0, _ALL_ONES, np.uint64(0))[:, None]
    if ties is not None:
        tied &= ties
    words |= tied
    words.setflags(write=False)  # read-only and clean: Hypervector keeps its rows
    return words


def bundle(vectors, rng: RandomSource | None = None) -> Hypervector:
    """Componentwise majority of a non-empty list of equal-dimension vectors."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("bundle requires at least one hypervector")
    acc = Accumulator(vectors[0].dim)
    for v in vectors:
        acc.add(v)
    return acc.threshold(rng)
