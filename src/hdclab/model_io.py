"""Model persistence.

Binary container (all integers little-endian):

    magic "HDCM" | u32 version | u32 dim | u32 n
    u32 alphabet byte length | alphabet UTF-8
    u64 item seed | u64 tie seed | u8 deterministic-ties flag
    u32 symbol count   | symbol vectors, packed u64 words per symbol
    u32 class count    | per class: u32 label byte length + label UTF-8
    class vectors, packed u64 words per class

A sidecar JSON at <path>.json mirrors the metadata for human inspection,
with the random tie rule the prototypes were trained under as
``tie_scheme`` (``encoder.TIE_SCHEME``). The binary file does not record
it; loading reads neither it nor the sidecar.
The alphabet is always ``DEFAULT_ALPHABET``, the tie seed the item seed
plus one (mod 2**64) and the symbol vectors those the item seed draws.
Loading refuses any other, a flag other than 0 or 1 and any bit set past
dim, so loading and re-saving reproduces the file byte for byte. A loaded
model shares its item memory and rotated table with every live encoder of
the same (dim, n, item seed).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .algebra import _tail_mask, n_words
from .assocmem import AssociativeMemory
from .corpus import regular_file
from .encoder import DEFAULT_ALPHABET, TIE_SCHEME, EncoderConfig, TextEncoder
from .errors import ConfigurationError, DataError
from .pipeline import TrainedModel

MAGIC = b"HDCM"
VERSION = 1


def _pack_words(rows: np.ndarray) -> bytes:
    return np.ascontiguousarray(rows, dtype="<u8").tobytes()


def save_model(model: TrainedModel, path) -> None:
    path = Path(path)
    cfg = model.config
    alpha = DEFAULT_ALPHABET.encode("utf-8")
    parts = [
        MAGIC,
        struct.pack("<III", VERSION, cfg.dim, cfg.n),
        struct.pack("<I", len(alpha)), alpha,
        struct.pack("<QQB", cfg.item_seed, cfg.tie_seed, int(cfg.deterministic_ties)),
        struct.pack("<I", len(DEFAULT_ALPHABET)),
        _pack_words(model.encoder.item_memory.words_matrix()),
        struct.pack("<I", len(model.labels)),
    ]
    for label in model.labels:
        lb = str(label).encode("utf-8")
        parts.append(struct.pack("<I", len(lb)))
        parts.append(lb)
    parts.append(_pack_words(model.memory.rows()))
    path.write_bytes(b"".join(parts))

    sidecar = {
        "format": MAGIC.decode("ascii"),
        "version": VERSION,
        "dim": cfg.dim,
        "n": cfg.n,
        "alphabet": DEFAULT_ALPHABET,
        "item_seed": cfg.item_seed,
        "tie_seed": cfg.tie_seed,
        "deterministic_ties": cfg.deterministic_ties,
        "tie_scheme": TIE_SCHEME,
        "labels": [str(lb) for lb in model.labels],
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.off = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.off + count > len(self.buf):
            raise DataError(f"model file {self.path} is truncated")
        out = self.buf[self.off:self.off + count]
        self.off += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        """A u32 byte length followed by that many bytes of UTF-8."""
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(
                f"{self.path}: text field ending at byte {self.off} is not valid UTF-8"
            ) from None

    def words(self, rows: int, cols: int) -> np.ndarray:
        raw = self.take(rows * cols * 8)
        return np.frombuffer(raw, dtype="<u8").reshape(rows, cols).astype(np.uint64)


def load_model(path) -> TrainedModel:
    path = regular_file(path)
    r = _Reader(path.read_bytes(), path)
    if r.take(4) != MAGIC:
        raise DataError(f"{path} is not a model file (bad magic)")
    version, dim, n = struct.unpack("<III", r.take(12))
    if version != VERSION:
        raise DataError(f"{path}: unsupported model version {version}")
    alphabet = r.text()
    if alphabet != DEFAULT_ALPHABET:
        raise DataError(f"{path}: alphabet {alphabet!r} is not {DEFAULT_ALPHABET!r}")
    item_seed, tie_seed, det = struct.unpack("<QQB", r.take(17))
    if tie_seed != (item_seed + 1) % 2**64:
        raise DataError(f"{path}: tie seed {tie_seed} is not the item seed plus one")
    if det > 1:
        raise DataError(f"{path}: deterministic-ties flag {det} is not 0 or 1")
    num_symbols = r.u32()
    if num_symbols != len(alphabet):
        raise DataError(f"{path}: symbol count does not match alphabet")
    nw = n_words(dim)
    sym_rows = r.words(num_symbols, nw)
    num_classes = r.u32()
    labels = [r.text() for _ in range(num_classes)]
    class_rows = r.words(num_classes, nw)
    if r.off != len(r.buf):
        raise DataError(f"{path}: trailing bytes after model payload")

    # The layout is intact, but the values may still be ones the model classes
    # reject: dim or n of 0, a duplicate label, no classes, too big a table.
    try:
        config = EncoderConfig(dim=dim, n=n, item_seed=item_seed, deterministic_ties=bool(det))
        if any((rows[:, -1] & ~_tail_mask(dim)).any() for rows in (sym_rows, class_rows)):
            raise DataError(f"{path}: a vector has bits set past dim {dim}")
        encoder = TextEncoder(config)
        assoc = AssociativeMemory.from_rows(labels, class_rows, dim)
    except (ValueError, ConfigurationError) as exc:
        raise DataError(f"{path}: invalid model: {exc}") from None
    if not np.array_equal(sym_rows, encoder.item_memory.words_matrix()):
        raise DataError(f"{path}: symbol vectors are not those of item seed {item_seed}")
    return TrainedModel(encoder=encoder, memory=assoc)
