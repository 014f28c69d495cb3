"""Model persistence.

Format v1 is a binary file of little-endian fields, and the list that
``_fields`` returns is the only description of its layout. ``save_model``
joins that list. ``load_model`` reads what it needs to rebuild the model
(the header, the alphabet, the item seed and ties flag, the labels and the
class rows), builds it, and then compares the file with ``_fields`` of that
model, so a file loads only if every byte is the one ``save_model`` writes
for the model it describes. Everything else is derived: the alphabet is
always ``DEFAULT_ALPHABET``, the tie seed the item seed plus one (mod
2**64), and the symbol vectors those the item seed draws. Loading and
re-saving therefore reproduces the file byte for byte.

A sidecar JSON at <path>.json mirrors the metadata for human inspection,
with the random tie rule the prototypes were trained under as
``tie_scheme`` (``encoder.TIE_SCHEME``). The binary file does not record
it; loading reads neither it nor the sidecar. A loaded model shares its item
memory and rotated table with every live encoder of the same (dim, n, item
seed).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .algebra import n_words
from .assocmem import AssociativeMemory
from .corpus import regular_file
from .encoder import DEFAULT_ALPHABET, TIE_SCHEME, EncoderConfig, TextEncoder
from .errors import ConfigurationError, DataError
from .pipeline import TrainedModel

MAGIC = b"HDCM"
VERSION = 1


def _text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _fields(model: TrainedModel) -> list:
    """Format v1 of ``model`` as (message, bytes) pairs, in file order.

    ``message`` is what ``load_model`` reports when a file's bytes there are
    not these. The header and the labels hold only what it reads and checks
    itself, so their bytes always match.
    """
    cfg = model.config
    return [
        ("header", MAGIC + struct.pack("<III", VERSION, cfg.dim, cfg.n)
         + _text(DEFAULT_ALPHABET) + struct.pack("<Q", cfg.item_seed)),
        ("tie seed is not the item seed plus one", struct.pack("<Q", cfg.tie_seed)),
        ("deterministic-ties flag is not 0 or 1", struct.pack("<B", cfg.deterministic_ties)),
        ("symbol count does not match alphabet", struct.pack("<I", len(DEFAULT_ALPHABET))),
        (f"symbol vectors are not those of item seed {cfg.item_seed}",
         model.encoder.item_memory.words_matrix().astype("<u8").tobytes()),
        ("labels", struct.pack("<I", len(model.labels))
         + b"".join(_text(str(label)) for label in model.labels)),
        (f"a vector has bits set past dim {cfg.dim}", model.memory.rows().astype("<u8").tobytes()),
    ]


def save_model(model: TrainedModel, path) -> None:
    path = Path(path)
    path.write_bytes(b"".join(field for _, field in _fields(model)))

    cfg = model.config
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
    item_seed, _, det = struct.unpack("<QQB", r.take(17))  # the tie seed is derived
    nw = n_words(dim)
    r.take(4 + len(alphabet) * nw * 8)  # the symbol count and vectors
    labels = [r.text() for _ in range(r.u32())]
    class_rows = np.frombuffer(r.take(len(labels) * nw * 8), dtype="<u8").reshape(len(labels), nw)
    if r.off != len(r.buf):
        raise DataError(f"{path}: trailing bytes after model payload")

    # The layout is intact, but the values may still be ones the model classes
    # reject: dim or n of 0, a duplicate label, no classes, too big a table.
    try:
        config = EncoderConfig(dim=dim, n=n, item_seed=item_seed, deterministic_ties=bool(det))
        model = TrainedModel(encoder=TextEncoder(config),
                             memory=AssociativeMemory.from_rows(labels, class_rows, dim))
    except (ValueError, ConfigurationError) as exc:
        raise DataError(f"{path}: invalid model: {exc}") from None
    off = 0
    for message, field in _fields(model):
        if r.buf[off:off + len(field)] != field:
            raise DataError(f"{path}: {message}")
        off += len(field)
    return model
