"""Model persistence.

A model file is little-endian fields, and the list that ``_fields`` returns
is the only description of its layout. ``save_model`` writes format v2, the
only format it writes:

    magic "HDCM", version u32 = 2, dim u32, n u32, item seed u64,
    deterministic-ties flag u8, tie scheme u8 (``encoder.TIE_SCHEME``),
    label count u32, each label as u32 length + UTF-8, the class rows as
    ceil(dim/64) u64 words each, and a CRC-32 (``zlib.crc32``) of every
    byte before it, as u32.

Format v1 has no tie scheme or checksum, and stores what the item seed
rebuilds: the alphabet (always ``DEFAULT_ALPHABET``) after n, the tie seed
(the item seed plus one, mod 2**64) after the item seed, and the symbol
count and symbol vectors (those the item seed draws) after the ties flag.
v1 files still load.

``load_model`` keys on the version. For v2 it checks the file's length and
CRC before it reads any other value or builds any object, and refuses a
tie scheme other than ``TIE_SCHEME``. It reads what it needs to rebuild
the model, builds it, and then compares the file with ``_fields`` of that
model at the file's version, so a file loads only if every byte is the one
that layout holds for the model it describes. A v1 file therefore loads
exactly when it did before v2 existed, and re-saving the loaded model
writes v2.

A sidecar JSON at <path>.json mirrors the metadata for human inspection,
with the tie rule as ``tie_scheme``; loading does not read it. A loaded
model shares its item memory and rotated table with every live encoder of
the same (dim, n, item seed).
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .algebra import n_words
from .assocmem import AssociativeMemory
from .corpus import regular_file
from .encoder import DEFAULT_ALPHABET, TIE_SCHEME, EncoderConfig, TextEncoder
from .errors import ConfigurationError, DataError
from .pipeline import TrainedModel

MAGIC = b"HDCM"
VERSION = 2
# The shortest v2 file: 30 bytes from the magic to the label count, then the CRC.
_V2_MIN_BYTES = 30 + 4


def _text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _fields(model: TrainedModel, version: int = VERSION) -> list:
    """Format ``version`` of ``model`` as (message, bytes) pairs, in file order.

    ``message`` is what ``load_model`` reports when a file's bytes there are
    not these. The header, the labels and the v2 tie scheme hold only what
    it reads and checks itself, so their bytes always match, and so does the
    CRC once everything before it does.
    """
    cfg = model.config
    v1 = version == 1
    header = MAGIC + struct.pack("<III", version, cfg.dim, cfg.n)
    if v1:
        header += _text(DEFAULT_ALPHABET)
    fields = [("header", header + struct.pack("<Q", cfg.item_seed))]
    if v1:
        fields.append(("tie seed is not the item seed plus one", struct.pack("<Q", cfg.tie_seed)))
    fields.append(("deterministic-ties flag is not 0 or 1",
                   struct.pack("<B", cfg.deterministic_ties)))
    if v1:
        fields += [
            ("symbol count does not match alphabet", struct.pack("<I", len(DEFAULT_ALPHABET))),
            (f"symbol vectors are not those of item seed {cfg.item_seed}",
             model.encoder.item_memory.words_matrix().astype("<u8").tobytes()),
        ]
    else:
        fields.append((f"tie scheme is not {TIE_SCHEME}", struct.pack("<B", TIE_SCHEME)))
    fields += [
        ("labels", struct.pack("<I", len(model.labels))
         + b"".join(_text(str(label)) for label in model.labels)),
        (f"a vector has bits set past dim {cfg.dim}", model.memory.rows().astype("<u8").tobytes()),
    ]
    if not v1:
        body = b"".join(field for _, field in fields)
        fields.append(("CRC-32 does not match", struct.pack("<I", zlib.crc32(body))))
    return fields


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
        self.end = len(buf)  # where the payload ends: before the CRC in v2
        self.path = path

    def take(self, count: int) -> bytes:
        if self.off + count > self.end:
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
    version = r.u32()
    if version == 2:
        if r.end < _V2_MIN_BYTES:
            raise DataError(f"model file {path} is truncated")
        r.end -= 4
        if zlib.crc32(memoryview(r.buf)[:r.end]) != struct.unpack_from("<I", r.buf, r.end)[0]:
            raise DataError(f"model file {path} is corrupt: its CRC-32 does not match")
    elif version != 1:
        raise DataError(f"{path}: unsupported model version {version}")
    dim, n = struct.unpack("<II", r.take(8))
    if version == 1:
        alphabet = r.text()
        if alphabet != DEFAULT_ALPHABET:
            raise DataError(f"{path}: alphabet {alphabet!r} is not {DEFAULT_ALPHABET!r}")
        item_seed, _, det = struct.unpack("<QQB", r.take(17))  # the tie seed is derived
        r.take(4 + len(alphabet) * n_words(dim) * 8)  # the symbol count and vectors
    else:
        item_seed, det, scheme = struct.unpack("<QBB", r.take(10))
        if scheme != TIE_SCHEME:
            raise DataError(f"{path}: the prototypes were trained under tie scheme "
                            f"{scheme}, not {TIE_SCHEME}")
    labels = [r.text() for _ in range(r.u32())]
    nw = n_words(dim)
    class_rows = np.frombuffer(r.take(len(labels) * nw * 8), dtype="<u8").reshape(len(labels), nw)
    if r.off != r.end:
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
    for message, field in _fields(model, version):
        if r.buf[off:off + len(field)] != field:
            raise DataError(f"{path}: {message}")
        off += len(field)
    return model
