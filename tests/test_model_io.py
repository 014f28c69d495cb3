import json
import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from hdclab import (
    DEFAULT_ALPHABET,
    Corpus,
    DataError,
    EncoderConfig,
    evaluate,
    load_model,
    save_model,
    train_pipeline,
)
from hdclab.assocmem import AssociativeMemory
from hdclab.encoder import TIE_SCHEME, TextEncoder

from _oracles import ref_model_v1_of


@pytest.fixture()
def model():
    corpus = Corpus()
    corpus.add_train("de", "der die das und der die das immer wieder")
    corpus.add_train("en", "the and the of the to the in a for the")
    return train_pipeline(corpus, EncoderConfig(dim=1500, item_seed=7))


def test_round_trip_preserves_everything(model, tmp_path):
    p = tmp_path / "m.hdc"
    save_model(model, p)
    loaded = load_model(p)
    assert loaded.labels == model.labels
    assert loaded.config == model.config
    assert np.array_equal(loaded.memory.rows(), model.memory.rows())
    for ch in DEFAULT_ALPHABET:
        assert loaded.encoder.item_memory.lookup(ch) == model.encoder.item_memory.lookup(ch)


def test_save_load_save_is_byte_identical(model, tmp_path):
    p1, p2 = tmp_path / "a.hdc", tmp_path / "b.hdc"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sidecar_json(model, tmp_path):
    p = tmp_path / "m.hdc"
    save_model(model, p)
    doc = json.loads((tmp_path / "m.hdc.json").read_text())
    assert doc["format"] == "HDCM"
    assert doc["dim"] == 1500
    assert doc["labels"] == ["de", "en"]
    assert doc["alphabet"] == DEFAULT_ALPHABET
    assert (doc["item_seed"], doc["tie_seed"]) == (7, 8)
    assert doc["tie_scheme"] == TIE_SCHEME == 2
    assert doc["version"] == 2


def test_round_trip_where_the_tie_seed_wraps(tmp_path):
    corpus = Corpus()
    corpus.add_train("en", "the and the of the to the in a for the")
    model = train_pipeline(corpus, EncoderConfig(dim=256, item_seed=2**64 - 1))
    p1, p2 = tmp_path / "a.hdc", tmp_path / "b.hdc"
    save_model(model, p1)
    loaded = load_model(p1)
    assert loaded.config == model.config and loaded.config.tie_seed == 0
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[16:24] == struct.pack("<Q", 2**64 - 1)
    v1 = ref_model_v1_of(model)
    assert v1[47:63] == struct.pack("<QQ", 2**64 - 1, 0)
    p1.write_bytes(v1)
    assert load_model(p1).config == model.config


def test_classification_identical_after_reload(model, tmp_path):
    p = tmp_path / "m.hdc"
    save_model(model, p)
    loaded = load_model(p)
    for text in ("der und die das", "the of the and"):
        a = model.classify_text(text)
        b = loaded.classify_text(text)
        assert (a.label, a.distance, a.all_distances) == (b.label, b.distance, b.all_distances)


def test_eval_report_identical_after_reload(model, tmp_path):
    corpus = Corpus(train={}, test={"de": ["der die und das der"],
                                    "en": ["the of to in the"]})
    p = tmp_path / "m.hdc"
    save_model(model, p)
    r1 = evaluate(model, corpus)
    r2 = evaluate(load_model(p), corpus)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_bad_magic(tmp_path):
    p = tmp_path / "junk.hdc"
    p.write_bytes(b"NOPE" + b"\x00" * 50)
    says = f"^{re.escape(str(p))} is not a model file \\(bad magic\\)$"
    with pytest.raises(DataError, match=says):
        load_model(p)


def test_truncated_file(model, tmp_path):
    p = tmp_path / "m.hdc"
    p.write_bytes(ref_model_v1_of(model)[:40])
    with pytest.raises(DataError, match=f"^model file {re.escape(str(p))} is truncated$"):
        load_model(p)


def test_trailing_garbage(model, tmp_path):
    p = tmp_path / "m.hdc"
    p.write_bytes(ref_model_v1_of(model) + b"\x00")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}: trailing bytes"):
        load_model(p)


def test_unsupported_version(model, tmp_path):
    p = tmp_path / "m.hdc"
    save_model(model, p)
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}: unsupported model version 99$"):
        load_model(p)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "absent.hdc")


@pytest.mark.parametrize("make", [os.mkfifo, Path.mkdir], ids=["fifo", "directory"])
def test_path_that_is_not_a_regular_file_is_refused_unopened(tmp_path, monkeypatch, make):
    path = tmp_path / "m.hdc"
    make(path)
    monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(f"{self} was opened"))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} is not a regular file$"):
        load_model(path)


@pytest.fixture()
def small_model():
    """A 2-label model at D = 256 (4 words a vector)."""
    corpus = Corpus()
    corpus.add_train("de", "der die das und der die das immer wieder")
    corpus.add_train("en", "the and the of the to the in a for the")
    return train_pipeline(corpus, EncoderConfig(dim=256, item_seed=7))


@pytest.fixture()
def small_model_bytes(small_model):
    """The small model in format v1, about 1 kB."""
    return ref_model_v1_of(small_model)


def _saved(model, tmp_path) -> bytes:
    p = tmp_path / "saved.hdc"
    save_model(model, p)
    return p.read_bytes()


def _edit(raw, offset, new):
    offset %= len(raw)
    return raw[:offset] + new + raw[offset + len(new):]


def _seal(body) -> bytes:
    """A v2 file of ``body`` (every byte before the CRC) with a fresh CRC."""
    return body + struct.pack("<I", zlib.crc32(body))


# HDCM byte offsets: n at 12, the alphabet at 20, the tie seed at 55, the
# deterministic-ties flag at 63. The labels "de" and "en", each after a u32
# length, end just before the two 32-byte class rows.
@pytest.mark.parametrize("offset, new", [
    (12, struct.pack("<I", 0)),
    (12, struct.pack("<I", 257)),
    (21, b"a"),
    (20, b"\xff"),
    (20, b"ba"),
    (55, b"\x09"),
    (-66, b"de"),
    (-72, b"\xc3("),
    (63, b"\x02"),
], ids=["n-0", "n-over-dim", "duplicate-symbol", "alphabet-utf8", "other-alphabet",
        "tie-seed", "duplicate-label", "label-utf8", "ties-flag"])
def test_invalid_header_values_are_data_errors(small_model_bytes, tmp_path, offset, new):
    assert small_model_bytes[-72:-70] == b"de" and small_model_bytes[-66:-64] == b"en"
    p = tmp_path / "bad.hdc"
    p.write_bytes(_edit(small_model_bytes, offset, new))
    with pytest.raises(DataError, match="bad.hdc"):
        load_model(p)


# At D = 1500 a row is 24 words, and bits 1500-1535 of the last word are
# padding, the row's last byte among them. In format v1, byte 259 ends the
# first symbol row (rows start at 68); the file's last byte ends the last
# class row.
@pytest.mark.parametrize("offset", [259, -1], ids=["symbol-row", "class-row"])
def test_bits_past_dim_are_data_errors(model, tmp_path, offset):
    p = tmp_path / "pad.hdc"
    raw = ref_model_v1_of(model)
    p.write_bytes(_edit(raw, offset, bytes([raw[offset] | 0x80])))
    with pytest.raises(DataError, match="pad.hdc"):
        load_model(p)


def test_symbol_vectors_other_than_the_seeds_are_data_errors(model, tmp_path):
    # Byte 68 starts the first symbol row; its bit 0 is component 0 of 'a'.
    p = tmp_path / "sym.hdc"
    raw = ref_model_v1_of(model)
    p.write_bytes(_edit(raw, 68, bytes([raw[68] ^ 0x01])))
    with pytest.raises(DataError, match="sym.hdc: symbol vectors are not those of item seed 7"):
        load_model(p)


def test_loaded_model_shares_seed_tables_with_the_live_one(model, tmp_path):
    p = tmp_path / "m.hdc"
    save_model(model, p)
    loaded = load_model(p)
    assert loaded.encoder._table is model.encoder._table
    assert loaded.encoder.item_memory is model.encoder.item_memory


def test_oversized_encoder_table_is_data_error(tmp_path):
    # n = 9987 passes n <= dim at D = 10000, but its rotated table would be
    # about 323 MiB; the bound rejects it before the table is built. n is at
    # byte 12 in both formats; the v2 file is re-sealed.
    corpus = Corpus()
    corpus.add_train("en", "the and the of the to the in a for the")
    model = train_pipeline(corpus, EncoderConfig(dim=10000))
    p = tmp_path / "big-n.hdc"
    big_n = struct.pack("<I", 9987)
    for raw in (ref_model_v1_of(model), _seal(_edit(_saved(model, tmp_path)[:-4], 12, big_n))):
        p.write_bytes(_edit(raw, 12, big_n))
        with pytest.raises(DataError, match="big-n.hdc: invalid model: an encoder table"):
            load_model(p)


def test_corrupt_files_load_or_raise_data_error(small_model, tmp_path):
    """Truncations and one-byte changes of the small model in both formats
    raise DataError naming the path, or load a model that re-saves to the
    same bytes in the file's format (v1 through the oracle writer)."""
    p = tmp_path / "fuzz.hdc"
    for raw, as_file in ((ref_model_v1_of(small_model), ref_model_v1_of),
                         (_saved(small_model, tmp_path), lambda m: _saved(m, tmp_path))):
        cases = [raw[:cut] for cut in range(len(raw))]
        gen = np.random.default_rng(2018)
        for pos, delta in zip(gen.integers(0, len(raw), 400), gen.integers(1, 256, 400)):
            cases.append(_edit(raw, pos, bytes([(raw[pos] + delta) % 256])))
        for case in cases:
            p.write_bytes(case)
            try:
                loaded = load_model(p)
            except DataError as exc:
                assert str(p) in str(exc)
            else:
                assert as_file(loaded) == case


@pytest.fixture()
def tiny_model():
    """A 2-label model at D = 100, where a row is 2 words and bits 100-127 of
    the second (from byte 12 bit 4 of the row on) are padding."""
    corpus = Corpus()
    corpus.add_train("de", "der die das und der die das immer wieder")
    corpus.add_train("en", "the and the of the to the in a for the")
    return train_pipeline(corpus, EncoderConfig(dim=100, item_seed=7))


def test_every_flipped_byte_is_refused_or_re_saves_as_itself(tiny_model, tmp_path):
    """Each byte XOR 0x01, 0x80 and 0xFF of the D = 100 model in format v1. A
    case raises DataError naming the path or loads a model whose re-saved v2
    file loads back to the case's v1 bytes. Inside the class rows it loads
    exactly when no padding bit is flipped; outside them only values the file
    describes can change: n 3 -> 2, the ties flag 0 -> 1, and a label byte
    by 0x01."""
    p, resaved = tmp_path / "flip.hdc", tmp_path / "resaved.hdc"
    raw = ref_model_v1_of(tiny_model)
    rows_start = len(raw) - 2 * 16
    assert raw[rows_start - 8:rows_start] == b"de" + struct.pack("<I", 2) + b"en"
    masks = (0x01, 0x80, 0xFF)
    loaded = set()
    for offset in range(len(raw)):
        for mask in masks:
            case = _edit(raw, offset, bytes([raw[offset] ^ mask]))
            p.write_bytes(case)
            try:
                model = load_model(p)
            except DataError as exc:
                assert str(p) in str(exc)
                continue
            save_model(model, resaved)
            assert ref_model_v1_of(load_model(resaved)) == case
            loaded.add((offset, mask))
    rows = {(offset, mask) for offset in range(rows_start, len(raw)) for mask in masks
            if (offset - rows_start) % 16 < 12 or (offset - rows_start) % 16 == 12 and mask == 1}
    outside = {(12, 0x01), (63, 0x01)} | {(rows_start - k, 0x01) for k in (8, 7, 2, 1)}
    assert loaded == rows | outside


def test_v2_layout_is_the_header_labels_rows_and_crc(small_model, tmp_path):
    raw = _saved(small_model, tmp_path)
    assert raw[:4] == b"HDCM"
    assert struct.unpack_from("<IIIQBBI", raw, 4) == (2, 256, 3, 7, 0, TIE_SCHEME, 2)
    assert raw[30:42] == struct.pack("<I", 2) + b"de" + struct.pack("<I", 2) + b"en"
    rows = np.frombuffer(raw[42:-4], dtype="<u8").reshape(2, 4)
    assert np.array_equal(rows, small_model.memory.rows())
    assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4])


def test_every_v2_truncation_flip_and_extension_is_refused(tiny_model, tmp_path):
    """No truncation, single-byte XOR with 0x01, 0x80 or 0xFF, or extra byte
    of the D = 100 v2 file loads: each raises DataError naming the path, and
    past the magic and version each is caught by the length or the CRC."""
    p = tmp_path / "flip.hdc"
    raw = _saved(tiny_model, tmp_path)
    assert len(raw) == 78
    cases = [(raw[:cut], None) for cut in range(len(raw))]
    cases += [(_edit(raw, offset, bytes([raw[offset] ^ mask])), offset)
              for offset in range(len(raw)) for mask in (0x01, 0x80, 0xFF)]
    cases += [(raw + b"\x00", None), (raw + raw[-4:], None)]
    name = re.escape(str(p))
    for case, offset in cases:
        p.write_bytes(case)
        with pytest.raises(DataError) as info:
            load_model(p)
        message = str(info.value)
        if offset is not None and offset < 4 or len(case) < 4:
            assert re.fullmatch(f"({name} is not a model file.*|model file {name} is truncated)",
                                message)
        elif offset is not None and offset < 8:
            assert re.fullmatch(f"{name}: unsupported model version \\d+", message)
        elif len(case) < 34:
            assert message == f"model file {p} is truncated"
        else:
            assert message == f"model file {p} is corrupt: its CRC-32 does not match"


# v2 offsets of the D = 100 model: dim at 8, n at 12, the ties flag at 24, the
# tie scheme at 25, the label count at 26, "de" at 34 and "en" at 40 (each
# after a u32 length), the class rows from 42 to 74, then the CRC.
@pytest.mark.parametrize("change, says", [
    (lambda b: _edit(b, 8, struct.pack("<I", 0))[:42], "invalid model: dim must be in"),
    (lambda b: _edit(b, 12, struct.pack("<I", 0)), "invalid model: n must be >= 1"),
    (lambda b: _edit(b, 12, struct.pack("<I", 101)), "invalid model: n must not exceed dim"),
    (lambda b: _edit(b, 40, b"de"), "invalid model: duplicate label"),
    (lambda b: b[:26] + struct.pack("<I", 0), "invalid model: associative memory holds no"),
    (lambda b: _edit(b, 34, b"\xc3("), "text field ending at byte 36 is not valid UTF-8"),
    (lambda b: _edit(b, 24, b"\x02"), "deterministic-ties flag is not 0 or 1"),
    (lambda b: _edit(b, 73, b"\x80"), "a vector has bits set past dim 100"),
    (lambda b: _edit(b, 25, b"\x01"), "the prototypes were trained under tie scheme 1, not 2"),
    (lambda b: b + b"\x00", "trailing bytes after model payload"),
    (lambda b: b[:-1], "is truncated"),
], ids=["dim-0", "n-0", "n-over-dim", "duplicate-label", "no-labels", "label-utf8",
        "ties-flag", "bits-past-dim", "tie-scheme", "trailing", "truncated"])
def test_checks_behind_the_crc_are_reached(tiny_model, tmp_path, change, says):
    p = tmp_path / "sealed.hdc"
    p.write_bytes(_seal(change(_saved(tiny_model, tmp_path)[:-4])))
    with pytest.raises(DataError, match=f"sealed.hdc.*{re.escape(says)}"):
        load_model(p)


@pytest.mark.parametrize("change", [
    lambda b: _edit(b, 12, struct.pack("<I", 9987)),
    lambda b: _edit(b, 12, struct.pack("<I", 0)),
    lambda b: _edit(b, -1, bytes([b[-1] ^ 0xFF])),
    lambda b: _edit(b, 25, b"\x01"),
], ids=["n-raised", "n-0", "crc", "tie-scheme"])
def test_nothing_is_built_from_a_corrupt_v2_file(model, tmp_path, monkeypatch, change):
    p = tmp_path / "bad-crc.hdc"
    p.write_bytes(change(_saved(model, tmp_path)))

    def refuse(*args, **kwargs):
        pytest.fail("a model object was built from a file with a bad CRC")

    monkeypatch.setattr(TextEncoder, "__init__", refuse)
    monkeypatch.setattr(AssociativeMemory, "from_rows", refuse)
    with pytest.raises(DataError, match=f"^model file {re.escape(str(p))} is corrupt: its CRC-32"):
        load_model(p)
