import re
from pathlib import Path

import pytest

from hdclab import ConfigurationError, Corpus, DataError, ingest, write_corpus
from hdclab import corpus as corpus_module


def _make_layout(root, train=None, test=None):
    for label, texts in (train or {}).items():
        d = root / "train" / label
        d.mkdir(parents=True)
        for i, t in enumerate(texts):
            (d / f"f{i}.txt").write_text(t, encoding="utf-8")
    for label, lines in (test or {}).items():
        d = root / "test" / label
        d.mkdir(parents=True)
        (d / "s.txt").write_text("\n".join(lines), encoding="utf-8")


def test_basic_ingest(tmp_path):
    _make_layout(
        tmp_path,
        train={"en": ["The quick brown fox."], "fr": ["Le renard brun!"]},
        test={"en": ["Hello there.", "Another line."], "fr": ["Bonjour."]},
    )
    corpus = ingest(tmp_path)
    assert corpus.labels == ["en", "fr"]
    assert corpus.train["en"] == ["the quick brown fox"]
    assert corpus.test["en"] == ["hello there", "another line"]
    assert len(list(corpus.test_items())) == 3


def test_missing_train_dir(tmp_path):
    with pytest.raises(ConfigurationError):
        ingest(tmp_path)


def test_empty_train_dir(tmp_path):
    (tmp_path / "train").mkdir()
    with pytest.raises(ConfigurationError):
        ingest(tmp_path)


def test_test_label_without_training(tmp_path):
    _make_layout(tmp_path, train={"en": ["some text"]}, test={"de": ["zeile eins"]})
    with pytest.raises(ConfigurationError, match="de"):
        ingest(tmp_path)


def test_punctuation_only_file_warns(tmp_path):
    _make_layout(tmp_path, train={"en": ["real text here", "!!! ... ???"]})
    with pytest.warns(UserWarning, match="empty after normalization"):
        corpus = ingest(tmp_path)
    assert len(corpus.train["en"]) == 1


def test_punctuation_only_test_file_warns(tmp_path):
    _make_layout(tmp_path, train={"en": ["real text"]}, test={"en": ["...", "!!!"]})
    with pytest.warns(UserWarning, match="no usable sentences"):
        corpus = ingest(tmp_path)
    assert list(corpus.test_items()) == []


def test_blank_lines_skipped_silently(tmp_path):
    _make_layout(tmp_path, train={"en": ["text body"]}, test={"en": ["one", "", "two"]})
    corpus = ingest(tmp_path)
    assert corpus.test["en"] == ["one", "two"]


def test_invalid_utf8_degrades_to_spaces(tmp_path):
    d = tmp_path / "train" / "xx"
    d.mkdir(parents=True)
    (d / "f.txt").write_bytes(b"abc\xff\xfedef")
    corpus = ingest(tmp_path)
    assert corpus.train["xx"] == ["abc def"]


def test_write_then_ingest_round_trip(tmp_path):
    corpus = Corpus()
    corpus.add_train("aa", "abc abc abc")
    corpus.add_train("bb", "xyz xyz")
    corpus.add_test("aa", "abc is back")
    write_corpus(corpus, tmp_path)
    again = ingest(tmp_path)
    assert again.train == corpus.train
    assert again.test == corpus.test


def test_train_items_label_order(tmp_path):
    _make_layout(tmp_path, train={"zz": ["last text"], "aa": ["first text"]})
    corpus = ingest(tmp_path)
    assert [lb for lb, _ in corpus.train_items()] == ["aa", "zz"]


def test_corpus_over_the_byte_bound_is_refused_unread(tmp_path, monkeypatch):
    _make_layout(tmp_path, train={"en": ["abcd", "efg"]}, test={"en": ["hij"]})  # 10 bytes
    monkeypatch.setattr(corpus_module, "MAX_CORPUS_BYTES", 10)
    assert ingest(tmp_path).train["en"] == ["abcd", "efg"]

    monkeypatch.setattr(corpus_module, "MAX_CORPUS_BYTES", 9)

    def refuse(*args, **kwargs):
        raise AssertionError("a file was opened before the size check")

    monkeypatch.setattr("builtins.open", refuse)
    for name in ("open", "read_text", "read_bytes"):
        monkeypatch.setattr(Path, name, refuse)
    message = f"corpus {tmp_path} holds 10 bytes of text, over 9"
    with pytest.raises(DataError, match=re.escape(message)):
        ingest(tmp_path)
