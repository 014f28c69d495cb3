"""Corpus ingestion.

Expected directory layout:

    <root>/train/<label>/*.txt     one or more training texts per language
    <root>/test/<label>/*.txt      test files, one sentence per line

All text is read as UTF-8 (bad byte sequences become non-alphabet characters
and vanish in normalization) and normalized on ingest, so downstream code
always sees clean symbol streams.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import normalize_text
from .errors import ConfigurationError, DataError


@dataclass
class Corpus:
    """Normalized train/test samples grouped by language label."""

    train: dict = field(default_factory=dict)  # label -> list of texts
    test: dict = field(default_factory=dict)   # label -> list of sentences

    @property
    def labels(self) -> list:
        """Training labels in sorted order; this order is the model's label order."""
        return sorted(self.train)

    def train_items(self):
        """(label, text) pairs in label order."""
        for label in self.labels:
            for text in self.train[label]:
                yield label, text

    def test_items(self):
        """(label, sentence) pairs in sorted test-label order."""
        for label in sorted(self.test):
            for sentence in self.test[label]:
                yield label, sentence

    def add_train(self, label, text):
        self.train.setdefault(label, []).append(text)

    def add_test(self, label, sentence):
        self.test.setdefault(label, []).append(sentence)


def _label_dirs(role_dir: Path):
    """Sorted label directories; ConfigurationError names one whose name is not UTF-8."""
    dirs = sorted(p for p in role_dir.iterdir() if p.is_dir())
    for path in dirs:
        try:
            path.name.encode("utf-8")
        except UnicodeEncodeError:  # undecodable bytes, kept as surrogates
            raise ConfigurationError(
                f"label directory {str(path)!r} is not named in UTF-8") from None
    return dirs


def regular_file(path) -> Path:
    """``path`` as a Path; DataError names it when it is there but is not a
    regular file or a symlink to one, since opening a FIFO blocks for ever.

    Nothing is opened. A path that is not there passes, so opening it raises
    the FileNotFoundError that names it.
    """
    path = Path(path)
    if os.path.lexists(path) and not path.is_file():
        raise DataError(f"{path} is not a regular file")
    return path


def _text_files(label_dir: Path):
    """Sorted ``*.txt`` files of a label, each checked by ``regular_file``
    before anything is opened."""
    return [regular_file(path) for path in sorted(label_dir.glob("*.txt"))]


def ingest(root) -> Corpus:
    """Read the corpus layout under root into a normalized Corpus.

    Raises ConfigurationError when the layout is unusable: a root that is
    not a directory, no train data at all, a label directory whose name is
    not UTF-8, or a test label with no training label to match. A ``*.txt``
    that is not a regular file (a FIFO, a directory, a dangling symlink) is
    a DataError naming it, raised without opening it. Unreadable files
    surface as the underlying OSError (it names the path). Files that
    normalize to nothing are dropped with a warning.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigurationError(f"corpus {root} is not a directory")
    train_dir = root / "train"
    if not train_dir.is_dir():
        raise ConfigurationError(f"no train directory under {root}")
    corpus = Corpus()
    for label_dir in _label_dirs(train_dir):
        label = label_dir.name
        for path in _text_files(label_dir):
            text = normalize_text(path.read_text(encoding="utf-8", errors="replace"))
            if not text:
                warnings.warn(f"train sample {path} is empty after normalization")
                continue
            corpus.add_train(label, text)
    if not corpus.train:
        raise ConfigurationError(f"no usable training samples under {train_dir}")

    test_dir = root / "test"
    if test_dir.is_dir():
        for label_dir in _label_dirs(test_dir):
            label = label_dir.name
            if label not in corpus.train:
                raise ConfigurationError(
                    f"test label {label!r} has no training samples"
                )
            for path in _text_files(label_dir):
                kept = 0
                raw = path.read_text(encoding="utf-8", errors="replace")
                for line in raw.splitlines():
                    sentence = normalize_text(line)
                    if sentence:
                        corpus.add_test(label, sentence)
                        kept += 1
                if kept == 0:
                    warnings.warn(f"test file {path} yields no usable sentences")
    return corpus


def write_corpus(corpus: Corpus, root):
    """Materialize a Corpus back into the standard directory layout."""
    root = Path(root)
    for label in corpus.labels:
        d = root / "train" / label
        d.mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(corpus.train[label]):
            (d / f"sample{i:02d}.txt").write_text(text + "\n", encoding="utf-8")
    for label in sorted(corpus.test):
        d = root / "test" / label
        d.mkdir(parents=True, exist_ok=True)
        (d / "sentences.txt").write_text(
            "\n".join(corpus.test[label]) + "\n", encoding="utf-8"
        )
