"""Synthetic fallback corpus: languages faked with first-order Markov chains.

Each language gets its own random transition matrix over the 27 symbols
of ``DEFAULT_ALPHABET`` (softmax of Gaussian logits at ``TEMPERATURE``).
Good enough to exercise the whole classification pipeline when no real
multilingual corpus is on disk.

Every text and sentence is one chain run on uniforms drawn from its own
seed. The training texts, and then the test sentences, are walked in
lockstep by one ``kernels.markov_sample`` call that gets each language's
cumulative tables once and one table index per run, and the drawn states
are decoded to text through one byte table. That is faster than the
per-step compare walk and per-character join it replaced, at the
benchmark's size and at the paper's (CHANGES.md, "One bench").
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .algebra import RandomSource
from .corpus import Corpus
from .encoder import DEFAULT_ALPHABET

# Softmax temperature of the chains' logits: low enough that the chains are far apart.
TEMPERATURE = 0.7

# Most languages synth_corpus makes: two-digit labels keep lexical order
# equal to language order.
MAX_LANGUAGES = 100
# Most characters synth_corpus draws, over every text and sentence: room for
# the paper's 21 x 1M training chars and 21,000 test sentences of 100 chars.
# Under tracemalloc, drawing 4 x 210k chars peaked at 10.5 bytes per
# character (a float64 uniform and a uint8 state, then the text), and
# 2 x 200,000 three-char sentences at 66.5 bytes per sentence, 60.5 of them
# the str and list slot the corpus keeps. So a corpus at this bound peaks
# near 0.35 GB when its texts are long, and near 0.75 GB when it is all
# three-char sentences.
MAX_CORPUS_CHARS = 2**25

# Byte of each DEFAULT_ALPHABET index, to decode drawn states in one lookup.
_SYMBOL_BYTES = np.frombuffer(DEFAULT_ALPHABET.encode("ascii"), dtype=np.uint8)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


class MarkovLanguage:
    """One synthetic language: start distribution plus transition matrix."""

    def __init__(self, rng: RandomSource):
        gen = rng.generator
        nsym = len(DEFAULT_ALPHABET)
        self.start = _softmax_rows(gen.normal(size=nsym) / TEMPERATURE)
        trans = _softmax_rows(gen.normal(size=(nsym, nsym)) / TEMPERATURE)
        # Cumulative rows for inverse-transform sampling; force the final
        # column to 1 so float drift can never strand a uniform above it.
        self.cum_start = np.cumsum(self.start)
        self.cum_start[-1] = 1.0
        self.cum_trans = np.cumsum(trans, axis=1)
        self.cum_trans[:, -1] = 1.0


def _sample_chains(langs, table, rngs, length: int) -> np.ndarray:
    """Independent chain runs stepped in lockstep, one row per chain.

    Chain c walks ``langs[table[c]]`` on ``length`` uniforms drawn from the
    c-th source of the iterable ``rngs`` (the first picks the start symbol),
    so each row is that chain's own walk, whatever the other chains are.
    Each source is dropped as soon as its uniforms are drawn, and the
    kernel gets each language's cumulative tables once and ``table``, one
    index per chain, so beyond its uniforms and states a chain holds nothing.
    Returns the (chains, length) uint8 state array.
    """
    u = np.empty((table.shape[0], length))
    for row, rng in zip(u, rngs):
        rng.generator.random(out=row)
    return kernels.markov_sample(np.stack([lang.cum_start for lang in langs]),
                                 np.stack([lang.cum_trans for lang in langs]), table, u)


def _texts(states):
    """The text of each row of a (chains, length) state array, decoded through one byte table."""
    length = states.shape[1]
    text = _SYMBOL_BYTES[states].tobytes().decode("ascii")
    return (text[lo : lo + length] for lo in range(0, len(text), length))


def synth_corpus(num_languages: int = 21, train_chars: int = 20000,
                 test_sentences: int = 30, sentence_chars: int = 100,
                 seed: int = 0) -> Corpus:
    """Generate a labeled Corpus of num_languages synthetic languages.

    Labels are lang00, lang01, ... so lexical order is stable. Every text
    and sentence is an independent chain run; seeds split per language and
    per sample, so any subset regenerates identically.
    """
    if num_languages < 2:
        raise ValueError("need at least two languages to classify")
    if train_chars < 3 or sentence_chars < 3:
        raise ValueError("texts must be at least one trigram long")
    # Both bounds hold before anything is drawn.
    if num_languages > MAX_LANGUAGES:
        raise ValueError(f"{num_languages} languages is over {MAX_LANGUAGES}")
    chars = num_languages * (train_chars + test_sentences * sentence_chars)
    if chars > MAX_CORPUS_CHARS:
        raise ValueError(f"a corpus of {chars} characters is over {MAX_CORPUS_CHARS}")
    root = RandomSource(seed)
    labels = [f"lang{li:02d}" for li in range(num_languages)]
    langs = [MarkovLanguage(root.child(li, 0)) for li in range(num_languages)]
    every = np.arange(num_languages)
    corpus = Corpus()
    train = _sample_chains(langs, every, (root.child(li, 1) for li in every), train_chars)
    for label, text in zip(labels, _texts(train)):
        corpus.add_train(label, text)
    test = _sample_chains(langs, np.repeat(every, test_sentences),
                          (root.child(li, 2, si) for li in every for si in range(test_sentences)),
                          sentence_chars)
    sentence_labels = (label for label in labels for _ in range(test_sentences))
    for label, text in zip(sentence_labels, _texts(test)):
        corpus.add_test(label, text)
    return corpus
