"""Synthetic fallback corpus: languages faked with first-order Markov chains.

Each language gets its own random transition matrix over the 27 symbols
of ``DEFAULT_ALPHABET`` (softmax of Gaussian logits at ``TEMPERATURE``).
Good enough to exercise the whole classification pipeline when no real
multilingual corpus is on disk.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .algebra import RandomSource
from .corpus import Corpus
from .encoder import DEFAULT_ALPHABET

# Softmax temperature of the chains' logits: low enough that the chains are far apart.
TEMPERATURE = 0.7


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


def _sample_chains(langs, rngs, length: int) -> np.ndarray:
    """Independent chain runs stepped in lockstep, one row per chain.

    Chain c walks ``langs[c]`` on ``length`` uniforms drawn from ``rngs[c]``
    (the first picks the start symbol), so each row is that chain's own walk,
    whatever the other chains are.
    """
    if not langs:
        return np.empty((0, length), dtype=np.int64)
    u = np.stack([rng.generator.random(length) for rng in rngs])
    cum_start = np.stack([lang.cum_start for lang in langs])
    first = np.minimum((cum_start <= u[:, :1]).sum(axis=1), cum_start.shape[1] - 1)
    out = np.empty(u.shape, dtype=np.int64)
    out[:, 0] = first
    if length > 1:
        cum_trans = np.stack([lang.cum_trans for lang in langs])
        out[:, 1:] = kernels.markov_sample(cum_trans, first, u[:, 1:])
    return out


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
    symbols = np.array(list(DEFAULT_ALPHABET))
    root = RandomSource(seed)
    labels = [f"lang{li:02d}" for li in range(num_languages)]
    langs = [MarkovLanguage(root.child(li, 0)) for li in range(num_languages)]
    train = _sample_chains(langs, [root.child(li, 1) for li in range(num_languages)],
                          train_chars)
    pairs = [(li, si) for li in range(num_languages) for si in range(test_sentences)]
    test = _sample_chains([langs[li] for li, _ in pairs],
                         [root.child(li, 2, si) for li, si in pairs], sentence_chars)
    corpus = Corpus()
    for li, label in enumerate(labels):
        corpus.add_train(label, "".join(symbols[train[li]]))
    for (li, _), row in zip(pairs, test):
        corpus.add_test(labels[li], "".join(symbols[row]))
    return corpus
