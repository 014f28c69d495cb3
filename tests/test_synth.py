import gc
import tracemalloc

import numpy as np
import pytest

from hdclab import DEFAULT_ALPHABET, MarkovLanguage, RandomSource, synth_corpus
from _oracles import ref_markov_walk


def test_shape_and_labels():
    corpus = synth_corpus(num_languages=4, train_chars=500, test_sentences=3,
                          sentence_chars=50, seed=1)
    assert corpus.labels == ["lang00", "lang01", "lang02", "lang03"]
    assert all(len(corpus.train[lb]) == 1 for lb in corpus.labels)
    assert all(len(corpus.test[lb]) == 3 for lb in corpus.labels)
    assert len(corpus.train["lang00"][0]) == 500


def test_alphabet_respected():
    corpus = synth_corpus(num_languages=2, train_chars=300, test_sentences=2,
                          sentence_chars=40, seed=2)
    allowed = set(DEFAULT_ALPHABET)
    for _, text in corpus.train_items():
        assert set(text) <= allowed


def test_deterministic():
    a = synth_corpus(num_languages=3, train_chars=400, test_sentences=2, seed=3)
    b = synth_corpus(num_languages=3, train_chars=400, test_sentences=2, seed=3)
    assert a.train == b.train and a.test == b.test


def test_seeds_separate_languages():
    corpus = synth_corpus(num_languages=2, train_chars=1000, test_sentences=1, seed=4)
    assert corpus.train["lang00"][0] != corpus.train["lang01"][0]


def test_markov_language_rows_are_cumulative_over_the_alphabet():
    lang = MarkovLanguage(RandomSource(5))
    assert lang.cum_start.shape == (27,) and lang.cum_trans.shape == (27, 27)
    for rows in (lang.cum_start[None], lang.cum_trans):
        assert (np.diff(rows, axis=1) >= 0).all() and (rows[:, -1] == 1.0).all()


def test_lockstep_texts_equal_per_chain_walks():
    corpus = synth_corpus(num_languages=3, train_chars=300, test_sentences=4,
                          sentence_chars=40, seed=12)
    root = RandomSource(12)
    for li, label in enumerate(corpus.labels):
        lang = MarkovLanguage(root.child(li, 0))

        def walk(length, *key):
            u = root.child(li, *key).generator.random(length)
            syms = ref_markov_walk(lang.cum_start, lang.cum_trans, u)
            return "".join(DEFAULT_ALPHABET[s] for s in syms)

        assert corpus.train[label] == [walk(300, 1)]
        assert corpus.test[label] == [walk(40, 2, si) for si in range(4)]


def test_no_test_sentences():
    corpus = synth_corpus(num_languages=2, train_chars=50, test_sentences=0, seed=13)
    assert corpus.test == {} and len(corpus.train["lang01"][0]) == 50


def test_bad_args():
    with pytest.raises(ValueError):
        synth_corpus(num_languages=1)
    with pytest.raises(ValueError):
        synth_corpus(num_languages=2, train_chars=2)
    with pytest.raises(ValueError):
        synth_corpus(num_languages=2, sentence_chars=2)
    with pytest.raises(ValueError, match="101 languages is over 100"):
        synth_corpus(num_languages=101, train_chars=3, test_sentences=0)
    with pytest.raises(ValueError, match="characters is over"):
        synth_corpus(num_languages=2, train_chars=2**24, test_sentences=1, sentence_chars=3)


def test_sentence_heavy_draw_is_bounded_per_sentence():
    # 4,000 three-char sentences: the corpus keeps about 60 B of each (its
    # str and list slot), and drawing them peaked at about 205 B each. A
    # cumulative table copied per chain (5.8 KB) or a random source kept
    # alive per chain until all are drawn would exceed the allowance.
    synth_corpus(num_languages=2, train_chars=3, test_sentences=10, sentence_chars=3, seed=14)
    gc.collect()
    tracemalloc.start()
    try:
        corpus = synth_corpus(num_languages=2, train_chars=3, test_sentences=2000,
                              sentence_chars=3, seed=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(v) for v in corpus.test.values()) == 4000
    assert peak <= 4000 * 512
