import numpy as np
import pytest

from hdclab import DEFAULT_ALPHABET, Corpus, DataError, RandomSource, TextTooShortError, kernels
from hdclab.baseline import BaselineClassifier, baseline_evaluate, baseline_train
from hdclab.encoder import normalize_text, symbol_codes


def test_single_trigram_profile():
    clf = BaselineClassifier(n=3)
    clf.train("x", "aaa")
    profile = clf.profile("x")
    assert profile.dtype == np.int64
    assert profile.sum() == 1
    assert profile[0] == 1  # bucket of "aaa" is index 0


def _dict_histogram(syms, nsym, n):
    """Plain per-window count, keyed by the base-nsym code (first symbol most significant)."""
    counts = {}
    for i in range(len(syms) - n + 1):
        code = 0
        for s in syms[i : i + n]:
            code = code * nsym + int(s)
        counts[code] = counts.get(code, 0) + 1
    return counts


def _kept_text(length, gen):
    """Random text over DEFAULT_ALPHABET that normalize_text leaves unchanged."""
    chars = [DEFAULT_ALPHABET[i] for i in gen.integers(0, 27, size=length)]
    for i, ch in enumerate(chars):
        if ch == " " and (i in (0, length - 1) or chars[i - 1] == " "):
            chars[i] = "a"
    return "".join(chars)


def test_bucket_indexing():
    # windows: ab, ba, ab of a 2-symbol alphabet -> buckets (0*2+1)=1 twice, (1*2+0)=2 once
    assert kernels.ngram_histogram(np.array([0, 1, 0, 1]), 2, 2).tolist() == [0, 2, 1, 0]
    # The shared histogram kernel against a per-window dict count, up to
    # NGRAM_CHUNK + 50 windows (two blocks), for any symbol count; over the
    # full alphabet, count_vector of the text against the same kernel.
    for nsym in (2, 5, 27):
        for n in (1, 2, 3):
            clf = BaselineClassifier(n=n)
            for length in (n, 100, kernels.NGRAM_CHUNK + 50):
                gen = RandomSource(nsym).child(n, length).generator
                if nsym == 27:
                    text = _kept_text(length, gen)
                    assert normalize_text(text) == text
                    syms = symbol_codes(text)
                else:
                    syms = gen.integers(0, nsym, size=length)
                want = _dict_histogram(syms, nsym, n)
                hist = kernels.ngram_histogram(syms, nsym, n)
                assert hist.dtype == np.int64 and hist.shape == (nsym**n,)
                assert {int(c): int(hist[c]) for c in np.flatnonzero(hist)} == want
                if nsym == 27:
                    assert np.array_equal(clf.count_vector(text), hist)


def test_count_vector_window_count():
    clf = BaselineClassifier(n=3)
    assert clf.count_vector("abcdef").sum() == 4


def test_too_short_rejected():
    clf = BaselineClassifier(n=3)
    with pytest.raises(TextTooShortError):
        clf.count_vector("ab")


def test_classify_recovers_training_language():
    corpus = Corpus()
    corpus.add_train("aa", "abcabcabcabc abc abcabc")
    corpus.add_train("bb", "xyzxyzxyz xyz zyxzyx")
    clf = baseline_train(corpus)
    assert clf.classify("abc abcabc")[0] == "aa"
    assert clf.classify("xyz xyzxyz")[0] == "bb"


def test_profile_accumulates_across_files():
    corpus = Corpus()
    corpus.add_train("aa", "abcabc")
    corpus.add_train("aa", "abcabc")
    clf = baseline_train(corpus)
    assert clf.profile("aa").sum() == 8  # two files of 4 windows each


def test_tie_goes_to_first_label():
    clf = BaselineClassifier(n=3)
    clf.train("first", "aaaa")
    clf.train("second", "aaaa")
    assert clf.classify("aaa")[0] == "first"


def test_unknown_label():
    clf = BaselineClassifier()
    clf.train("x", "abc")
    with pytest.raises(KeyError):
        clf.profile("y")


def test_memory_footprint_grows_with_n():
    sizes = {}
    for n in (3, 4, 5):
        clf = BaselineClassifier(n=n)
        clf.train("x", "abcdefgh")
        sizes[n] = clf.profile("x").nbytes
    assert sizes[4] == sizes[3] * 27
    assert sizes[5] == sizes[4] * 27
    # packed hypervectors stay fixed-size across n
    from hdclab import EncoderConfig, TextEncoder

    hv_bytes = {
        n: TextEncoder(EncoderConfig(dim=10000, n=n)).encode("abcdefgh").words.nbytes
        for n in (3, 4, 5)
    }
    assert hv_bytes[3] == hv_bytes[4] == hv_bytes[5]


def test_dense_histogram_size_is_bounded():
    assert BaselineClassifier(n=5).num_buckets == 27**5
    with pytest.raises(ValueError, match="387420489 buckets"):
        BaselineClassifier(n=6)


def test_evaluate_report(synth):
    clf = baseline_train(synth)
    report = baseline_evaluate(clf, synth)
    assert report["classifier"] == "baseline"
    assert report["total"] == 630
    assert report["accuracy"] >= 0.95
    assert set(report["per_language"]) == set(synth.labels)
    row_sum = sum(sum(r.values()) for r in report["confusion"].values())
    assert row_sum == report["total"]


def test_evaluate_no_usable_sentences_is_data_error():
    corpus = Corpus()
    corpus.add_train("aa", "abc abc abcabc")
    corpus.add_test("aa", "ab")
    with pytest.raises(DataError, match="no usable test sentences"):
        baseline_evaluate(baseline_train(corpus), corpus)


def test_evaluate_tie_goes_to_first_label():
    corpus = Corpus()
    corpus.add_train("first", "aaaa")
    corpus.add_train("second", "aaaa")
    corpus.add_test("second", "aaa")
    report = baseline_evaluate(baseline_train(corpus), corpus)
    assert report["confusion"] == {"second": {"first": 1}}
