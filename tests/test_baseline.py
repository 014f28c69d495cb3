import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hdclab import (
    DEFAULT_ALPHABET, ConfigurationError, Corpus, DataError, RandomSource, TextTooShortError,
    kernels, synth_corpus,
)
from hdclab.baseline import BaselineClassifier, baseline_evaluate, baseline_train
from hdclab.encoder import DEFAULT_ALPHABET, normalize_text


def _clf(n):
    """A one-label classifier, for calling count_vector at window length n <= 3."""
    return BaselineClassifier({"x": ["abc"]}, n=n)


def test_single_trigram_profile():
    clf = BaselineClassifier({"x": ["aaa"]}, n=3)
    assert clf.labels == ["x"]
    assert clf.vocabulary.tolist() == [0]  # code of "aaa" is 0
    assert clf.units.dtype == np.float64
    assert clf.units.tolist() == [[1.0]]


def _codes(text):
    """int64 DEFAULT_ALPHABET position of each character of a normalized text."""
    return np.array([DEFAULT_ALPHABET.index(ch) for ch in text], dtype=np.int64)


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
    # windows: ab, ba, ab of a 2-symbol alphabet -> codes (0*2+1)=1 twice, (1*2+0)=2 once
    assert kernels.ngram_codes(np.array([0, 1, 0, 1]), 2, 2).tolist() == [1, 2, 1]
    assert kernels.ngram_histogram(np.array([0, 1, 0, 1]), 2, 2).tolist() == [0, 2, 1, 0]
    # The code and histogram kernels against a per-window dict count, up to
    # NGRAM_CHUNK + 50 windows (two histogram blocks), for any symbol count;
    # over the full alphabet, count_vector of the text against the same count.
    for nsym in (2, 5, 27):
        for n in (1, 2, 3):
            clf = _clf(n)
            for length in (n, 100, kernels.NGRAM_CHUNK + 50):
                gen = RandomSource(nsym).child(n, length).generator
                if nsym == 27:
                    text = _kept_text(length, gen)
                    assert normalize_text(text) == text
                    syms = _codes(text)
                else:
                    syms = gen.integers(0, nsym, size=length)
                want = _dict_histogram(syms, nsym, n)
                codes = kernels.ngram_codes(syms, nsym, n)
                assert codes.dtype == np.int64 and codes.shape == (length - n + 1,)
                assert Counter(codes.tolist()) == want
                hist = kernels.ngram_histogram(syms, nsym, n)
                assert hist.dtype == np.int64 and hist.shape == (nsym**n,)
                assert {int(c): int(hist[c]) for c in np.flatnonzero(hist)} == want
                if nsym == 27:
                    codes, counts = clf.count_vector(text)
                    assert np.all(np.diff(codes) > 0)
                    assert dict(zip(codes.tolist(), counts.tolist())) == want


def test_count_vector_window_count():
    codes, counts = _clf(3).count_vector("abcdef")
    assert counts.dtype == np.int64 and counts.sum() == 4


def test_count_vector_counts_each_text_on_its_own():
    codes, counts = _clf(3).count_vector("abcabc", "abcabc")
    assert counts.sum() == 8  # 4 windows each; "abcabcabcabc" would have 10
    once = _dict_histogram(_codes("abcabc"), 27, 3)  # abc 2, bca 1, cab 1
    assert dict(zip(codes.tolist(), counts.tolist())) == {c: 2 * k for c, k in once.items()}


def test_too_short_rejected():
    with pytest.raises(TextTooShortError):
        _clf(3).count_vector("ab")
    with pytest.raises(TextTooShortError):
        _clf(3).count_vector("abc", "ab")
    with pytest.raises(TextTooShortError, match="training sample for 'x'"):
        BaselineClassifier({"x": ["abc abc", "ab"]})


def test_label_without_training_text_is_named():
    with pytest.raises(ConfigurationError, match="label 'x' has no training text"):
        baseline_train(Corpus(train={"x": [], "y": ["abc abd"]}))
    with pytest.raises(ConfigurationError, match="no profiles"):
        baseline_train(Corpus())


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
    corpus.add_train("bb", "xyz")
    clf = baseline_train(corpus)
    assert clf.labels == ["aa", "bb"]
    # two files of 4 windows each: abc 4, bca 2, cab 2, and no window across them
    once = _dict_histogram(_codes("abcabc"), 27, 3)
    xyz = _dict_histogram(_codes("xyz"), 27, 3)
    assert clf.vocabulary.tolist() == sorted([*once, *xyz])
    profile = np.array([2 * once.get(c, 0) for c in clf.vocabulary.tolist()], dtype=np.float64)
    np.testing.assert_allclose(clf.units[0], profile / np.linalg.norm(profile), rtol=0, atol=1e-15)


def _dense_cosines(texts_by_label, query, n):
    """Cosine of query to each label's profile as dense 27**n vectors, from _dict_histogram."""
    def unit(texts):
        vec = np.zeros(27**n)
        for text in texts:
            for code, count in _dict_histogram(_codes(normalize_text(text)), 27, n).items():
                vec[code] += count
        return vec / np.linalg.norm(vec)

    return np.array([unit(texts) @ unit([query]) for texts in texts_by_label.values()])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_similarities_match_dense_cosine(n):
    train = {"aa": ["abc abc abd", "abcab"], "bb": ["xyz xyzzy"], "cc": ["hello world"]}
    clf = BaselineClassifier(train, n=n)
    # all seen, some unseen ("bc x", "lo a", ...), and mostly unseen n-grams
    for query in ("abc abd", "abc xyz", "hello abc zz", "world qqq"):
        np.testing.assert_allclose(clf.similarities(query), _dense_cosines(train, query, n),
                                   rtol=0, atol=1e-12)
    # only unseen n-grams: every score is 0 and the first label wins
    for query in ("qqqq", "jkjkq"):
        assert clf.similarities(query).tolist() == [0.0, 0.0, 0.0]
        assert clf.classify(query) == ("aa", 0.0)


def test_tie_goes_to_first_label():
    clf = BaselineClassifier({"first": ["aaaa"], "second": ["aaaa"]}, n=3)
    assert clf.classify("aaa")[0] == "first"


def test_unknown_label():
    corpus = Corpus()
    corpus.add_train("x", "abc")
    corpus.add_test("y", "abc")
    with pytest.raises(ConfigurationError, match="test label 'y' not in the model"):
        baseline_evaluate(baseline_train(corpus), corpus)


def test_memory_footprint_is_set_by_the_text():
    # One column per distinct training n-gram, not one per each of the 27**n
    # possible ones: "abcdefgh" has 9 - n distinct windows.
    for n in (3, 4, 5):
        clf = BaselineClassifier({"x": ["abcdefgh"]}, n=n)
        assert clf.units.shape == (1, 9 - n)
    # packed hypervectors stay fixed-size across n
    from hdclab import EncoderConfig, TextEncoder

    hv_bytes = {
        n: TextEncoder(EncoderConfig(dim=10000, n=n)).encode("abcdefgh").words.nbytes
        for n in (3, 4, 5)
    }
    assert hv_bytes[3] == hv_bytes[4] == hv_bytes[5]


def test_n5_train_and_evaluate_stay_small():
    corpus = synth_corpus(num_languages=4, train_chars=3000, test_sentences=10,
                          sentence_chars=100, seed=0)
    tracemalloc.start()
    try:
        report = baseline_evaluate(baseline_train(corpus, n=5), corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["total"] == 40
    # Measured at 1.8 MB; one dense 27**5 float64 vector alone is 115 MB.
    assert peak < 8 * 2**20


def test_ngram_space_is_capped():
    assert BaselineClassifier({"x": ["abcde"]}, n=5).n == 5
    # The cap is checked before any text is counted: "ab" is too short for n = 6.
    with pytest.raises(ValueError, match="387420489 n-grams"):
        BaselineClassifier({"x": ["ab"]}, n=6)
    with pytest.raises(ValueError, match="n must be >= 1"):
        BaselineClassifier({"x": ["ab"]}, n=0)


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
