"""Microbenchmarks: the word-wise Hamming kernel against the per-bit
reference loop, one 100-char text encode with its counting and its share of
a chunk's majority threshold, training-sized encodes (21 texts of 20k chars
in one ``encode_each`` call against one ``encode`` call per text, one such
text alone, and 21 labels of 200 sentences of 100 chars in one
``encode_each`` call), and a test-set encode (630 sentences of 100 chars
coded once and encoded by one ``encode_symbols`` call, as ``evaluate``
encodes its test set, against one ``encode`` call per sentence), and
``synth_corpus`` at the benchmark's size and at the paper's.

Run with:  python3 -m hdclab.bench
"""

from __future__ import annotations

import time

import numpy as np

from . import kernels
from .algebra import RandomSource, majority_words, n_words, random_hv
from .corpus import Corpus
from .encoder import DEFAULT_ALPHABET, ENCODE_GROUPS, EncoderConfig, TextEncoder
from .pipeline import encode_test_sentences
from .synth import synth_corpus

# synth_corpus shapes: the perfbench corpus, and the paper's 21 texts of
# about 100,000 chars with 1,000 test sentences per language.
SYNTH_SHAPES = {"benchmark": (20000, 30), "paper": (100000, 1000)}


def per_call_ns(fn, min_time_s: float = 0.05, samples: int = 3) -> float:
    """Best-of-samples mean nanoseconds per call, growing the inner loop
    until one sample runs long enough to trust the clock."""
    fn()  # warmup
    best = float("inf")
    for _ in range(samples):
        iters = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(iters):
                fn()
            dt = time.perf_counter() - t0
            if dt >= min_time_s:
                best = min(best, dt / iters * 1e9)
                break
            scale = min_time_s / max(dt, 1e-9)
            iters = max(iters * 2, int(iters * scale) + 1)
    return best


def bench_hamming(dim: int = 10000, seed: int = 42) -> dict:
    """Hamming distance: per-bit loop vs word-wise popcount."""
    rng = RandomSource(seed)
    a = random_hv(dim, rng)
    b = random_hv(dim, rng)
    bits_a, bits_b = a.to_bits(), b.to_bits()
    wa, wb = a.words, b.words

    out = {"dim": dim, "backend": kernels.backend()}
    out["bitloop_ns"] = per_call_ns(lambda: kernels.hamming_bitloop(bits_a, bits_b))
    out["wordwise_ns"] = per_call_ns(lambda: kernels.hamming_words(wa, wb))
    out["speedup_vs_bitloop"] = out["bitloop_ns"] / out["wordwise_ns"]
    return out


def _random_text(length: int, rng: RandomSource) -> str:
    """``length`` random letters, which normalization leaves as they are."""
    return "".join(DEFAULT_ALPHABET[i] for i in rng.generator.integers(0, 26, size=length))


def bench_encode(length: int = 100, seed: int = 42) -> dict:
    """A ``length``-char text at the defaults: encode, counting, and the
    threshold of one ``ENCODE_GROUPS`` chunk of such texts with their tie
    words, as ``encode_symbols`` thresholds it, per text."""
    enc = TextEncoder(EncoderConfig())
    rng = RandomSource(seed)
    text = _random_text(length, rng)
    table, groups = enc._table, [enc.symbol_indices(text)]
    k = length - enc.config.n + 1
    ks = [k]
    # The narrow counts encode thresholds; the timed counting adds to a copy.
    counts = np.zeros((1, enc.config.dim), dtype=np.min_scalar_type(k))
    kernels.accumulate_ngrams(table, groups, ks, counts)
    scratch = counts.copy()
    chunk = np.repeat(counts, ENCODE_GROUPS, axis=0)
    items = [k] * ENCODE_GROUPS
    ties = rng.words(ENCODE_GROUPS * n_words(enc.config.dim)).reshape(ENCODE_GROUPS, -1)
    return {"length": length,
            "encode_ns": per_call_ns(lambda: enc.encode(text)),
            "counting_ns": per_call_ns(lambda: kernels.accumulate_ngrams(table, groups, ks,
                                                                         scratch)),
            "threshold_ns": per_call_ns(lambda: majority_words(chunk, items, ties))
            / ENCODE_GROUPS}


def bench_train(texts: int = 21, length: int = 20000, sentences: int = 200,
                sentence_length: int = 100, seed: int = 42) -> dict:
    """``texts`` random ``length``-char texts at the defaults: one ``encode_each``
    call, one ``encode`` call per text, and one text alone; and one
    ``encode_each`` call over ``texts`` groups of ``sentences`` random
    ``sentence_length``-char texts, each group one histogram row."""
    enc = TextEncoder(EncoderConfig())
    rng = RandomSource(seed)
    docs = [_random_text(length, rng) for _ in range(texts)]
    groups = [[doc] for doc in docs]
    short = [[_random_text(sentence_length, rng) for _ in range(sentences)]
             for _ in range(texts)]
    return {"texts": texts, "length": length,
            "sentences": sentences, "sentence_length": sentence_length,
            "encode_each_ns": per_call_ns(lambda: enc.encode_each(groups)),
            "encode_per_text_ns": per_call_ns(lambda: [enc.encode(doc) for doc in docs]),
            "encode_one_ns": per_call_ns(lambda: enc.encode(docs[0])),
            "encode_sentences_ns": per_call_ns(lambda: enc.encode_each(short))}


def bench_test_set(labels: int = 21, sentences: int = 30, length: int = 100,
                   seed: int = 42) -> dict:
    """``labels`` x ``sentences`` random ``length``-char sentences at the
    defaults, as the benchmark's test set: coded once by
    ``encode_test_sentences`` and encoded by one ``encode_symbols`` call, as
    ``evaluate`` encodes its test set, against one ``encode`` call per
    sentence."""
    enc = TextEncoder(EncoderConfig())
    rng = RandomSource(seed)
    corpus = Corpus()
    for i in range(labels * sentences):
        corpus.add_test(f"l{i % labels:02d}", _random_text(length, rng))
    names = sorted(corpus.test)
    texts = [text for _, text in corpus.test_items()]

    def test_set():
        groups, _, _ = encode_test_sentences(names, corpus, enc.config.n)
        return enc.encode_symbols(groups)

    return {"sentences": len(texts), "length": length,
            "test_set_ns": per_call_ns(test_set),
            "per_sentence_ns": per_call_ns(lambda: [enc.encode(t) for t in texts])}


def bench_synth(seed: int = 42) -> dict:
    """``synth_corpus`` of 21 languages at each of ``SYNTH_SHAPES``:
    (training chars, test sentences of 100 chars) per language."""
    return {name: per_call_ns(lambda: synth_corpus(21, chars, sentences, 100, seed))
            for name, (chars, sentences) in SYNTH_SHAPES.items()}


def _fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:9.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:9.2f} us"
    return f"{ns:9.0f} ns"


def main():
    h = bench_hamming()
    print(f"hamming distance, D={h['dim']}")
    print(f"  per-bit loop   {_fmt_ns(h['bitloop_ns'])}")
    print(f"  word-wise      {_fmt_ns(h['wordwise_ns'])}")
    print(f"  word-wise speedup over per-bit loop: {h['speedup_vs_bitloop']:.0f}x")
    e = bench_encode()
    print(f"text encode, {e['length']} chars, D=10000")
    for part in ("encode", "counting", "threshold"):
        print(f"  {part:<14} {_fmt_ns(e[part + '_ns'])}")
    print(f"  (threshold: one text's share of a {ENCODE_GROUPS}-text chunk with its tie words)")
    t = bench_train()
    print(f"train encode, {t['texts']} texts x {t['length']} chars, D=10000")
    print(f"  encode_each    {_fmt_ns(t['encode_each_ns'])}  (one call)")
    print(f"  {t['texts']} x encode    {_fmt_ns(t['encode_per_text_ns'])}")
    print(f"  one text       {_fmt_ns(t['encode_one_ns'])}")
    print(f"  encode_each    {_fmt_ns(t['encode_sentences_ns'])}  (one call, {t['texts']} x "
          f"{t['sentences']} sentences x {t['sentence_length']} chars)")
    q = bench_test_set()
    print(f"test-set encode, {q['sentences']} sentences x {q['length']} chars, D=10000")
    print(f"  as evaluate    {_fmt_ns(q['test_set_ns'])}  (one coding, one encode_symbols)")
    print(f"  {q['sentences']} x encode   {_fmt_ns(q['per_sentence_ns'])}")
    print("synth_corpus, 21 languages, test sentences of 100 chars")
    for name, ns in bench_synth().items():
        chars, sentences = SYNTH_SHAPES[name]
        print(f"  {name:<14} {_fmt_ns(ns)}  ({chars} train chars, {sentences} sentences each)")


if __name__ == "__main__":
    main()
