"""Microbenchmarks: the word-wise Hamming kernel against the per-bit
reference loop, one 100-char text encode split into its two hot layers,
training-sized encodes (21 texts of 20k chars in one ``encode_each`` call
against one ``encode`` call per text, and one such text alone), and a
test-set encode (630 sentences of 100 chars in one batched call against one
``encode`` call per sentence).

Run with:  python3 -m hdclab.bench
"""

from __future__ import annotations

import time

import numpy as np

from . import kernels
from .algebra import RandomSource, majority_words, random_hv
from .encoder import DEFAULT_ALPHABET, EncoderConfig, TextEncoder


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
    """A ``length``-char text at the defaults: encode, counting, threshold."""
    enc = TextEncoder(EncoderConfig())
    rng = RandomSource(seed)
    text = _random_text(length, rng)
    table, groups = enc._table, [[enc.symbol_indices(text).astype(np.uint8)]]
    k = length - enc.config.n + 1
    # The narrow counts encode thresholds; the timed counting adds to a copy.
    counts = np.zeros((1, enc.config.dim), dtype=np.min_scalar_type(k))
    kernels.accumulate_ngrams(table, groups, counts)
    scratch = counts.copy()
    return {"length": length,
            "encode_ns": per_call_ns(lambda: enc.encode(text)),
            "counting_ns": per_call_ns(lambda: kernels.accumulate_ngrams(table, groups, scratch)),
            "threshold_ns": per_call_ns(lambda: majority_words(counts[0], k, rng))}


def bench_train(texts: int = 21, length: int = 20000, seed: int = 42) -> dict:
    """``texts`` random ``length``-char texts at the defaults: one ``encode_each``
    call, one ``encode`` call per text, and one text alone."""
    enc = TextEncoder(EncoderConfig())
    rng = RandomSource(seed)
    docs = [_random_text(length, rng) for _ in range(texts)]
    groups = [[doc] for doc in docs]
    return {"texts": texts, "length": length,
            "encode_each_ns": per_call_ns(lambda: enc.encode_each(groups)),
            "encode_per_text_ns": per_call_ns(lambda: [enc.encode(doc) for doc in docs]),
            "encode_one_ns": per_call_ns(lambda: enc.encode(docs[0]))}


def bench_test_set(sentences: int = 630, length: int = 100, seed: int = 42) -> dict:
    """``sentences`` random ``length``-char sentences at the defaults, as the
    benchmark's test set: one batched ``encode_each`` call, which encodes
    through ``encode_symbols`` as ``evaluate`` does, against one ``encode``
    call per sentence."""
    enc = TextEncoder(EncoderConfig())
    rng = RandomSource(seed)
    texts = [_random_text(length, rng) for _ in range(sentences)]
    groups = [[text] for text in texts]
    return {"sentences": sentences, "length": length,
            "batched_ns": per_call_ns(lambda: enc.encode_each(groups)),
            "per_sentence_ns": per_call_ns(lambda: [enc.encode(t) for t in texts])}


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
    t = bench_train()
    print(f"train encode, {t['texts']} texts x {t['length']} chars, D=10000")
    print(f"  encode_each    {_fmt_ns(t['encode_each_ns'])}  (one call)")
    print(f"  {t['texts']} x encode    {_fmt_ns(t['encode_per_text_ns'])}")
    print(f"  one text       {_fmt_ns(t['encode_one_ns'])}")
    q = bench_test_set()
    print(f"test-set encode, {q['sentences']} sentences x {q['length']} chars, D=10000")
    print(f"  batched        {_fmt_ns(q['batched_ns'])}  (one call)")
    print(f"  {q['sentences']} x encode   {_fmt_ns(q['per_sentence_ns'])}")


if __name__ == "__main__":
    main()
