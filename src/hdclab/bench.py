"""Acceptance criterion 10's timing: the word-wise Hamming kernel against the
per-bit reference loop. End-to-end workloads are measured by ``perfbench/``."""

from __future__ import annotations

import time

from . import kernels
from .algebra import RandomSource, random_hv


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
