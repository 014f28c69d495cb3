"""Acceptance suite: ten criteria, one test and one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criterion 6 uses a real corpus from $HDCLAB_CORPUS_DIR when that is set and
otherwise falls back to the bundled synthetic languages.
"""

import json
import os
import time

import numpy as np
import pytest

from hdclab import (
    EncoderConfig,
    FaultMask,
    Hypervector,
    ItemMemory,
    RandomSource,
    TextEncoder,
    bind,
    decode_field,
    encode_record,
    evaluate,
    fault_sweep,
    flip_noise,
    hamming,
    ingest,
    load_model,
    normalize_text,
    normalized_hamming,
    pack_bits,
    permute,
    random_hv,
    save_model,
    train_pipeline,
)
from hdclab.baseline import baseline_evaluate, baseline_train
from hdclab.bench import bench_hamming
from hdclab.faultlab import multiclass_accuracy
from conftest import hv_from_string
from _oracles import ref_encode_text

D = 10000


def verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_algebraic_suite():
    t0 = time.perf_counter()
    vecs8 = [hv_from_string(format(i, "08b")) for i in range(256)]
    zero8 = vecs8[0]
    for a in vecs8:
        assert bind(a, a) == zero8
        assert bind(a, zero8) == a
        assert permute(a, 8) == a
    c8 = vecs8[0b10110010]
    for i, a in enumerate(vecs8):
        for b in vecs8[i + 1:]:
            assert bind(a, b) == bind(b, a)
            assert hamming(bind(c8, a), bind(c8, b)) == hamming(a, b)
    for a in vecs8:  # distributivity: every vector, every shift, 16 partners
        for s in range(8):
            pa = permute(a, s)
            for b in vecs8[::16]:
                assert permute(bind(a, b), s) == bind(pa, permute(b, s))
    sub = vecs8[::11]
    for a in sub:  # associativity over a full 24-vector cube
        for b in sub:
            for c in sub:
                assert bind(bind(a, b), c) == bind(a, bind(b, c))

    rng = RandomSource(1001)
    for t in range(1000):
        a = random_hv(D, rng.child(t, 0))
        b = random_hv(D, rng.child(t, 1))
        c = random_hv(D, rng.child(t, 2))
        s = int(rng.child(t, 3).generator.integers(0, D))
        assert bind(bind(a, b), c) == bind(a, bind(b, c))
        assert bind(a, b) == bind(b, a)
        assert bind(bind(a, b), b) == a
        assert permute(bind(a, b), s) == bind(permute(a, s), permute(b, s))
        dist = hamming(a, b)
        assert hamming(bind(c, a), bind(c, b)) == dist
        assert hamming(permute(a, s), permute(b, s)) == dist
    elapsed = time.perf_counter() - t0
    verdict(1, elapsed < 10.0,
            f"group laws, distributivity, distance preservation ({elapsed:.1f}s)")


def test_02_orthogonality():
    rng = RandomSource(2002)
    dists = np.empty(1000)
    for t in range(1000):
        a = random_hv(D, rng.child(t, 0))
        b = random_hv(D, rng.child(t, 1))
        dists[t] = normalized_hamming(a, b)
    mean = float(dists.mean())
    ok = 0.495 <= mean <= 0.505 and dists.min() >= 0.45 and dists.max() <= 0.55
    verdict(2, ok, f"1000 random pairs: mean {mean:.4f}, "
                   f"range [{dists.min():.3f}, {dists.max():.3f}]")


def test_03_flip_tolerance():
    t0 = time.perf_counter()
    symbols = [f"s{i:02d}" for i in range(27)]
    mem = ItemMemory.build(symbols, D, seed=3003)
    root = RandomSource(3004)
    hits = 0
    for t in range(1000):
        rng = root.child(t)
        idx = int(rng.generator.integers(0, 27))
        noisy = flip_noise(mem.lookup(symbols[idx]), 1 / 3, rng)
        hits += mem.cleanup(noisy)[0] == symbols[idx]
    elapsed = time.perf_counter() - t0
    ok = hits >= 999 and elapsed < 30.0
    verdict(3, ok, f"1/3 bit flips: {hits}/1000 recovered ({elapsed:.1f}s)")


def test_04_record_codec():
    root = RandomSource(4004)
    good = 0
    for t in range(1000):
        mem = ItemMemory.build(list("xyzabc"), D, seed=int(root.child(t, 0).generator.integers(0, 2**63)))
        hv = encode_record([("x", "a"), ("y", "b"), ("z", "c")], mem, rng=root.child(t, 1))
        got = (decode_field(hv, "x", mem)[0], decode_field(hv, "y", mem)[0],
               decode_field(hv, "z", mem)[0])
        good += got == ("a", "b", "c")
    verdict(4, good >= 990, f"3-field records: {good}/1000 fully decoded")


def test_05_oracle_equivalence():
    rng = RandomSource(5005)
    alphabet = "abcdefghijklmnopqrstuvwxyz "
    checked = 0
    for dim in (16, 32):
        enc = TextEncoder(EncoderConfig(dim=dim, item_seed=55, deterministic_ties=True))
        seed_bits = {ch: list(enc.item_memory.lookup(ch).to_bits()) for ch in alphabet}
        for t in range(50):
            r = rng.child(dim, t)
            length = int(r.generator.integers(3, 60))
            idx = r.generator.integers(0, 27, size=length)
            text = normalize_text("".join(alphabet[i] for i in idx))
            if len(text) < 3:
                text = "abc"
            want = ref_encode_text(text, 3, seed_bits, tie_value=1)
            assert list(enc.encode(text).to_bits()) == want
            checked += 1
    verdict(5, checked == 100,
            f"streaming encoder == histogram oracle bit-for-bit on {checked} texts")


def test_06_language_accuracy(synth, trained):
    t0 = time.perf_counter()
    corpus_dir = os.environ.get("HDCLAB_CORPUS_DIR")
    if corpus_dir:
        corpus = ingest(corpus_dir)
        model = train_pipeline(corpus, EncoderConfig(dim=D))
        hd = evaluate(model, corpus)["accuracy"]
        base = baseline_evaluate(baseline_train(corpus), corpus)["accuracy"]
        elapsed = time.perf_counter() - t0
        ok = (0.93 <= hd <= 0.99 and 0.95 <= base <= 0.995
              and abs(hd - base) <= 0.05 and elapsed < 600)
        verdict(6, ok, f"real corpus: HD {hd:.3f}, baseline {base:.3f} ({elapsed:.0f}s)")
    else:
        hd = evaluate(trained, synth)["accuracy"]
        base = baseline_evaluate(baseline_train(synth), synth)["accuracy"]
        elapsed = time.perf_counter() - t0
        ok = hd >= 0.95 and elapsed < 600
        verdict(6, ok, f"synthetic fallback: HD {hd:.3f} (baseline {base:.3f}, "
                       f"{elapsed:.0f}s)")


def test_07_stuck_at_resilience(trained, queries):
    hvs, true_idx = queries
    rows = trained.memory.rows()
    fractions = [0.0, 0.2, 0.4, 0.6, 0.78, 0.9]
    result = fault_sweep(rows, hvs, true_idx, fractions, trials=10,
                         mode="pairwise", shared=True, seed=7007)
    agg = result.aggregate()
    means = {f: m for f, m, _ in agg}
    stds = {f: s for f, _, s in agg}
    fault_free = means[0.0]
    at78 = means[0.78]
    close = abs(at78 - fault_free) <= 0.02
    high = at78 >= 0.95
    monotone = True
    for (f1, m1, s1), (f2, m2, s2) in zip(agg, agg[1:]):
        slack = 2 * np.sqrt(s1**2 / 10 + s2**2 / 10) + 1e-9
        if m2 > m1 + slack:
            monotone = False
    verdict(7, close and high and monotone,
            f"pairwise at 78% faults: {at78:.4f} vs fault-free {fault_free:.4f}, "
            f"monotone over {fractions}: {monotone}")


def _bernoulli_flip(hv, p, rng):
    """Flip each position independently with probability p.

    Unlike exact-count noise this restricts cleanly under a mask: the pass
    positions of a masked vector carry the same iid noise a fresh vector of
    the reduced dimension would, so the two arms below are exchangeable.
    """
    bits = (rng.generator.random(hv.dim) < p).astype(np.uint8)
    return Hypervector(hv.dim, hv.words ^ pack_bits(bits))


def _masked_arm_success(dim, fraction, flip, n_classes, rng):
    protos = [random_hv(dim, rng.child(0, i)) for i in range(n_classes)]
    rows = np.vstack([p.words for p in protos])
    target = int(rng.child(1).generator.integers(0, n_classes))
    query = _bernoulli_flip(protos[target], flip, rng.child(2))
    mask = FaultMask.make(dim, fraction, rng.child(3))
    masked_rows = mask.apply_words(rows)
    masked_query = mask.apply(query)
    return multiclass_accuracy(masked_rows, [masked_query.words],
                               np.array([target])) == 1.0


def _reduced_arm_success(dim_small, flip, n_classes, rng):
    protos = [random_hv(dim_small, rng.child(0, i)) for i in range(n_classes)]
    rows = np.vstack([p.words for p in protos])
    target = int(rng.child(1).generator.integers(0, n_classes))
    query = _bernoulli_flip(protos[target], flip, rng.child(2))
    return multiclass_accuracy(rows, [query.words], np.array([target])) == 1.0


def test_08_effective_dimension_equivalence():
    trials, flip, n_classes = 400, 0.46, 21
    root = RandomSource(8008)
    details = []
    all_ok = True
    for fi, fraction in enumerate((0.5, 0.78)):
        dim_small = int((1 - fraction) * D + 0.5)
        hits_m = sum(
            _masked_arm_success(D, fraction, flip, n_classes, root.child(fi, 0, t))
            for t in range(trials)
        )
        hits_r = sum(
            _reduced_arm_success(dim_small, flip, n_classes, root.child(fi, 1, t))
            for t in range(trials)
        )
        p1, p2 = hits_m / trials, hits_r / trials
        pooled = (hits_m + hits_r) / (2 * trials)
        if pooled in (0.0, 1.0):
            z = 0.0  # both arms unanimous: no detectable difference
        else:
            se = np.sqrt(pooled * (1 - pooled) * 2 / trials)
            z = (p1 - p2) / se
        details.append(f"f={fraction}: masked {p1:.3f} vs D'={dim_small} {p2:.3f} "
                       f"(z={z:+.2f})")
        if abs(z) >= 2.576:  # alpha = 0.01, two-sided
            all_ok = False
    verdict(8, all_ok, "; ".join(details))


def test_09_persistence(synth, trained, tmp_path):
    p = tmp_path / "model.hdc"
    save_model(trained, p)
    loaded = load_model(p)
    r1 = json.dumps(evaluate(trained, synth), sort_keys=True).encode()
    r2 = json.dumps(evaluate(loaded, synth), sort_keys=True).encode()
    save_model(loaded, tmp_path / "again.hdc")
    model_stable = (tmp_path / "again.hdc").read_bytes() == p.read_bytes()
    verdict(9, r1 == r2 and model_stable,
            f"eval report after reload byte-identical: {r1 == r2}, "
            f"model file stable: {model_stable}")


def test_10_performance_sanity():
    result = bench_hamming(dim=D)
    speedup = result["speedup_vs_bitloop"]
    verdict(10, speedup >= 100.0,
            f"word-wise Hamming {speedup:.0f}x over per-bit loop "
            f"(backend {result['backend']})")
