"""The benchmark's three workloads: set-up, one timed round, output checks.

Every workload is a closed loop with one caller on the numpy backend at
D = 10000, n = 3, over ``synth_corpus`` (21 languages, 20k training chars,
30 test sentences of 100 chars each) drawn from the workload seed.

A workload object is built by its set-up; the caller times the constructor,
``setups`` times in an untraced run, and reports the median.
``round`` runs the timed part once and returns ``(measurements, outputs)``;
its measurements carry, per kind of timed call, the number of calls and the
fastest one (see ``timed``), and ``rates`` names, per reported rate, the
call kinds it covers (a prefix) and the work they do in one round.
``finish`` checks every round's outputs outside the timed regions and
returns ``(detail, checks, digests)``. An operation (one training text, one
evaluated sentence, one ``classify_text`` call, one sweep cell) is counted
exactly once in the ``Tally``: as failed in ``round`` when its call raised,
otherwise in ``finish`` as passed or failed by its check.

hdclab functions are always reached through their module attribute
(``pipeline.evaluate``), so a traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback

import numpy as np

from hdclab import baseline, faultlab, model_io, pipeline, synth

CORPUS = {"num_languages": 21, "train_chars": 20000, "test_sentences": 30,
          "sentence_chars": 100}
GRID = (0.0, 0.2, 0.4, 0.6, 0.78, 0.9)  # the paper's stuck-at fractions
SWEEP_MODES = ("multiclass", "pairwise")
SHARED_TRIALS = 10
# One independent-mask trial per fraction (it already draws 3780 masks), its
# queries split into one chunk per shared trial so that every call is short.
INDEP_CHUNKS = SHARED_TRIALS
CLASSIFY_PASSES = 1  # 630 calls a round, at least two rounds a run: >= 12 beyond p99
ACCURACY_FLOOR = 0.9

clock = time.perf_counter


class Tally:
    """Operations attempted and failed; a failed operation stays in both."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def attempt(tally: Tally, ops: int, fn, *args):
    """Call ``fn``; if it raises, count ``ops`` operations failed and return None."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.record(ops, ops)
        return None


def timed(calls: dict, kind: str, tally: Tally, ops: int, fn, *args):
    """``attempt`` one call and fold its time into ``calls[kind]``.

    ``calls`` maps a kind of call to ``(calls made, fastest call in s)``
    within one round.
    """
    t0 = clock()
    result = attempt(tally, ops, fn, *args)
    elapsed = clock() - t0
    count, fastest = calls.get(kind, (0, math.inf))
    calls[kind] = (count + 1, min(fastest, elapsed))
    return result


def cell_seed(seed: int, *key: int) -> int:
    """64-bit seed of one sweep call, derived from the workload seed and ``key``."""
    return int(np.random.SeedSequence((seed,) + key).generate_state(1, np.uint64)[0])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report: dict) -> str:
    return sha256(json.dumps(report, sort_keys=True).encode("utf-8"))


def confusion_mismatch(a: dict, b: dict) -> int:
    """Least number of sentences whose labels differ between two confusion tables."""
    diff = 0
    for true in set(a) | set(b):
        row_a, row_b = a.get(true, {}), b.get(true, {})
        for pred in set(row_a) | set(row_b):
            diff += abs(row_a.get(pred, 0) - row_b.get(pred, 0))
    return (diff + 1) // 2


def model_checks(model, outdir, name: str):
    """Save -> load -> save must give identical bytes; returns (ok, file bytes)."""
    first, second = outdir / f"{name}.hdcm", outdir / f"{name}.resaved.hdcm"
    model_io.save_model(model, first)
    model_io.save_model(model_io.load_model(first), second)
    data = first.read_bytes()
    return data == second.read_bytes(), data


class Train:
    """Timed: ``train_pipeline`` on the corpus, then ``save_model`` and
    ``load_model`` on the result.

    Why: with 20k-char texts nearly all the time is in
    ``kernels.accumulate_ngrams`` (window gather, XOR, per-bit counting);
    this is where a faster encoder shows.
    """

    main, accuracy = "train_chars_per_s", "clean_accuracy"
    setups = 3  # building the corpus takes about 2 s

    def __init__(self, seed: int, outdir):
        self.corpus = synth.synth_corpus(seed=seed, **CORPUS)
        self.texts = sum(len(v) for v in self.corpus.train.values())
        self.chars = sum(len(t) for _, t in self.corpus.train_items())
        self.path = outdir / "train-round.hdcm"
        self.rates = {"train_chars_per_s": ("train_pipeline", self.chars)}

    def _save_load(self, model):
        model_io.save_model(model, self.path)
        return model_io.load_model(self.path)

    def round(self, tally: Tally):
        calls: dict = {}
        t0 = clock()
        model = timed(calls, "train_pipeline", tally, self.texts,
                      pipeline.train_pipeline, self.corpus)
        loaded = None
        if model is not None:
            loaded = timed(calls, "save_load", tally, self.texts, self._save_load, model)
        measured = {"wall_s": clock() - t0, "calls": calls}
        if loaded is None:
            return measured, None
        return measured, (model, loaded, self.path.read_bytes())

    def finish(self, tally: Tally, outputs, outdir):
        # A training text passes when its label's prototype survives the
        # save/load round trip and the model file matches the first round's.
        done = [o for o in outputs if o is not None]
        for model, loaded, data in done:
            bad = set()
            if loaded.labels != model.labels or data != done[0][2]:
                bad = set(model.labels)
            else:
                for label, a, b in zip(model.labels, model.memory.rows(), loaded.memory.rows()):
                    if not np.array_equal(a, b):
                        bad.add(label)
            tally.record(self.texts, sum(len(self.corpus.train[lb]) for lb in bad))
        if not done:
            return {}, {"trained": False}, {}
        model = done[-1][0]
        roundtrip_ok, data = model_checks(model, outdir, "train")
        report = pipeline.evaluate(model, self.corpus, "multiclass")
        checks = {"save_load_save_identical": roundtrip_ok,
                  "clean_accuracy_floor": report["accuracy"] >= ACCURACY_FLOOR}
        digests = {"model": sha256(data), "eval_multiclass": report_digest(report)}
        detail = {"clean_accuracy": (report["accuracy"], "ratio"),
                  "model_bytes": (len(data), "B")}
        return detail, checks, digests


class Query:
    """Timed: ``evaluate`` in both modes, ``baseline_evaluate``, and a
    closed-loop stream of ``TrainedModel.classify_text`` calls.

    Why: in 100-char sentences a quarter of the time is fixed per-call cost
    (threshold, tie-RNG keying, symbol index, distances), so a change that
    speeds up long texts but adds per-call cost shows here and not in train.
    """

    main, accuracy = "eval_sentences_per_s", "clean_accuracy"
    setups = 1  # training takes about 11 s; a second set-up would nearly double a run

    def __init__(self, seed: int, outdir):
        self.corpus = synth.synth_corpus(seed=seed, **CORPUS)
        self.model = pipeline.train_pipeline(self.corpus)
        self.baseline = baseline.baseline_train(self.corpus)
        self.sentences = list(self.corpus.test_items())
        n = len(self.sentences)
        self.rates = {"eval_sentences_per_s": ("evaluate/", 2 * n),
                      "baseline_sentences_per_s": ("baseline_evaluate", n)}

    def round(self, tally: Tally):
        n = len(self.sentences)
        calls: dict = {}
        t0 = clock()
        mc = timed(calls, "evaluate/multiclass", tally, n,
                   pipeline.evaluate, self.model, self.corpus, "multiclass")
        pw = timed(calls, "evaluate/pairwise", tally, n,
                   pipeline.evaluate, self.model, self.corpus, "pairwise")
        base = timed(calls, "baseline_evaluate", tally, n,
                     baseline.baseline_evaluate, self.baseline, self.corpus)
        results, latencies_ns = [], []
        classify = self.model.classify_text
        ns = time.perf_counter_ns
        for _ in range(CLASSIFY_PASSES):
            for _, text in self.sentences:
                start = ns()
                result = attempt(tally, 1, classify, text)
                latencies_ns.append(ns() - start)
                results.append(result)
        calls["classify_text"] = (len(latencies_ns), min(latencies_ns) / 1e9)
        measured = {"wall_s": clock() - t0, "calls": calls}
        return measured, (mc, pw, base, results, latencies_ns)

    def _check_classify(self, tally: Tally, results) -> dict:
        """Count bad calls; returns the confusion table of the first pass."""
        n, labels = len(self.sentences), self.model.labels
        failed = 0
        confusion: dict = {}
        for i, result in enumerate(results):
            if result is None:
                continue  # already counted when it raised
            true_label = self.sentences[i % n][0]
            distances = [d for _, d in result.all_distances]
            ok = (result.label in labels and len(distances) == len(labels)
                  and result.distance == min(distances))
            first = results[i % n]
            if first is not None and first.label != result.label:
                ok = False
            failed += not ok
            if i < n:
                row = confusion.setdefault(true_label, {})
                row[result.label] = row.get(result.label, 0) + 1
        tally.record(sum(r is not None for r in results), failed)
        return confusion

    def finish(self, tally: Tally, outputs, outdir):
        n = len(self.sentences)
        latencies_ms = []
        reference: dict = {}
        for mc, pw, base, results, latencies_ns in outputs:
            latencies_ms.extend(x / 1e6 for x in latencies_ns)
            confusion = self._check_classify(tally, results)
            # A sentence passes evaluate when it was scored, its label equals
            # classify_text's, and the report matches the first round's.
            for key, report in (("multiclass", mc), ("pairwise", pw), ("baseline", base)):
                if report is None:
                    continue
                digest = report_digest(report)
                reference.setdefault(key, digest)
                if digest != reference[key]:
                    failed = n
                else:
                    failed = n - report["total"]
                    if key != "baseline":
                        failed += confusion_mismatch(report["confusion"], confusion)
                tally.record(n, min(failed, n))
        roundtrip_ok, data = model_checks(self.model, outdir, "query")
        mc = next((o[0] for o in outputs if o[0] is not None), None)
        accuracy = mc["accuracy"] if mc is not None else 0.0
        checks = {"save_load_save_identical": roundtrip_ok,
                  "clean_accuracy_floor": accuracy >= ACCURACY_FLOOR}
        p50, p99 = np.percentile(latencies_ms, [50, 99])
        detail = {"classify_p50_ms": (float(p50), "ms"),
                  "classify_p99_ms": (float(p99), "ms"),
                  "classify_calls": (len(latencies_ms), "count"),
                  "clean_accuracy": (accuracy, "ratio"),
                  "model_bytes": (len(data), "B")}
        digests = {"model": sha256(data)}
        digests.update({f"eval_{key}": d for key, d in reference.items()})
        return detail, checks, digests


class Sweep:
    """Timed: ``fault_sweep`` over the paper grid, one (fraction, trial)
    cell per call: 10 trials with shared masks, each cell scored in both
    modes, and one trial with independent masks whose 630 queries are split
    into ``INDEP_CHUNKS`` calls. Queries are encoded in set-up; every call
    has its own seed, derived from the workload seed.

    Why: the same layer used two ways. Shared masks spend the time in
    scoring and mask apply; independent masks in drawing masks. One call
    takes 10-40 ms, short enough that the fastest of each kind repeats from
    run to run on a machine whose speed swings from one second to the next.
    """

    main, accuracy = "sweep_shared_queries_per_s", "sweep_acc_f090"
    setups = 1  # training takes about 11 s; a second set-up would nearly double a run

    def __init__(self, seed: int, outdir):
        self.corpus = synth.synth_corpus(seed=seed, **CORPUS)
        self.model = pipeline.train_pipeline(self.corpus)
        index = {label: i for i, label in enumerate(self.model.labels)}
        items = list(self.corpus.test_items())
        self.queries = [self.model.encoder.encode(text) for _, text in items]
        self.true_idx = np.array([index[label] for label, _ in items])
        self.rows = self.model.memory.rows()
        q = len(self.queries)
        self.chunks = [slice(c * q // INDEP_CHUNKS, (c + 1) * q // INDEP_CHUNKS)
                       for c in range(INDEP_CHUNKS)]
        # Both modes score the same shared masks, as one physical array would.
        self.shared_seeds = {(fi, trial): cell_seed(seed, 0, fi, trial)
                             for fi in range(len(GRID)) for trial in range(SHARED_TRIALS)}
        self.indep_seeds = {(fi, c): cell_seed(seed, 1, fi, c)
                            for fi in range(len(GRID)) for c in range(INDEP_CHUNKS)}
        self.rates = {
            "sweep_shared_queries_per_s": ("shared/", len(SWEEP_MODES) * len(GRID) * SHARED_TRIALS * q),
            "sweep_indep_queries_per_s": ("indep/", len(GRID) * q),
        }

    def round(self, tally: Tally):
        calls: dict = {}
        shared = {mode: faultlab.SweepResult(mode=mode) for mode in SWEEP_MODES}
        indep_correct = [0] * len(GRID)
        indep_ok = [True] * len(GRID)
        t0 = clock()
        # Kinds interleave, so each sees the machine's fast and slow spells alike.
        for trial in range(SHARED_TRIALS):
            part = self.chunks[trial]
            for fi, fraction in enumerate(GRID):
                for mode in SWEEP_MODES:
                    result = timed(calls, f"shared/{mode}/{fraction:g}", tally, 1,
                                   faultlab.fault_sweep, self.rows, self.queries,
                                   self.true_idx, (fraction,), 1, mode, True,
                                   self.shared_seeds[fi, trial])
                    if result is not None:
                        shared[mode].add(fraction, trial, result.rows[0][2])
                # A failed chunk fails its cell, which is counted once below.
                result = timed(calls, f"indep/multiclass/{fraction:g}", tally, 0,
                               faultlab.fault_sweep, self.rows, self.queries[part],
                               self.true_idx[part], (fraction,), 1, "multiclass", False,
                               self.indep_seeds[fi, trial])
                if result is None:
                    indep_ok[fi] = False
                else:
                    size = part.stop - part.start
                    indep_correct[fi] += round(result.rows[0][2] * size)
        indep = faultlab.SweepResult(mode="multiclass")
        for fi, fraction in enumerate(GRID):
            if indep_ok[fi]:
                indep.add(fraction, 0, indep_correct[fi] / len(self.queries))
            else:
                tally.record(1, 1)
        measured = {"wall_s": clock() - t0, "calls": calls}
        for result in shared.values():
            result.rows.sort()
        return measured, {"shared_multiclass": shared["multiclass"],
                          "shared_pairwise": shared["pairwise"], "indep_multiclass": indep}

    def finish(self, tally: Tally, outputs, outdir):
        clean = pipeline.evaluate(self.model, self.corpus, "pairwise")
        clean_acc = {"multiclass": clean["accuracy"], "pairwise": clean["pairwise_accuracy"]}
        # A cell passes when its accuracy lies in [0, 1], equals the same
        # cell of the first round, and at fraction 0 equals clean accuracy.
        first: dict = {}
        for results in outputs:
            for key, result in results.items():
                first.setdefault(key, result)
                ref = {(f, t): a for f, t, a in first[key].rows}
                failed = 0
                for fraction, trial, acc in result.rows:
                    ok = 0.0 <= acc <= 1.0 and ref.get((fraction, trial)) == acc
                    if fraction == 0.0 and acc != clean_acc[result.mode]:
                        ok = False
                    failed += not ok
                tally.record(len(result.rows), failed)
        digests = {}
        for key, result in first.items():
            path = outdir / f"sweep-{key}.csv"
            result.write_csv(path)
            digests[key] = sha256(path.read_bytes())
        roundtrip_ok, data = model_checks(self.model, outdir, "sweep")
        digests["model"] = sha256(data)
        mc = [a for f, _, a in first["shared_multiclass"].rows if f == 0.9] if first else []
        acc_f090 = float(np.mean(mc)) if mc else 0.0
        checks = {"save_load_save_identical": roundtrip_ok,
                  "clean_accuracy_floor": clean["accuracy"] >= ACCURACY_FLOOR}
        detail = {"sweep_acc_f090": (acc_f090, "ratio"),
                  "clean_accuracy": (clean["accuracy"], "ratio"),
                  "model_bytes": (len(data), "B")}
        return detail, checks, digests


WORKLOADS = {"train": Train, "query": Query, "sweep": Sweep}
