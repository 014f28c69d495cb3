"""Tests of the benchmark's own harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from hdclab import baseline, corpus, encoder  # noqa: E402
from tracing import Tracer, layer_stats  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > leaf [15, 25]; root > b [50, 70]
    spans = [["root", -1, 0, 100, 0], ["a", 0, 10, 40, 0], ["leaf", 1, 15, 25, 0],
             ["b", 0, 50, 70, 0], ["a", -1, 200, 205, 3]]
    stats = layer_stats(spans)
    ns = 1e-9
    assert stats["root"]["self_s"] == pytest.approx(50 * ns)
    assert stats["a"]["self_s"] == pytest.approx((20 + 5) * ns)
    assert stats["leaf"]["self_s"] == pytest.approx(10 * ns)
    assert stats["b"]["self_s"] == pytest.approx(20 * ns)
    assert stats["a"]["calls"] == 2 and stats["a"]["items"] == 3


def test_tracer_nests_spans_and_restores_every_binding():
    original = encoder.normalize_text
    enc = encoder.TextEncoder(encoder.EncoderConfig(dim=64))
    with Tracer() as tracer:
        assert baseline.normalize_text is not original
        assert corpus.normalize_text is baseline.normalize_text
        enc.encode("Hello, world")
    assert encoder.normalize_text is original and baseline.normalize_text is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "encoder.TextEncoder.encode"
    parents = {s[0]: s[1] for s in tracer.spans}
    assert parents["encoder.TextEncoder.symbol_indices"] == 0
    assert names[parents["encoder.normalize_text"]] == "encoder.TextEncoder.symbol_indices"
    stats = layer_stats(tracer.spans)
    assert stats["kernels.accumulate_ngrams"]["items"] == len("hello world") - 2
    total = (tracer.spans[0][3] - tracer.spans[0][2]) / 1e9
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(total)


def test_metric_names_are_well_formed_and_match_the_declaration():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in bench["end_to_end"]]
    declared_layer = [m["name"] for m in bench["per_layer"]]
    for name in declared_e2e + declared_layer:
        assert NAME.fullmatch(name), name
    assert set(declared_e2e) == set(run.END_TO_END_UNITS)
    emitted = set(run.layer_metrics({}, {}, 1, 0.0, 1.0))
    assert emitted | {"model_io.model_bytes", "os.minor_faults"} == set(declared_layer)
    assert all(NAME.fullmatch(name) for name in emitted)


def test_round_seconds_takes_each_kinds_fastest_call():
    rounds = [{"calls": {"a/x": (2, 0.5), "a/y": (1, 0.3), "b": (10, 0.02)}},
              {"calls": {"a/x": (2, 0.4), "a/y": (1, 0.6), "b": (10, 0.01)}}]
    kinds = run.fastest_calls(rounds)
    assert kinds == {"a/x": (2, 0.4), "a/y": (1, 0.3), "b": (10, 0.01)}
    assert run.round_seconds(kinds, "a/") == pytest.approx(2 * 0.4 + 0.3)
    assert run.round_seconds(kinds) == pytest.approx(2 * 0.4 + 0.3 + 10 * 0.01)


def test_raising_call_counts_every_operation_failed():
    tally = workloads.Tally()
    tally.record(5)
    assert workloads.attempt(tally, 3, lambda: 1 / 0) is None
    assert (tally.attempted, tally.failed) == (8, 3)
    assert tally.fail_rate == pytest.approx(3 / 8)


def test_failed_sweep_check_raises_fail_rate(monkeypatch, tmp_path):
    # Ten queries: one per independent-mask chunk.
    monkeypatch.setattr(workloads, "CORPUS", {"num_languages": 2, "train_chars": 300,
                                              "test_sentences": 5, "sentence_chars": 30})
    sweep = workloads.Sweep(0, tmp_path)
    tally = workloads.Tally()
    good = sweep.round(tally)[1]
    bad = sweep.round(tally)[1]
    fraction, trial, _ = bad["shared_multiclass"].rows[0]
    assert fraction == 0.0
    bad["shared_multiclass"].rows[0] = (fraction, trial, 0.5)
    sweep.finish(tally, [good, bad], tmp_path)
    cells = len(workloads.GRID) * (len(workloads.SWEEP_MODES) * workloads.SHARED_TRIALS + 1)
    assert (tally.attempted, tally.failed) == (2 * cells, 1)


def test_confusion_mismatch_counts_relabelled_sentences():
    a = {"x": {"x": 3}, "y": {"y": 2}}
    b = {"x": {"x": 2, "y": 1}, "y": {"y": 2}}
    assert workloads.confusion_mismatch(a, a) == 0
    assert workloads.confusion_mismatch(a, b) == 1


def test_missing_source_exits_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.import_hdclab()
    assert exc.value.code == 2
