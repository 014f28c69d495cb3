"""Smoke test of ``python -m hdclab.bench``: every group of lines prints.

Each timed call runs once, and the training, test-set and synth_corpus
groups run at small sizes, so the whole report takes well under a second.
"""

import functools

from hdclab import bench
from hdclab.encoder import ENCODE_GROUPS


def test_every_line_group_prints(monkeypatch, capsys):
    def one_call(fn, *args, **kwargs):
        fn()
        return 1000.0

    monkeypatch.setattr(bench, "per_call_ns", one_call)
    monkeypatch.setattr(bench, "bench_train", functools.partial(
        bench.bench_train, texts=2, length=6000, sentences=3))
    monkeypatch.setattr(bench, "bench_test_set", functools.partial(
        bench.bench_test_set, labels=2, sentences=3))
    monkeypatch.setattr(bench, "SYNTH_SHAPES", {"benchmark": (300, 2), "paper": (600, 3)})
    bench.main()
    out = capsys.readouterr().out
    for header in ("hamming distance, D=10000", "text encode, 100 chars",
                   "train encode, 2 texts x 6000 chars", "test-set encode, 6 sentences",
                   "synth_corpus, 21 languages"):
        assert header in out
    assert f"one text's share of a {ENCODE_GROUPS}-text chunk" in out
    assert "(300 train chars, 2 sentences each)" in out
    assert "(600 train chars, 3 sentences each)" in out
    assert len(out.splitlines()) == 20
