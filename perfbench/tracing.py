"""Span tracing of calls into hdclab, installed from outside the package.

``Tracer`` replaces each target function with a timing wrapper in every
hdclab module namespace that binds it (``pairwise_from_dmat`` lives in both
``faultlab`` and ``pipeline``, ``normalize_text`` in three modules), and puts
the originals back on exit. Spans are kept in memory as
``[name, parent, start_ns, end_ns, items]``; ``layer_stats`` derives call
counts and self time (span minus the time its child spans cover) from them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

PACKAGE = "hdclab"
# Public functions and methods timed in a traced run, as "<module>.<qualname>".
TARGETS = (
    "kernels.accumulate_ngrams",
    "kernels.hamming_many",
    "kernels.markov_sample",
    "encoder.normalize_text",
    "encoder.TextEncoder.__init__",
    "encoder.TextEncoder.symbol_indices",
    "encoder.TextEncoder.encode",
    "algebra.Accumulator.threshold",
    "algebra.RandomSource.child",
    "algebra.pack_bits",
    "algebra.unpack_bits",
    "algebra.permute",
    "assocmem.AssociativeMemory.add",
    "assocmem.AssociativeMemory.rows",
    "assocmem.AssociativeMemory.distances",
    "assocmem.AssociativeMemory.classify_full",
    "pipeline.train_pipeline",
    "pipeline.evaluate",
    "faultlab.FaultMask.make",
    "faultlab.FaultMask.apply",
    "faultlab.FaultMask.apply_words",
    "faultlab.multiclass_accuracy",
    "faultlab.pairwise_accuracy",
    "faultlab.pairwise_from_dmat",
    "faultlab.fault_sweep",
    "baseline.BaselineClassifier.count_vector",
    "baseline.BaselineClassifier.classify",
    "baseline.baseline_evaluate",
    "model_io.save_model",
    "model_io.load_model",
    "synth.synth_corpus",
)

# Item counts taken from a call's return value: windows for the n-gram kernel.
ITEMS = {"kernels.accumulate_ngrams": int}


class Tracer:
    """Context manager: while entered, every target call records one span."""

    def __init__(self):
        self.spans: list = []
        self.current = -1  # index of the open span, -1 at top level
        self._restore: list = []

    def _wrap(self, name, fn):
        spans = self.spans
        clock = time.perf_counter_ns
        count = ITEMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.current, clock(), 0, 0]
            self.current = len(spans)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                self.current = span[1]
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name in TARGETS:
            module_name, *owner_path, attr = name.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            for part in owner_path:
                owner = getattr(owner, part)
            if owner_path:  # a method: patch the class attribute
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path, phase: str, append: bool = False):
        """Dump the spans as gzip CSV: phase, name, parent, start_ns, end_ns, items."""
        with gzip.open(path, "at" if append else "wt", compresslevel=1) as fh:
            if not append:
                fh.write("phase,name,parent,start_ns,end_ns,items\n")
            for name, parent, start, end, items in self.spans:
                fh.write(f"{phase},{name},{parent},{start},{end},{items}\n")


def layer_stats(spans) -> dict:
    """Per span name: {"calls", "self_s", "items"} summed over all spans.

    Self time is a span's duration minus the summed durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child_ns = [0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict = {}
    for i, (name, _, start, end, items) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "items": 0})
        s["calls"] += 1
        s["self_s"] += (end - start - child_ns[i]) / 1e9
        s["items"] += items
    return stats
