"""End-to-end benchmark for hdclab.

    python3 perfbench/run.py --workload {train,query,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; hdclab is imported from ./src. One process,
one thread, numpy backend. The workload is set up from the seed, its timed
round repeats until ``--seconds`` have passed (at least twice), rates and
``round_s`` are built from the fastest call of each kind over the rounds
(see ``fastest_calls``), and the outputs are checked outside the timed
regions. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics, untraced. The set-up runs
  ``setups`` times (a workload attribute) and ``setup_s`` is the median.
- ``--trace 1``: per-layer metrics. One set-up, then rounds alternate
  untraced and traced, with every hdclab call in ``tracing.TARGETS``
  wrapped; ``<layer>.calls`` and ``<layer>.self_s`` are per traced round,
  and ``trace.overhead_s`` is the traced minus the untraced ``round_s``.

A full record (environment, every metric of the workload, checks, output
digests) goes to perfbench/out/result-<workload>-trace<t>.json and the
spans of a traced run to perfbench/out/spans-<workload>.csv.gz.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from tracing import TARGETS, Tracer, layer_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Per-layer metrics of functions that only the set-up calls; taken per set-up.
SETUP_LAYERS = ("synth.synth_corpus", "kernels.markov_sample")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s",
                    "main_per_s": "1/s", "accuracy": "ratio"}


def import_hdclab():
    """Import hdclab from ROOT/src, exiting with code 2 when it is not there."""
    if not (ROOT / "src" / "hdclab" / "__init__.py").is_file():
        print(f"error: no hdclab source under {ROOT / 'src'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from hdclab import kernels
    return kernels


def git_sha():
    """Commit of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, kernels, numpy_version):
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "backend": kernels.backend(), "git_sha": git_sha(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_rounds(workload, tally, seconds, clock, tracer=None):
    """Repeat the timed round until ``seconds`` have passed, at least twice.

    Each round records the minor page faults it took: the kernels' large
    temporaries are handed back to the OS and faulted in again, which is a
    large, history-dependent part of their cost, and the first round after
    set-up can run with the allocator in another state than the rest. With
    a tracer, rounds alternate untraced and traced, so that drift in the
    machine's speed falls on both alike, and at least three run.
    """
    rounds = []
    start = clock()
    while len(rounds) < (3 if tracer else 2) or clock() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        faults = minor_faults()
        with tracer if traced else contextlib.nullcontext():
            measured, outputs = workload.round(tally)
        measured["minor_faults"] = minor_faults() - faults
        measured["traced"] = traced
        rounds.append((measured, outputs))
    return rounds


def median_of(measured, key):
    values = [m[key] for m in measured if key in m]
    return statistics.median(values) if values else 0.0


def fastest_calls(measured):
    """Per kind of timed call: calls in one round, fastest call over the rounds.

    On a shared virtual machine the CPU speed swings by up to 1.8x from one
    second to the next (on a 2-vCPU Xeon VM, wall and CPU time alike, so it
    is not stolen time), and the median of a run follows the share of slow
    spells in it. The fastest of many short calls of one kind is the time
    of that call on an uncontended CPU, which repeats from run to run.
    """
    kinds = {}
    for m in measured:
        for kind, (count, fastest) in m["calls"].items():
            best = kinds.get(kind, (count, math.inf))[1]
            kinds[kind] = (count, min(best, fastest))
    return kinds


def round_seconds(kinds, prefix=""):
    """Time of one round at each kind's fastest call, over kinds starting with ``prefix``."""
    return sum(count * fastest for kind, (count, fastest) in kinds.items()
               if kind.startswith(prefix))


def layer_metrics(setup_stats, round_stats, rounds, overhead_s, untraced_s):
    metrics = {}
    for name in TARGETS:
        if name in SETUP_LAYERS:
            s, per = setup_stats.get(name), 1
        else:
            s, per = round_stats.get(name), rounds
        s = s or {"calls": 0, "self_s": 0.0, "items": 0}
        metrics[f"{name}.calls"] = (s["calls"] / per, "count")
        metrics[f"{name}.self_s"] = (s["self_s"] / per, "s")
    windows = round_stats.get("kernels.accumulate_ngrams", {}).get("items", 0)
    metrics["kernels.accumulate_ngrams.windows"] = (windows / rounds, "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.overhead_share"] = (overhead_s / untraced_s if untraced_s else 0.0, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "query", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit non-negative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One thread, and the kernels the repository measures: the pure-numpy
    # ones. Both must be set before numpy and hdclab are imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["HDCLAB_NO_NUMBA"] = "1"
    kernels = import_hdclab()
    import numpy as np
    from workloads import WORKLOADS, Tally, clock

    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    tally = Tally()
    setup_times = []
    if args.trace:
        with Tracer() as setup_trace:
            t0 = clock()
            workload = cls(args.seed, OUT)
            setup_times.append(clock() - t0)
        round_trace = Tracer()
        rounds = run_rounds(workload, tally, args.seconds, clock, round_trace)
        spans_path = OUT / f"spans-{args.workload}.csv.gz"
        setup_trace.write(spans_path, "setup")
        round_trace.write(spans_path, "rounds", append=True)
    else:
        for _ in range(cls.setups):
            workload = None  # free the previous set-up before building the next
            t0 = clock()
            workload = cls(args.seed, OUT)
            setup_times.append(clock() - t0)
        rounds = run_rounds(workload, tally, args.seconds, clock)

    measured = [m for m, _ in rounds if not m["traced"]]
    traced = [m for m, _ in rounds if m["traced"]]
    detail, checks, digests = workload.finish(tally, [o for _, o in rounds], OUT)
    kinds = fastest_calls(measured)
    for name, (prefix, work) in workload.rates.items():
        seconds = round_seconds(kinds, prefix)
        detail[name] = (work / seconds if seconds else 0.0, "1/s")
    detail["wall_s"] = (median_of(measured, "wall_s"), "s")
    detail["minor_faults"] = (median_of(measured, "minor_faults"), "count")
    detail["fail_rate"] = (tally.fail_rate, "ratio")
    detail["rounds"] = (len(rounds), "count")

    if args.trace:
        untraced_s = round_seconds(kinds)
        overhead_s = round_seconds(fastest_calls(traced)) - untraced_s
        metrics = layer_metrics(layer_stats(setup_trace.spans),
                                layer_stats(round_trace.spans), len(traced),
                                overhead_s, untraced_s)
        metrics["model_io.model_bytes"] = detail.get("model_bytes", (0, "B"))
        metrics["os.minor_faults"] = detail["minor_faults"]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": rss_mb,
                  "round_s": round_seconds(kinds),
                  "main_per_s": detail.get(cls.main, (0.0,))[0],
                  "accuracy": detail.get(cls.accuracy, (0.0,))[0]}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    correct = tally.failed == 0 and all(checks.values())
    record = {"environment": environment(args, kernels, np.__version__),
              "setup_s_each": setup_times, "rounds": [m for m, _ in rounds],
              "checks": checks, "digests": digests,
              "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}}
    for name, (value, unit) in sorted(detail.items()):
        print(f"{name:34s} {value:.6g} {unit}")
    for name, ok in checks.items():
        print(f"check {name:28s} {'ok' if ok else 'FAILED'}")
    for name, digest in digests.items():
        print(f"sha256 {name:27s} {digest}")
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
