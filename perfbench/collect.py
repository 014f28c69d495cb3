"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads train query sweep --seeds 1-10 \\
        [--trace 0] [--out summary.json] [--against perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one process at a time,
from the repository root. For every metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json. ``--against``
compares the medians and the per-seed output digests with an earlier
summary, such as the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-trace{trace}.json").read_text())
    return {"seed": seed, "result": result, "detail": record["detail"],
            "digests": record["digests"], "checks": record["checks"],
            "environment": record["environment"]}


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_by(metric: dict, old: float, new: float) -> float:
    """Relative change in the metric's bad direction; positive means worse."""
    if not old:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["train", "query", "sweep"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    against = json.loads(args.against.read_text()) if args.against else None
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    problems = []
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            run = run_one(workload, seed, seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} seed {seed}: outputs not correct")
            runs.append(run)
        metrics = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in declared}
        detail = {name: statistics.median(r["detail"][name]["value"] for r in runs)
                  for name in runs[0]["detail"]}
        summary["workloads"][workload] = {
            "metrics": metrics, "detail_medians": detail,
            "detail_runs": {str(r["seed"]): {k: v["value"] for k, v in r["detail"].items()}
                            for r in runs},
            "digests": {str(r["seed"]): r["digests"] for r in runs},
            "environment": runs[0]["environment"]}

        print(f"\n{workload}: {len(runs)} runs of {seconds} s")
        old = against["workloads"].get(workload) if against else None
        for name, s in metrics.items():
            bound = declared[name].get("bound")
            line = (f"  {name:44s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                    f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")
            if bound is not None:
                line += f" (bound {bound})"
                if name != "setup_s" and s["spread"] > bound:
                    problems.append(f"{workload} {name}: spread {s['spread']:.3f} > {bound}")
            if old and name in old["metrics"]:
                worse = worse_by(declared[name], old["metrics"][name]["median"], s["median"])
                line += f" vs earlier {worse:+.3f} worse"
                if bound is not None and worse > bound:
                    problems.append(f"{workload} {name}: median {worse:+.3f} worse > {bound}")
            print(line)
        if old:
            for seed, digests in summary["workloads"][workload]["digests"].items():
                if seed in old["digests"] and old["digests"][seed] != digests:
                    problems.append(f"{workload} seed {seed}: output digests differ")

    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
