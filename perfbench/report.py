"""Steadiness report: run the benchmark over ten seeds per workload
and show how much each end-to-end metric moves.

    python3 perfbench/run.py --report

For each workload and metric it prints every run's value, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` beside a third of the metric's bound in
``BENCHMARK.json``.  Then, per workload, the pooled latency histogram
with the median p50 and p90 marked, and a note when one of them has few
samples near it.  The verdict counts spreads and failed operations; a
run's p50 and p90 are means of per-round percentiles (``run.py``), not
percentiles of the pooled latencies, so the note does not count.  The
whole report is also written to ``perfbench/results/report.json``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys

import workloads as wl

RUN = os.path.join(wl.HERE, "run.py")
#: A percentile is "in a gap" when fewer than this share of all samples
#: lie within ±5% of it.
GAP_SHARE = 0.01
BIN_RATIO = 1.25
#: Runs (seeds 1..RUNS) per workload.
RUNS = 10


def _bounds() -> dict:
    return {m["name"]: m["bound"]
            for m in wl.benchmark_spec()["end_to_end"]}


def _run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, RUN, "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          cwd=wl.ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(wl.HERE, "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)
    return {"seed": seed, "result": result,
            "latencies_ms": detail["latencies_ms"],
            "provenance": detail["provenance"]}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else math.inf}


def histogram(latencies: list, marks: dict) -> list[str]:
    lo, hi = min(latencies), max(latencies)
    edges = [lo]
    while edges[-1] < hi:
        edges.append(edges[-1] * BIN_RATIO)
    counts = [0] * (len(edges))
    for x in latencies:
        counts[min(len(edges) - 1,
                   int(math.log(x / lo) / math.log(BIN_RATIO)))] += 1
    width = max(counts)
    lines = []
    for i, count in enumerate(counts):
        left = edges[i]
        right = left * BIN_RATIO
        tags = [name for name, value in marks.items()
                if left <= value < right]
        bar = "#" * max(1 if count else 0, round(40 * count / width))
        lines.append(f"  {left:9.2f}-{right:9.2f} ms {count:6d} {bar}"
                     + (f"  <- {', '.join(tags)}" if tags else ""))
    return lines


def in_gap(latencies: list, value: float) -> bool:
    near = sum(1 for x in latencies if abs(x - value) <= 0.05 * value)
    return near < GAP_SHARE * len(latencies)


def main(args) -> int:
    bounds = _bounds()
    report = {}
    ok = True
    for workload in wl.WORKLOADS:
        runs = [_run(workload, seed, args.seconds)
                for seed in range(1, RUNS + 1)]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"\n== {workload}: {RUNS} runs of {args.seconds} s, "
              f"{failed} failed of {attempted} attempted, samples per run "
              f"{runs[0]['provenance']['samples']}")
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            target = bounds[name] / 3
            steady = stats["spread"] < target
            ok &= steady
            metrics[name] = dict(stats, values=values, bound=bounds[name])
            print(f"  {name:16s} median {stats['median']:10.4f}  q1 "
                  f"{stats['q1']:10.4f}  q3 {stats['q3']:10.4f}  spread "
                  f"{stats['spread']:6.1%} (bound/3 {target:.1%}"
                  f"{'' if steady else ' !'})")
            print("    runs: " + " ".join(f"{v:.4f}" for v in values))
        pooled = [x for r in runs for x in r["latencies_ms"]]
        marks = {"p50": metrics["request_p50_ms"]["median"],
                 "p90": metrics["request_p90_ms"]["median"]}
        print(f"  latency histogram ({len(pooled)} samples):")
        for line in histogram(pooled, marks):
            print(line)
        gaps = [name for name, value in marks.items()
                if in_gap(pooled, value)]
        ok &= failed == 0
        if gaps:
            print(f"  note: {', '.join(gaps)} has few pooled samples near it")
        report[workload] = {"metrics": metrics, "gaps": gaps,
                            "failed": failed, "attempted": attempted,
                            "provenance": runs[0]["provenance"]}
    os.makedirs(os.path.join(wl.HERE, "results"), exist_ok=True)
    with open(os.path.join(wl.HERE, "results", "report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady: see the lines marked !")
    return 0 if ok else 1
