"""[EXT] Persistent result cache: warm grids and cached explorations.

The PR-5 perf claim, guarded (like the parallel-grid one) by
bit-for-bit equality so the speedup can never be bought with a
behaviour change:

* **Warm conformance grid** — a dfm grid whose cells are all in the
  persistent store must be ≥5× faster than the cold run that computed
  them, with identical per-cell schedule digests and an identical
  report digest.  Hits are JSON reads; the cells never execute.
* **Cached solver exploration** — a repeated ``solve`` of the same
  description/budgets is served from the store, digest-identical to
  the computed result.
* **Checkpoint resume overhead** — resuming a truncated exploration
  re-derives the carried values by witness replay; the rows record
  what that portability costs relative to the straight run.
"""

import os
import time

from conftest import banner, row

from repro.cache.store import CacheStore
from repro.channels.channel import Channel
from repro.core.description import combine
from repro.core.solver import SmoothSolutionSolver
from repro.par import run_conformance_parallel
from repro.processes.merge import dfm_descriptions

GRID_SEEDS = range(int(os.environ.get("CACHE_GRID_SEEDS", "4")))

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def _dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def _cell_digests(report):
    return [
        (c.plan, c.seed, c.outcome,
         c.schedule.digest() if c.schedule is not None else None)
        for c in report.cases
    ]


def test_warm_grid_speedup(tmp_path):
    """Cold dfm grid vs the warm rerun served from the store: same
    per-cell digests, same report digest, ≥5× faster."""

    def grid(store):
        started = time.perf_counter()
        report = run_conformance_parallel(
            "dfm", seeds=GRID_SEEDS, workers=1, cache=store)
        return report, time.perf_counter() - started

    cold_store = CacheStore(tmp_path)
    cold, cold_s = grid(cold_store)
    assert cold.all_conform, cold.violations
    assert cold_store.counters()["write"] == len(cold.cases)

    best_warm_s = float("inf")
    warm = None
    for _ in range(3):
        warm_store = CacheStore(tmp_path)
        warm, warm_s = grid(warm_store)
        best_warm_s = min(best_warm_s, warm_s)
        assert warm_store.counters()["hit"] == len(warm.cases)

    assert all(c.cached for c in warm.cases)
    assert _cell_digests(warm) == _cell_digests(cold)
    assert warm.digest() == cold.digest()

    speedup = cold_s / best_warm_s if best_warm_s > 0 else 0.0
    banner("EXT-CACHE", "warm dfm grid served from the store")
    row("cells", len(cold.cases))
    row("cold grid (ms)", round(cold_s * 1e3, 1))
    row("warm grid (ms, best-of-3)", round(best_warm_s * 1e3, 1))
    row("speedup", round(speedup, 2))
    row("per-cell digests identical", True)
    row("report digest identical", True)
    assert speedup >= 5.0, (
        f"warm grid only {speedup:.2f}x faster than cold "
        f"({cold_s * 1e3:.0f}ms -> {best_warm_s * 1e3:.0f}ms)")


def test_cached_solver_exploration(tmp_path, benchmark):
    """Repeated solve of the same exploration: a store hit,
    digest-identical to the computed result."""
    depth = int(os.environ.get("CACHE_SOLVER_DEPTH", "5"))
    cold = SmoothSolutionSolver.over_channels(
        _dfm(), [B, C, D], cache=CacheStore(tmp_path)).explore(depth)

    warm_solver = SmoothSolutionSolver.over_channels(
        _dfm(), [B, C, D], cache=CacheStore(tmp_path))
    warm = benchmark(lambda: warm_solver.explore(depth))
    assert warm.digest() == cold.digest()

    banner("EXT-CACHE", "solver exploration served from the store")
    row("depth", depth)
    row("nodes explored (cold)", cold.nodes_explored)
    row("digest identical", True)


def test_checkpoint_resume_overhead():
    """Truncate at ~1/3 of the nodes, resume, compare total cost
    against the straight run — the price of pure-JSON checkpoints."""
    depth = int(os.environ.get("CACHE_SOLVER_DEPTH", "5"))

    def solver():
        return SmoothSolutionSolver.over_channels(_dfm(), [B, C, D])

    started = time.perf_counter()
    straight = solver().explore(depth)
    straight_s = time.perf_counter() - started

    budget = max(1, straight.nodes_explored // 3)
    started = time.perf_counter()
    partial = solver().explore(depth, max_nodes=budget)
    ckpt = partial.checkpoint()
    resumed = solver().explore(depth, resume_from=ckpt)
    split_s = time.perf_counter() - started

    assert partial.truncated
    assert resumed.digest() == straight.digest()

    banner("EXT-CACHE", "truncate→checkpoint→resume vs straight run")
    row("nodes (straight)", straight.nodes_explored)
    row("truncation budget", budget)
    row("checkpoint traces carried", len(ckpt))
    row("straight run (ms)", round(straight_s * 1e3, 1))
    row("truncate+resume total (ms)", round(split_s * 1e3, 1))
    row("overhead factor",
        round(split_s / straight_s if straight_s > 0 else 0.0, 2))
    row("digest identical", True)
