"""[EXT] Parallel conformance grid and the memoized §3.3 solver.

Two perf claims from the same PR, both guarded by bit-for-bit
equivalence assertions so a speedup can never be bought with a
behaviour change:

* **Grid parallelism** — the conformance cells are independent (fresh
  plan instance + fresh seeded oracle per cell; the generalized Kahn
  principle), so farming them over worker processes must keep every
  outcome and digest identical while dividing wall-clock.  The ≥2×
  speedup assertion only arms on machines with ≥4 CPUs (the CI
  runner); on smaller boxes the rows are still recorded.
* **Solver memoization** — per node the solver now evaluates ``g(u)``
  and the limit condition exactly once and carries ``f(v)`` from the
  parent's admissibility scan.  Timed against a naive reference
  explorer replicating the old per-node recomputation, with digest
  equality asserted at every depth, once on the auto-selected
  (compiled) engine and once pinned to ``compiled=False``.
"""

import multiprocessing
import os
import time

import pytest
from conftest import banner, row

from repro.channels.channel import Channel
from repro.core.description import combine
from repro.core.solver import SmoothSolutionSolver, SolverResult
from repro.par import get_scenario, run_conformance_parallel
from repro.processes.merge import dfm_descriptions
from repro.traces.trace import Trace

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
CPUS = os.cpu_count() or 1
GRID_SEEDS = range(int(os.environ.get("PAR_GRID_SEEDS", "4")))


def _fingerprint(report):
    return [
        (c.plan, c.seed, c.outcome, c.result.digest(),
         c.schedule.digest() if c.schedule is not None else None)
        for c in report.cases
    ]


@pytest.mark.skipif(not FORK_AVAILABLE,
                    reason="parallel executor requires fork")
def test_parallel_grid_speedup():
    """dfm grid, workers=1 vs workers=4: identical fingerprints,
    divided wall-clock (speedup asserted only on ≥4-CPU machines)."""

    def grid(workers):
        started = time.perf_counter()
        report = run_conformance_parallel(
            "dfm", seeds=GRID_SEEDS, workers=workers)
        return report, time.perf_counter() - started

    run_conformance_parallel("dfm", seeds=[0], workers=2)  # warm pool
    serial, serial_s = grid(1)
    parallel, parallel_s = grid(4)
    assert _fingerprint(serial) == _fingerprint(parallel)
    assert serial.all_conform, serial.violations

    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    banner("EXT-PAR", "process-parallel dfm conformance grid")
    row("cells", len(serial.cases))
    row("cpus", CPUS)
    row("serial wall-clock (ms)", round(serial_s * 1e3, 1))
    row("parallel wall-clock (ms, workers=4)",
        round(parallel_s * 1e3, 1))
    row("speedup", round(speedup, 2))
    row("digests identical", True)
    if CPUS >= 4:
        assert speedup >= 2.0, (
            f"workers=4 grid only {speedup:.2f}x faster on a "
            f"{CPUS}-cpu machine ({serial_s * 1e3:.0f}ms -> "
            f"{parallel_s * 1e3:.0f}ms)")


@pytest.mark.skipif(not FORK_AVAILABLE,
                    reason="parallel executor requires fork")
def test_parallel_abp_grid_equivalence(benchmark):
    """The alternating-bit grid through the parallel executor: timed,
    and fingerprint-identical to the serial path."""
    serial = run_conformance_parallel(
        "alternating_bit", seeds=range(2), workers=1)
    parallel = benchmark(
        lambda: run_conformance_parallel(
            "alternating_bit", seeds=range(2), workers=4))
    assert _fingerprint(serial) == _fingerprint(parallel)
    banner("EXT-PAR", "parallel ABP grid equivalence")
    row("cells", len(parallel.cases))
    row("outcomes", parallel.outcomes())
    row("digests identical", True)


# -- solver memoization ------------------------------------------------------

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def _dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def _naive_explore(solver, max_depth):
    """The pre-memoization algorithm: limit check and child expansion
    each re-evaluate the description sides per node, and the frontier
    probe at the bound runs the full candidate scan again."""
    desc = solver.description
    result = SolverResult(depth=max_depth)
    level = [Trace.empty()]
    explored = 0
    for depth in range(max_depth + 1):
        next_level = []
        for u in level:
            explored += 1
            limit = desc.limit_holds(u, solver.limit_depth)
            kids = (list(solver.children(u))
                    if depth < max_depth else None)
            if limit:
                result.finite_solutions.append(u)
            if kids is None:
                if any(True for _ in solver.children(u)):
                    result.frontier.append(u)
                elif not limit:
                    result.dead_ends.append(u)
                continue
            if not kids and not limit:
                result.dead_ends.append(u)
            next_level.extend(kids)
        level = next_level
        if not level:
            break
    result.nodes_explored = explored
    return result


def test_solver_memoization_speedup(benchmark):
    """Memoized explore vs the naive reference at the same depth:
    digest-identical, and strictly fewer side evaluations buying a
    measurable speedup.

    ``over_channels`` auto-selects the compiled engine, so the tracked
    ``speedup`` row measures memoization *and* compilation.  The
    ``compiled=False`` rows time the same memoized walk on the
    reference engine — the naive walk's own representation — and so
    measure memoization alone."""
    depth = int(os.environ.get("SOLVER_MEMO_DEPTH", "6"))
    solver = SmoothSolutionSolver.over_channels(_dfm(), [B, C, D])
    reference = SmoothSolutionSolver.over_channels(
        _dfm(), [B, C, D], compiled=False)

    for d in range(depth + 1):
        naive = _naive_explore(solver, d).digest()
        assert solver.explore(d).digest() == naive, f"depth {d}"
        assert reference.explore(d).digest() == naive, f"depth {d}"

    def best_of(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    naive_s = best_of(lambda: _naive_explore(solver, depth))
    memo_s = best_of(lambda: solver.explore(depth))
    memo_reference_s = best_of(lambda: reference.explore(depth))
    result = benchmark(lambda: solver.explore(depth))

    speedup = naive_s / memo_s if memo_s > 0 else 0.0
    memo_only = (naive_s / memo_reference_s
                 if memo_reference_s > 0 else 0.0)
    banner("S33-MEMO", "memoized §3.3 exploration vs naive reference "
           "(speedup: auto-selected compiled engine; compiled=False "
           "rows: memoization alone)")
    row("depth", depth)
    row("nodes explored", result.nodes_explored)
    row("naive explore (ms, best-of-3)", round(naive_s * 1e3, 1))
    row("memoized explore (ms, best-of-3)", round(memo_s * 1e3, 1))
    row("speedup", round(speedup, 2))
    row("memoized, compiled=False (ms, best-of-3)",
        round(memo_reference_s * 1e3, 1))
    row("speedup, compiled=False", round(memo_only, 2))
    row("digests identical", True)
    assert speedup > 1.0, (
        f"memoized explore not faster than the naive reference "
        f"({naive_s * 1e3:.1f}ms -> {memo_s * 1e3:.1f}ms)")
    assert memo_only > 1.0, (
        f"memoized reference-engine explore not faster than the "
        f"naive reference ({naive_s * 1e3:.1f}ms -> "
        f"{memo_reference_s * 1e3:.1f}ms)")
