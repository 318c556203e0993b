"""[EXT] Supervision overhead of the fault-tolerant grid fleet.

The fleet coordinator (``repro.par.fleet``) replaces the blind
``Pool.imap`` with per-cell dispatch over monitored workers: deadlines,
retries with seeded-jitter backoff, respawn-on-crash, quarantine.  All
of that machinery must be close to free on the happy path — a clean
grid through the fleet should cost within 10% of a bare pool farming
the same cells, with bit-for-bit identical outcomes and digests.

The bare pool here is the pre-fleet executor reproduced as a reference
(``Pool.imap`` over :func:`repro.par.run_cell`): no deadlines, no
supervision, no second chances.  The overhead assertion only arms on
machines with ≥4 CPUs (the CI runner); smaller boxes still record the
rows.  Each side is timed ``ROUNDS`` times, interleaved, and the
overhead compares the two minimums, so one slow sample on a busy host
does not decide the row.  A second experiment prices recovery itself:
a chaos grid (``kill-worker``) that must respawn and retry every cell
it loses.
"""

import multiprocessing
import os
import time

import pytest
from conftest import banner, row

from repro.par import (
    CellTask,
    FleetPolicy,
    get_scenario,
    run_cell,
    run_conformance_parallel,
)
from repro.par.fleet import ChaosSpec

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
CPUS = os.cpu_count() or 1
FLEET_SEEDS = range(int(os.environ.get("FLEET_GRID_SEEDS", "4")))
#: timed grids per side in the overhead comparison
ROUNDS = 3

pytestmark = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="fleet executor requires fork")


def _fingerprint(cases):
    return [
        (c.plan, c.seed, c.outcome, c.result.digest(),
         c.schedule.digest() if c.schedule is not None else None)
        for c in cases
    ]


def _grid_tasks(scenario, seeds):
    built = get_scenario(scenario)
    return [
        CellTask(scenario=scenario, plan=plan, seed=seed,
                 max_steps=built.max_steps)
        for plan in built.plans for seed in seeds
    ]


def _bare_pool(tasks, workers):
    """The pre-fleet executor: blind ``Pool.imap``, no supervision."""
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        return list(pool.imap(run_cell, tasks))


def test_fleet_supervision_overhead():
    """Clean dfm grid, bare pool vs supervised fleet at the same
    worker count: identical fingerprints, <10% overhead (asserted on
    ≥4-CPU machines only).  The sides alternate, ``ROUNDS`` grids
    each, and each side is read as its fastest grid."""
    tasks = _grid_tasks("dfm", FLEET_SEEDS)
    workers = min(4, max(2, CPUS))

    _bare_pool(tasks[:1], workers)  # warm the fork path
    bare_s = fleet_s = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        bare_cases = _bare_pool(tasks, workers)
        bare_s = min(bare_s, time.perf_counter() - started)

        started = time.perf_counter()
        fleet_report = run_conformance_parallel(
            "dfm", seeds=FLEET_SEEDS, workers=workers)
        fleet_s = min(fleet_s, time.perf_counter() - started)

    assert _fingerprint(bare_cases) == _fingerprint(fleet_report.cases)
    assert fleet_report.all_conform, fleet_report.violations
    assert not fleet_report.degraded

    overhead = (fleet_s / bare_s - 1.0) if bare_s > 0 else 0.0
    banner("EXT-FLEET", "supervised fleet vs bare pool (clean grid)")
    row("cells", len(tasks))
    row("workers", workers)
    row("cpus", CPUS)
    row("bare pool wall-clock (ms)", round(bare_s * 1e3, 1))
    row("fleet wall-clock (ms)", round(fleet_s * 1e3, 1))
    row("supervision overhead (%)", round(overhead * 100, 1))
    row("digests identical", True)
    if CPUS >= 4:
        assert overhead < 0.10, (
            f"fleet supervision costs {overhead * 100:.1f}% over the "
            f"bare pool ({bare_s * 1e3:.0f}ms -> {fleet_s * 1e3:.0f}ms)")


def test_fleet_chaos_recovery_cost(benchmark):
    """A chaos grid that loses workers mid-cell and must respawn and
    retry: all cells still complete and conform — the price of the
    second chances is the recorded wall-clock delta."""
    workers = min(4, max(2, CPUS))
    policy = FleetPolicy(
        retries=4, backoff_unit_s=0.002,
        chaos=ChaosSpec(kill_worker_p=0.3, seed=2))

    clean = run_conformance_parallel(
        "dfm", seeds=FLEET_SEEDS, workers=workers)
    report = benchmark(lambda: run_conformance_parallel(
        "dfm", seeds=FLEET_SEEDS, workers=workers, fleet=policy))

    assert _fingerprint(report.cases) == _fingerprint(clean.cases)
    assert report.all_conform, report.violations
    stats = report.fleet_stats
    assert stats["crashes"] > 0  # the chaos actually bit
    assert stats["respawns"] > 0

    banner("EXT-FLEET", "chaos grid recovery (kill-worker:0.3)")
    row("cells", len(report.cases))
    row("workers", workers)
    row("chaos kills", stats["crashes"])
    row("respawns", stats["respawns"])
    row("retries", stats["retries"])
    row("all cells recovered", report.all_conform)
    row("digests identical to clean run", True)
