"""Tests for trace records coming back through the fleet.

A traced fleet cell's worker sends the cell's records and its tracer
epoch on the result message, and the coordinator rebases an accepted
attempt's records onto the parent timeline with an ``@plan×seed``
track suffix.  A failed attempt sends no result, so it leaves no
records.  These tests pin that under chaos and under a raising check:
valid Chrome-trace JSON whose surviving tracks match a clean run's,
with retried cells never double-counted, failed attempts and
quarantined cells leaving no tracks at all, and every cell's records
placed after its dispatch on the parent clock.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro import par
from repro.obs import RingBufferSink, Tracer, write_chrome_trace
from repro.obs.telemetry import FleetStatus
from repro.par import CellTask, ChaosSpec, FleetPolicy

FORK_AVAILABLE = "fork" in __import__(
    "multiprocessing").get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="fleet executor requires fork")

#: Fast retries so chaos tests don't sleep through real backoff.
FAST = dict(backoff_unit_s=0.002)


def _traced_grid(seeds=range(2), fleet=None, status=None):
    ring = RingBufferSink()
    tracer = Tracer([ring])
    report = par.run_conformance_parallel(
        "dfm", seeds=seeds, workers=2, tracer=tracer,
        fleet=fleet, status=status)
    return report, ring


def _per_cell_counts(ring):
    """Record count per ``@plan×seed`` cell suffix."""
    counts = Counter()
    for rec in ring:
        if "@" in rec.track:
            counts[rec.track.rsplit("@", 1)[1]] += 1
    return counts


def _ts(rec):
    return rec.start_ns if rec.kind == "span" else rec.ts_ns


class TestStreamingGrid:
    def test_cells_stream_batches_while_running(self):
        # every cell hands its records back with its result, and the
        # count is exactly what reached the parent's per-cell rows
        report, ring = _traced_grid()
        assert report.all_conform
        stats = report.fleet_stats
        assert stats["trace_records"] > 0
        counts = _per_cell_counts(ring)
        assert len(counts) == len(report.cases)
        assert sum(counts.values()) == stats["trace_records"]

    def test_streamed_tracks_keep_grid_coordinates(self):
        report, ring = _traced_grid(seeds=[0])
        sc = par.get_scenario("dfm")
        tracks = {r.track for r in ring}
        for plan in sc.plans:
            assert any(t.endswith(f"@{plan}×0") for t in tracks), plan
        for rec in ring:
            assert _ts(rec) >= 0

    def test_records_start_after_their_dispatch(self):
        # the worker's tracer starts after the coordinator dispatched
        # the cell, so a correct epoch offset puts every rebased
        # record after that cell's fleet.dispatch event
        report, ring = _traced_grid()
        dispatched = {f"{r.args['plan']}×{r.args['seed']}": r.ts_ns
                      for r in ring if r.name == "fleet.dispatch"}
        first = {}
        for rec in ring:
            if "@" in rec.track:
                cell, ts = rec.track.rsplit("@", 1)[1], _ts(rec)
                first[cell] = min(first.get(cell, ts), ts)
        assert set(first) == set(dispatched)
        assert len(first) == len(report.cases)
        for cell, ts in first.items():
            assert ts >= dispatched[cell], cell

    def test_untraced_grid_ships_nothing(self):
        report = par.run_conformance_parallel(
            "dfm", seeds=range(2), workers=2,
            fleet=FleetPolicy(retries=1, **FAST))
        assert report.fleet_stats["trace_records"] == 0

    def test_fleet_status_tracks_the_stream(self):
        status = FleetStatus()
        report, _ = _traced_grid(status=status)
        stats = report.fleet_stats
        assert status.done == len(report.cases)
        assert status.conforming == len(report.cases)
        assert status.trace_records == stats["trace_records"] > 0
        assert status.finished
        assert status.busy == 0


def _recovering_chaos(seeds=range(2)):
    """A chaos spec that kills at least one first attempt and lets
    every killed cell recover on its retries — deterministic fuel for
    the no-double-count property."""
    sc = par.get_scenario("dfm")
    tasks = [CellTask("dfm", plan, seed, sc.max_steps)
             for plan in sc.plans for seed in seeds]

    def recovers(spec):
        killed = [t for t in tasks if spec.kills(t, 1)]
        return killed and not any(spec.kills(t, a)
                                  for t in killed for a in (2, 3, 4))

    return next(spec for spec in
                (ChaosSpec(kill_worker_p=0.4, seed=s)
                 for s in range(100)) if recovers(spec))


class TestChaosStreaming:
    def test_retried_cells_never_double_count(self):
        clean_report, clean_ring = _traced_grid()
        chaos = _recovering_chaos()
        report, ring = _traced_grid(
            fleet=FleetPolicy(retries=3, chaos=chaos, **FAST))
        assert report.all_conform and not report.degraded
        assert report.digest() == clean_report.digest()
        retried = [c for c in report.cases if c.attempts > 1]
        assert retried, "chaos spec should have killed a cell"
        # a retried cell's records equal the clean run's — the failed
        # attempt contributed nothing
        assert _per_cell_counts(ring) == _per_cell_counts(clean_ring)
        assert report.fleet_stats["trace_records"] == \
            clean_report.fleet_stats["trace_records"]

    def test_chaos_trace_exports_valid_chrome_json(self, tmp_path):
        chaos = _recovering_chaos()
        report, ring = _traced_grid(
            fleet=FleetPolicy(retries=3, chaos=chaos, **FAST))
        path = tmp_path / "fleet.perfetto.json"
        n = write_chrome_trace(list(ring), str(path),
                               process_name="repro-grid:dfm")
        doc = json.loads(path.read_text(encoding="utf-8"))
        events = doc["traceEvents"]
        assert len(events) == n
        named = {e["args"]["name"] for e in events
                 if e.get("name") == "thread_name"}
        # one named Perfetto row per surviving cell
        for case in report.cases:
            if not case.infra_failure:
                suffix = f"@{case.plan}×{case.seed}"
                assert any(t.endswith(suffix) for t in named), suffix
        durations = [e["dur"] for e in events if e.get("ph") == "X"]
        assert all(d >= 0 for d in durations)

    def test_quarantined_cells_leave_no_tracks(self, tmp_path):
        # p=1.0: every attempt dies, every cell quarantines — no
        # cell's records reach the parent
        policy = FleetPolicy(
            retries=1, quarantine_dir=str(tmp_path / "q"),
            chaos=ChaosSpec(kill_worker_p=1.0, seed=3), **FAST)
        report, ring = _traced_grid(seeds=[0], fleet=policy)
        assert report.degraded
        assert all(c.outcome == "quarantined" for c in report.cases)
        assert not any("@" in r.track for r in ring)
        assert report.fleet_stats["trace_records"] == 0
        # the export is still valid (possibly near-empty) JSON
        path = tmp_path / "empty.perfetto.json"
        write_chrome_trace(list(ring), str(path))
        json.loads(path.read_text(encoding="utf-8"))


class _RaisingSpec:
    """A spec whose check raises once the cell's run is over."""

    def is_smooth_solution(self, trace, depth):
        raise RuntimeError("check exploded after the run")


def _build_raising_check() -> par.Scenario:
    return dataclasses.replace(par.get_scenario("dfm"),
                               name="fleet-raising-check",
                               spec=_RaisingSpec())


class TestFailedAttempts:
    def test_attempt_that_raises_leaves_no_records(self):
        # each attempt runs its network, traced, and then raises in
        # the conformance check: its records must not reach the parent
        name = "fleet-raising-check"
        par.register_scenario(name, _build_raising_check)
        try:
            ring = RingBufferSink()
            report = par.run_conformance_parallel(
                name, seeds=[0], workers=2, tracer=Tracer([ring]),
                fleet=FleetPolicy(retries=0))
        finally:
            par._SCENARIOS.pop(name, None)
        stats = report.fleet_stats
        assert stats["errors"] == len(report.cases) > 1
        assert all(c.outcome == "crashed" and "failed: error" in c.detail
                   for c in report.cases)
        assert stats["trace_records"] == 0
        assert not any("@" in r.track for r in ring)
        assert any(r.name == "fleet.crash" for r in ring)
