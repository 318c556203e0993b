"""Tests for repro.obs.telemetry — the live fleet scoreboard and the
grid metrics summary.
"""

import pytest

from repro.obs.telemetry import FleetStatus, grid_metrics_summary


class TestFleetStatus:
    def test_lifecycle_counts(self):
        s = FleetStatus(total=4, workers=2, scenario="dfm")
        s.on_dispatch()
        s.on_complete("conforms", 0.1)
        s.on_settled()
        s.on_dispatch()
        s.on_attempt_failed("timeout")
        s.on_retry()
        s.on_settled()
        s.on_complete("violates-safety", 0.2)
        s.on_complete("conforms", 0.0, cached=True)
        snap = s.snapshot()
        assert snap["done"] == 3
        assert snap["conforming"] == 2   # cache hits conform too
        assert snap["genuine_failures"] == 1
        assert snap["cached"] == 1
        assert snap["timeouts"] == 1
        assert snap["retries"] == 1
        assert snap["busy"] == 0

    def test_infra_outcomes_are_not_genuine_failures(self):
        s = FleetStatus(total=3)
        for outcome in ("timeout", "crashed", "quarantined"):
            s.on_complete(outcome, 0.1)
        snap = s.snapshot()
        assert snap["genuine_failures"] == 0
        assert snap["quarantined"] == 1

    def test_cache_hit_rate(self):
        s = FleetStatus()
        assert s.cache_hit_rate() is None
        s.cache_misses = 3
        s.on_complete("conforms", 0.0, cached=True)
        assert s.cache_hit_rate() == pytest.approx(0.25)

    def test_eta_none_until_real_execution(self):
        s = FleetStatus(total=4)
        assert s.eta_s() is None
        s.on_complete("conforms", 0.0, cached=True)
        assert s.eta_s() is None          # cache hits prove nothing
        s.on_complete("conforms", 0.05)
        eta = s.eta_s()
        assert eta is not None and eta >= 0
        s.on_complete("conforms", 0.05)
        s.on_complete("conforms", 0.05)
        assert s.eta_s() == 0.0

    def test_stream_accounting(self):
        s = FleetStatus()
        s.on_records(100)
        s.on_records(28)
        assert s.trace_records == 128
        assert s.snapshot()["trace_records"] == 128


class TestGridMetricsSummary:
    def test_folds_cells_and_fleet_stats(self):
        class Case:
            def __init__(self, outcome, metrics=None, cached=False):
                self.outcome = outcome
                self.metrics = metrics or {}
                self.cached = cached

        class Report:
            cases = [
                Case("conforms", {"agent.steps": 3}),
                Case("conforms", {"agent.steps": 4}, cached=True),
                Case("violates-safety"),
            ]
            fleet_stats = {"retries": 2, "trace_records": 50,
                           "metrics": {"fleet.attempts": 3}}

        summary = grid_metrics_summary(Report())
        assert summary["grid.cells"] == 3
        assert summary["grid.outcome.conforms"] == 2
        assert summary["grid.outcome.violates-safety"] == 1
        assert summary["grid.cache_hits"] == 1
        assert summary["agent.steps"] == 7      # per-cell totals add
        assert summary["fleet.attempts"] == 3
        assert summary["fleet.stats.retries"] == 2
        assert summary["fleet.stats.trace_records"] == 50
