"""Fleet telemetry: the grid metrics summary and the live scoreboard.

A traced fleet cell runs under its own in-worker tracer and hands its
records back with its result; the coordinator folds an accepted
attempt's records onto the parent timeline
(:func:`~repro.par.fleet.run_fleet`).  The fleet is itself a network
of processes (Abramsky's generalized Kahn principle, PAPERS.md), so a
cell's records are part of its result, fixed by its plan and seed
like the rest of it.

Two pieces live here:

* :func:`grid_metrics_summary` — one registry for a grid run's
  per-cell metrics, the fleet's supervision metrics and counts, and
  the ``grid.*`` outcome counters: what the expositions and the HTML
  report write.
* :class:`FleetStatus` — the live scoreboard behind ``python -m repro
  top``: cells done / retries / quarantines / cache hit-rate / ETA,
  updated in place by the coordinator and snapshotted lock-free by the
  renderer (single attribute reads are atomic under the GIL; the
  numbers are monotone counters, so a torn read is at worst one tick
  stale).

Tracing off costs nothing here: an untraced grid's cells carry no
records and pay nothing beyond the existing ``tracer.enabled`` check.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry


def grid_metrics_summary(report: Any) -> Dict[str, Any]:
    """Fold one grid run's metrics into a single summary dict.

    Per-cell summaries (present on traced cells), the fleet's own
    supervision metrics and a few ``grid.*`` outcome counters all land
    in one registry, so the exposition's totals agree with the cells
    by construction — the consistency the Prometheus artifact is
    checked against.
    """
    registry = MetricsRegistry()
    cases = list(getattr(report, "cases", []))
    registry.counter("grid.cells").inc(len(cases))
    for case in cases:
        registry.counter(f"grid.outcome.{case.outcome}").inc()
        if getattr(case, "cached", False):
            registry.counter("grid.cache_hits").inc()
        metrics = getattr(case, "metrics", None)
        if metrics:
            registry.merge_summary(metrics)
    stats = getattr(report, "fleet_stats", None) or {}
    if stats.get("metrics"):
        registry.merge_summary(stats["metrics"])
    for key in ("retries", "timeouts", "crashes", "errors", "respawns",
                "quarantined", "trace_records"):
        if stats.get(key):
            registry.counter(f"fleet.stats.{key}").inc(
                int(stats[key]))
    return registry.summary()


class FleetStatus:
    """Mutable live scoreboard for one grid run.

    The coordinator calls the ``on_*`` hooks from its event loop; a
    display thread reads :meth:`snapshot` concurrently.  All updates
    are single attribute writes under the GIL, so readers see a
    consistent-enough view without locks.
    """

    def __init__(self, total: int = 0, workers: int = 0,
                 scenario: str = ""):
        self.scenario = scenario
        self.total = total
        self.workers = workers
        self.busy = 0
        self.done = 0
        self.conforming = 0
        self.genuine_failures = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.quarantined = 0
        self.cached = 0
        self.cache_misses = 0
        self.trace_records = 0
        self.started = time.monotonic()
        self.finished = False
        self._recent: deque = deque(maxlen=32)

    # -- coordinator hooks ----------------------------------------------

    def on_dispatch(self) -> None:
        self.busy += 1

    def on_settled(self) -> None:
        self.busy = max(0, self.busy - 1)

    def on_complete(self, outcome: str, elapsed_s: float,
                    cached: bool = False) -> None:
        self.done += 1
        if cached:
            self.cached += 1
        if outcome == "conforms":
            self.conforming += 1
        elif outcome == "quarantined":
            self.quarantined += 1
        elif outcome not in ("timeout", "crashed"):
            self.genuine_failures += 1
        if not cached and elapsed_s > 0:
            self._recent.append(elapsed_s)

    def on_attempt_failed(self, kind: str) -> None:
        if kind == "timeout":
            self.timeouts += 1
        else:
            self.crashes += 1

    def on_retry(self) -> None:
        self.retries += 1

    def on_records(self, n: int) -> None:
        self.trace_records += n

    # -- derived ---------------------------------------------------------

    def elapsed_s(self) -> float:
        return time.monotonic() - self.started

    def cache_hit_rate(self) -> Optional[float]:
        consulted = self.cached + self.cache_misses
        if not consulted:
            return None
        return self.cached / consulted

    def eta_s(self) -> Optional[float]:
        """Remaining wall-clock estimate from observed throughput."""
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        executed = self.done - self.cached
        if executed <= 0 or not self._recent:
            return None
        elapsed = self.elapsed_s()
        if elapsed <= 0:
            return None
        return remaining * (elapsed / executed)

    def snapshot(self) -> Dict[str, Any]:
        eta = self.eta_s()
        hit_rate = self.cache_hit_rate()
        return {
            "scenario": self.scenario,
            "total": self.total,
            "done": self.done,
            "busy": self.busy,
            "workers": self.workers,
            "conforming": self.conforming,
            "genuine_failures": self.genuine_failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "quarantined": self.quarantined,
            "cached": self.cached,
            "cache_hit_rate": hit_rate,
            "trace_records": self.trace_records,
            "elapsed_s": round(self.elapsed_s(), 3),
            "eta_s": None if eta is None else round(eta, 3),
            "finished": self.finished,
        }
