"""Live fleet telemetry: streaming trace batches and grid status.

PR 6's fleet already multiplexes worker pipes; until now those pipes
carried exactly one telemetry payload per cell — the full trace buffer
riding on the final ``ok`` message.  This module makes the telemetry
*incremental*: workers ship bounded batches of tracer records and
metric deltas while a cell is still running, and the coordinator folds
them into its own timeline and registry as they arrive.  The fleet is
itself a network of processes (Abramsky's generalized Kahn principle,
PAPERS.md) and this is its observable output stream.

Three pieces:

* :class:`StreamingSink` — a tracer sink that buffers records and
  ships them in bounded, sequence-numbered batches through a caller
  callback (in the fleet worker: a pipe send).  Shipping happens on
  the worker's own emit path; OS pipe buffering provides natural
  backpressure — a slow coordinator slows the worker rather than
  growing an unbounded queue.
* :class:`TelemetryMerger` — the coordinator half: **idempotent**
  ingest keyed by ``(cell, attempt, seq)``.  Duplicate batches are
  dropped, out-of-order batches are reassembled in sequence order, and
  records only reach the parent tracer when an attempt *completes*
  (:meth:`TelemetryMerger.commit`).  A crashed or timed-out attempt is
  :meth:`abandoned <TelemetryMerger.abandon>` — its partial spans and
  metric deltas are retracted wholesale, so a retried cell never
  double-counts (the bug class the old end-of-run-only
  ``rebase_records`` path made impossible to even express).
* :class:`FleetStatus` — the live scoreboard behind ``python -m repro
  top``: cells done / retries / quarantines / cache hit-rate / ETA,
  updated in place by the coordinator and snapshotted lock-free by the
  renderer (single attribute reads are atomic under the GIL; the
  numbers are monotone counters, so a torn read is at worst one tick
  stale).

Invariant preserved from PR 2: everything here activates only when a
tracer is attached.  Untraced grids ship no batches, allocate no
sinks, and pay nothing beyond the existing ``tracer.enabled`` check.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    merge_registries,
    snapshot_delta,
)
from repro.obs.sinks import Sink

#: Default records per shipped batch (bounded payload per pipe send).
DEFAULT_BATCH_RECORDS = 256


class StreamingSink(Sink):
    """Buffer tracer records; ship them in sequence-numbered batches.

    ``ship(batch)`` receives a plain dict::

        {"seq": int, "records": [SpanRecord | EventRecord, ...],
         "metrics": <snapshot delta>, "epoch_ns": int}

    ``metrics`` is the delta of this sink's stream-level registry
    (records/batches by category) since the previous batch — additive,
    so the coordinator can merge deltas in any arrival order and the
    totals still agree.  ``flush()`` ships a final partial batch;
    the sink never re-ships a sequence number.
    """

    def __init__(self, ship: Callable[[Dict[str, Any]], None],
                 batch_records: int = DEFAULT_BATCH_RECORDS,
                 epoch_ns: int = 0):
        if batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        self._ship = ship
        self.batch_records = batch_records
        self.epoch_ns = epoch_ns
        self.seq = 0
        self.shipped_records = 0
        self._buffer: List[Any] = []
        self._registry = MetricsRegistry()
        self._last_snapshot: Optional[Dict[str, Any]] = None

    def record(self, rec: Any) -> None:
        self._buffer.append(rec)
        self._registry.counter("tel.records").inc()
        category = getattr(rec, "category", "") or rec.kind
        self._registry.counter(f"tel.records.{category}").inc()
        if len(self._buffer) >= self.batch_records:
            self.flush()

    def flush(self) -> None:
        """Ship the buffered records (no-op when nothing is pending)."""
        if not self._buffer:
            return
        snap = self._registry.snapshot()
        batch = {
            "seq": self.seq,
            "records": self._buffer,
            "metrics": snapshot_delta(snap, self._last_snapshot),
            "epoch_ns": self.epoch_ns,
        }
        self._buffer = []
        self._last_snapshot = snap
        self.seq += 1
        self.shipped_records += len(batch["records"])
        self._ship(batch)

    def close(self) -> None:
        self.flush()


class TelemetryMerger:
    """Coordinator-side idempotent ingest of worker telemetry batches.

    Batches are keyed by ``(cell, attempt, seq)``: a key seen twice is
    dropped (a worker retrying a send, a coordinator replaying a
    buffer), and batches may arrive in any order — they are reassembled
    by sequence number at commit time.  An attempt's records enter the
    parent tracer **only** via :meth:`commit`, which fires when the
    fleet accepts that attempt's result; :meth:`abandon` retracts a
    failed attempt wholesale.  Retries therefore never double-count
    spans or metrics no matter how the pipe interleaved the batches.

    ``live_registry()`` exposes the merged metrics *including*
    in-flight attempts — the optimistic view the ``top`` display
    wants; ``committed_registry`` holds only accepted attempts — the
    view whose totals must agree with the serial run.
    """

    def __init__(self, tracer: Any = None):
        self.tracer = tracer
        self.committed_registry = MetricsRegistry()
        self.batches_ingested = 0
        self.records_ingested = 0
        self.duplicates_dropped = 0
        self.attempts_abandoned = 0
        self.attempts_committed = 0
        self._seen: Set[Tuple[str, int, int]] = set()
        self._closed: Set[Tuple[str, int]] = set()
        #: (cell, attempt) -> {"batches": {seq: records},
        #:  "metrics": [delta, ...], "epoch_ns": int}
        self._open: Dict[Tuple[str, int], Dict[str, Any]] = {}

    # -- ingest ----------------------------------------------------------

    def ingest(self, cell: str, attempt: int,
               batch: Dict[str, Any]) -> bool:
        """Accept one shipped batch; returns False for duplicates or
        batches of already-settled (committed/abandoned) attempts."""
        seq = int(batch.get("seq", 0))
        key = (cell, attempt, seq)
        if key in self._seen or (cell, attempt) in self._closed:
            self.duplicates_dropped += 1
            return False
        self._seen.add(key)
        slot = self._open.setdefault(
            (cell, attempt),
            {"batches": {}, "metrics": [], "epoch_ns": 0})
        records = batch.get("records") or []
        slot["batches"][seq] = records
        delta = batch.get("metrics")
        if delta:
            slot["metrics"].append(delta)
        if batch.get("epoch_ns"):
            slot["epoch_ns"] = int(batch["epoch_ns"])
        self.batches_ingested += 1
        self.records_ingested += len(records)
        return True

    # -- settle ----------------------------------------------------------

    def commit(self, cell: str, attempt: int,
               track_suffix: str = "") -> int:
        """Fold an accepted attempt's records into the parent tracer
        (in sequence order, rebased onto the parent clock) and its
        metric deltas into the committed registry.  Returns the number
        of records committed.  Idempotent: a second commit of the same
        attempt is a no-op."""
        key = (cell, attempt)
        if key in self._closed:
            return 0
        self._closed.add(key)
        slot = self._open.pop(key, None)
        if slot is None:
            return 0
        records: List[Any] = []
        for seq in sorted(slot["batches"]):
            records.extend(slot["batches"][seq])
        worker_epoch = slot["epoch_ns"]
        if records and self.tracer is not None \
                and getattr(self.tracer, "enabled", False):
            from repro.obs.perfetto import rebase_records

            offset = worker_epoch - getattr(
                self.tracer, "_epoch_ns", worker_epoch)
            self.tracer.ingest(rebase_records(
                records, offset_ns=offset, track_suffix=track_suffix))
        for delta in slot["metrics"]:
            self.committed_registry.merge(delta)
        self.attempts_committed += 1
        return len(records)

    def abandon(self, cell: str, attempt: int) -> None:
        """Drop a failed attempt's buffered records and metric deltas
        (late batches for it will be dropped as duplicates)."""
        key = (cell, attempt)
        if key in self._closed:
            return
        self._closed.add(key)
        if self._open.pop(key, None) is not None:
            self.attempts_abandoned += 1

    # -- views -----------------------------------------------------------

    def live_registry(self) -> MetricsRegistry:
        """Committed totals plus in-flight attempts' deltas — the
        optimistic scoreboard for a live display."""
        live = merge_registries([self.committed_registry.snapshot()])
        for slot in self._open.values():
            for delta in slot["metrics"]:
                live.merge(delta)
        return live

    def stats(self) -> Dict[str, int]:
        return {
            "batches": self.batches_ingested,
            "records": self.records_ingested,
            "duplicates_dropped": self.duplicates_dropped,
            "attempts_committed": self.attempts_committed,
            "attempts_abandoned": self.attempts_abandoned,
        }


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
                "quarantined", "stream_batches", "stream_records"):
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
        self.records_streamed = 0
        self.batches_streamed = 0
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

    def on_stream(self, records: int) -> None:
        self.batches_streamed += 1
        self.records_streamed += records

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
            "records_streamed": self.records_streamed,
            "batches_streamed": self.batches_streamed,
            "elapsed_s": round(self.elapsed_s(), 3),
            "eta_s": None if eta is None else round(eta, 3),
            "finished": self.finished,
        }
