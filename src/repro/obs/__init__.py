"""Observability: structured tracing, metrics, and timeline export.

The §3.3 tree search and the operational Kahn runtime are
nondeterministic machines; a verdict alone (``violation``,
``livelock``, ``truncated``) does not say *which* scheduler choices
were taken, which candidates were pruned, or which faults fired.  This
package makes the execution structure itself observable:

* :mod:`~repro.obs.tracer` — nested spans and typed instant events
  with monotonic timestamps; :data:`NULL_TRACER` compiles the whole
  layer to a no-op when tracing is off;
* :mod:`~repro.obs.metrics` — counters, gauges and histograms in a
  :class:`MetricsRegistry`, summarized into plain dicts that ride on
  ``SolverResult`` / ``RunResult`` / conformance cells;
* :mod:`~repro.obs.sinks` — pluggable record sinks: in-memory ring
  buffer, JSONL file, console pretty-printer;
* :mod:`~repro.obs.perfetto` — a Chrome-trace-event exporter whose
  output loads directly in Perfetto (https://ui.perfetto.dev) as a
  per-agent timeline of the run;
* :mod:`~repro.obs.recorder` — the flight recorder: a
  :class:`Schedule` capturing every oracle decision and fault RNG
  draw of a run, JSON-serializable and content-addressed;
* :mod:`~repro.obs.replay` — bit-for-bit re-execution of a recorded
  :class:`Schedule` with precise divergence detection;
* :mod:`~repro.obs.diff` — first-divergence diffing of two runs or
  two schedules, and delta-debugging shrinking of a failing schedule;
* :mod:`~repro.obs.telemetry` — fleet telemetry: the grid metrics
  summary and the :class:`FleetStatus` scoreboard behind
  ``python -m repro top``;
* :mod:`~repro.obs.exposition` — Prometheus-text and JSON exporters
  for metrics summaries;
* :mod:`~repro.obs.htmlreport` — the self-contained static HTML
  flight-deck report written per grid run;
* :mod:`~repro.obs.bench` — the benchmark trajectory
  (``BENCH_history.jsonl``) appender and regression gate;
* :mod:`~repro.obs.causality` — happens-before DAG reconstruction
  from the event stream (Lamport clocks, fault-pipeline provenance,
  deterministic digest, DOT/JSON/flow-arrow export) and the
  divergence explainer behind ``diff --explain`` / ``why``;
* :mod:`~repro.obs.profile` — solver hot-path cost attribution
  (:func:`solver_profile`, a view of the solver's metrics) and
  collapsed-stack (speedscope) export.

Instrumented layers: :mod:`repro.core.solver` (category ``solver``),
:mod:`repro.kahn.runtime` + :mod:`repro.kahn.scheduler` (categories
``runtime``/``scheduler``), and :mod:`repro.faults` (categories
``fault``/``supervision``/``harness``).
"""

from repro.obs.causality import (
    CausalGraph,
    CausalNode,
    DivergenceExplanation,
    explain_divergence,
    explain_records,
    split_cells,
)
from repro.obs.diff import (
    RunDiff,
    ScheduleDiff,
    StreamDivergence,
    diff_runs,
    diff_schedules,
    shrink_schedule,
)
from repro.obs.exposition import (
    to_json_exposition,
    to_prometheus_text,
    write_json_exposition,
    write_prometheus_text,
)
from repro.obs.metrics import (
    QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import FleetStatus
from repro.obs.recorder import (
    RecordingOracle,
    RecordingRandom,
    Schedule,
    ScheduleExhausted,
    iter_fault_rngs,
    record_fault_rng,
    stable_digest,
)
from repro.obs.replay import (
    ReplayDivergence,
    ReplayOracle,
    ReplayRandom,
    ReplayReport,
    replay_fault_rng,
    replay_network,
    replay_supervised,
)
from repro.obs.sinks import (
    ConsoleSink,
    JsonlSink,
    RingBufferSink,
    Sink,
)
from repro.obs.tracer import (
    NULL_TRACER,
    EventRecord,
    NullTracer,
    SpanRecord,
    Tracer,
)
from repro.obs.perfetto import to_chrome_trace, write_chrome_trace
from repro.obs.profile import (
    collapsed_stacks,
    hotspots,
    solver_profile,
    write_collapsed,
)

__all__ = [
    "CausalGraph",
    "CausalNode",
    "ConsoleSink",
    "Counter",
    "DivergenceExplanation",
    "EventRecord",
    "FleetStatus",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QUANTILES",
    "RecordingOracle",
    "RecordingRandom",
    "ReplayDivergence",
    "ReplayOracle",
    "ReplayRandom",
    "ReplayReport",
    "RingBufferSink",
    "RunDiff",
    "Schedule",
    "ScheduleDiff",
    "ScheduleExhausted",
    "Sink",
    "SpanRecord",
    "StreamDivergence",
    "Tracer",
    "collapsed_stacks",
    "diff_runs",
    "diff_schedules",
    "explain_divergence",
    "explain_records",
    "hotspots",
    "iter_fault_rngs",
    "record_fault_rng",
    "replay_fault_rng",
    "replay_network",
    "replay_supervised",
    "shrink_schedule",
    "solver_profile",
    "split_cells",
    "stable_digest",
    "to_chrome_trace",
    "to_json_exposition",
    "to_prometheus_text",
    "write_chrome_trace",
    "write_json_exposition",
    "write_prometheus_text",
]
