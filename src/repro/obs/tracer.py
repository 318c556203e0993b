"""Structured tracer: nested spans + typed instant events.

A :class:`Tracer` timestamps everything with a monotonic
nanosecond clock (``time.perf_counter_ns`` relative to the tracer's
construction) and fans completed records out to its sinks.  Records
come in two kinds:

* :class:`SpanRecord` — a named interval with a duration, produced by
  the ``with tracer.span(...)`` context manager.  Spans nest; the
  nesting depth per *track* is recorded so sinks can indent and the
  Perfetto exporter can lay spans out on per-track timelines.
* :class:`EventRecord` — a named instant (a scheduler pick, a pruned
  candidate, a fault firing).

A *track* is a logical timeline — one per agent, one for the solver,
one for the fault layer — and becomes a Perfetto thread row.

When tracing is off the instrumented code paths use
:data:`NULL_TRACER`: its ``enabled`` flag is ``False`` (hot loops
check this one attribute and skip instrumentation entirely) and its
``span()``/``event()`` are allocation-free no-ops, so the layer costs
one attribute read when disabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable

from repro.obs.sinks import Sink

_JSON_SCALARS = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    """Coerce an arg value to something every sink can serialize."""
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


@dataclass
class SpanRecord:
    """A completed named interval on one track."""

    name: str
    category: str
    track: str
    start_ns: int
    dur_ns: int
    depth: int
    args: Dict[str, Any] = field(default_factory=dict)
    kind: str = "span"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "name": self.name,
            "cat": self.category,
            "track": self.track,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
            "depth": self.depth,
            "args": {k: _jsonable(v) for k, v in self.args.items()},
        }


@dataclass
class EventRecord:
    """A named instant on one track."""

    name: str
    category: str
    track: str
    ts_ns: int
    args: Dict[str, Any] = field(default_factory=dict)
    kind: str = "event"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "event",
            "name": self.name,
            "cat": self.category,
            "track": self.track,
            "ts_ns": self.ts_ns,
            "args": {k: _jsonable(v) for k, v in self.args.items()},
        }


class _Span:
    """Context manager for one span; emitted to sinks on exit."""

    __slots__ = ("_tracer", "name", "category", "track", "args",
                 "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 track: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.track = track
        self.args = args
        self._start_ns = 0
        self._depth = 0

    def __enter__(self) -> "_Span":
        self._depth = self._tracer._push(self.track)
        self._start_ns = self._tracer.now_ns()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end_ns = self._tracer.now_ns()
        self._tracer._pop(self.track)
        self._tracer._emit(SpanRecord(
            name=self.name, category=self.category, track=self.track,
            start_ns=self._start_ns, dur_ns=end_ns - self._start_ns,
            depth=self._depth, args=self.args,
        ))

    def annotate(self, **args: Any) -> None:
        """Attach results discovered while the span is open."""
        self.args.update(args)


class Tracer:
    """Fan spans and events out to sinks with monotonic timestamps."""

    enabled: bool = True

    def __init__(self, sinks: Iterable[Sink] = (),
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.sinks: list[Sink] = list(sinks)
        self._clock = clock
        self._epoch_ns = clock()
        self._depths: Dict[str, int] = {}

    # -- time ------------------------------------------------------------

    def now_ns(self) -> int:
        """Nanoseconds since this tracer was created (monotonic)."""
        return self._clock() - self._epoch_ns

    # -- recording --------------------------------------------------------

    def span(self, name: str, category: str = "",
             track: str = "main", **args: Any) -> _Span:
        return _Span(self, name, category, track, args)

    def event(self, name: str, category: str = "",
              track: str = "main", **args: Any) -> None:
        self._emit(EventRecord(
            name=name, category=category, track=track,
            ts_ns=self.now_ns(), args=args,
        ))

    def ingest(self, records: Iterable[Any]) -> None:
        """Forward already-built records to this tracer's sinks.

        The merge half of per-worker tracing: a parallel grid's worker
        cells each record into their own buffer, and the parent folds
        the (rebased — see
        :func:`repro.obs.perfetto.rebase_records`) records into its
        own sinks here.
        """
        for record in records:
            self._emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    # -- internals --------------------------------------------------------

    def _push(self, track: str) -> int:
        depth = self._depths.get(track, 0)
        self._depths[track] = depth + 1
        return depth

    def _pop(self, track: str) -> None:
        self._depths[track] = max(0, self._depths.get(track, 1) - 1)

    def _emit(self, record: Any) -> None:
        for sink in self.sinks:
            sink.record(record)


class _NullSpan:
    """Shared no-op span; one instance serves every disabled site."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def annotate(self, **args: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The disabled tracer: every operation is an allocation-free no-op.

    Instrumented hot loops gate on ``tracer.enabled`` and never pay
    more than that one attribute read.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(())

    def span(self, name: str, category: str = "",
             track: str = "main", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, category: str = "",
              track: str = "main", **args: Any) -> None:
        return None

    def _emit(self, record: Any) -> None:  # pragma: no cover - defensive
        return None


#: The process-wide disabled tracer (safe to share: it holds no state).
NULL_TRACER = NullTracer()
