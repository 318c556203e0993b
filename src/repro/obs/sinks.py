"""Trace record sinks: ring buffer, JSONL file, console.

A sink receives completed :class:`~repro.obs.tracer.SpanRecord` /
:class:`~repro.obs.tracer.EventRecord` values via :meth:`Sink.record`.
Sinks are deliberately dumb — ordering, export formats and analysis
live elsewhere (see :mod:`repro.obs.perfetto`).
"""

from __future__ import annotations

import json
import sys
from collections import deque
from typing import Any, Iterator, Optional, TextIO


class Sink:
    """Base sink: swallow records, release resources on close."""

    def record(self, rec: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        return None


class RingBufferSink(Sink):
    """Keep the most recent ``capacity`` records in memory
    (``capacity=None`` keeps every record).

    The default sink for post-mortems: cheap enough to leave on, and
    the tail of the buffer is exactly the lead-up to the failure.
    """

    def __init__(self, capacity: Optional[int] = 65_536):
        self._buffer: deque = deque(maxlen=capacity)

    def record(self, rec: Any) -> None:
        self._buffer.append(rec)

    @property
    def records(self) -> list:
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()


class JsonlSink(Sink):
    """Append one JSON object per record to a file.

    The stream is valid JSONL at every instant, so a crashed run still
    leaves a readable trace prefix.  ``flush_every`` controls how many
    records may sit in the userspace buffer: with the default of 1
    every record is flushed as written (a killed writer loses nothing
    that was recorded); larger values batch flushes for throughput at
    the cost of up to ``flush_every - 1`` records on a crash.
    """

    def __init__(self, path: str, flush_every: int = 1):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = path
        self.flush_every = flush_every
        self._fh: Optional[TextIO] = open(path, "w", encoding="utf-8")
        self.count = 0
        self._unflushed = 0

    def record(self, rec: Any) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlSink({self.path!r}) is closed")
        self._fh.write(json.dumps(rec.to_dict(), sort_keys=True))
        self._fh.write("\n")
        self.count += 1
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self._fh.flush()
            self._unflushed = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ConsoleSink(Sink):
    """Human-oriented pretty-printer, indented by span depth."""

    def __init__(self, stream: Optional[TextIO] = None,
                 categories: Optional[set] = None):
        self.stream = stream if stream is not None else sys.stdout
        #: when given, only records of these categories are printed
        self.categories = categories

    def record(self, rec: Any) -> None:
        if self.categories is not None and \
                rec.category not in self.categories:
            return
        args = " ".join(f"{k}={v!r}" for k, v in rec.args.items())
        indent = "  " * getattr(rec, "depth", 0)
        if rec.kind == "span":
            ms = rec.dur_ns / 1e6
            line = (f"{rec.start_ns / 1e6:10.3f}ms {indent}"
                    f"[{rec.track}] {rec.name} ({ms:.3f}ms)")
        else:
            line = (f"{rec.ts_ns / 1e6:10.3f}ms {indent}"
                    f"[{rec.track}] · {rec.name}")
        if args:
            line += f"  {args}"
        print(line, file=self.stream)
