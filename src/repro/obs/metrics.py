"""Metrics: counters, gauges and histograms for one run.

A :class:`MetricsRegistry` is created per solver exploration / runtime
run, filled by the instrumentation, and flattened by :meth:`summary`
into the plain dict that rides on ``SolverResult.metrics``,
``RunResult.metrics`` and conformance-grid cells — so a failing cell
ships its own quantitative explanation.

All three instruments are streaming (O(1) state): the histogram keeps
count/total/min/max plus coarse power-of-two buckets rather than the
raw samples; quantiles (:meth:`Histogram.quantile`) are bucket-bound
estimates derived from those buckets, never from retained samples.

Summaries fold back into a registry
(:meth:`MetricsRegistry.merge_summary`): counters and histogram
counts/totals/buckets add, so a grid-level registry's totals are the
sums of its cells'.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: The quantiles exposed on histogram summaries and expositions.
QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-value instrument that also remembers its extremes."""

    __slots__ = ("name", "value", "max_value", "min_value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None
        self.max_value: Optional[float] = None
        self.min_value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if self.min_value is None or value < self.min_value:
            self.min_value = value

    def summary(self) -> Dict[str, Any]:
        return {"last": self.value, "min": self.min_value,
                "max": self.max_value}


class Histogram:
    """Streaming distribution: count/total/min/max + 2^k buckets.

    Bucket ``k`` counts samples with ``2^(k-1) < v <= 2^k`` (bucket 0
    counts ``v <= 1``, negatives included) — enough resolution to see
    the shape of branching factors or queue depths without keeping
    samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        k = 0
        bound = 1
        while value > bound:
            bound *= 2
            k += 1
        self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-bound quantile estimate.

        Walks the power-of-two buckets in order and returns the upper
        bound of the bucket where the cumulative count first reaches
        ``q * count``, clamped to the observed ``[min, max]`` — a
        deterministic over-estimate that never exceeds the true
        maximum.  ``None`` on an empty histogram.
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        rank = q * self.count
        cumulative = 0
        for k in sorted(self.buckets):
            cumulative += self.buckets[k]
            if cumulative >= rank:
                upper = float(2 ** k) if k > 0 else 1.0
                upper = min(upper, self.max)
                return max(upper, self.min)
        return self.max                     # pragma: no cover - guard

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for name, q in QUANTILES:
            out[name] = self.quantile(q)
        out["buckets"] = {str(k): v
                          for k, v in sorted(self.buckets.items())}
        return out

    def merge(self, other: Dict[str, Any]) -> None:
        """Fold another histogram's summary slice into this
        one (count/total/buckets add; min/max take the extremes)."""
        self.count += int(other.get("count", 0))
        self.total += float(other.get("total", 0.0))
        for bound in ("min", "max"):
            v = other.get(bound)
            if v is None:
                continue
            mine = getattr(self, bound)
            if mine is None or (v < mine if bound == "min"
                                else v > mine):
                setattr(self, bound, v)
        for k, n in (other.get("buckets") or {}).items():
            k = int(k)
            self.buckets[k] = self.buckets.get(k, 0) + int(n)


class MetricsRegistry:
    """Get-or-create instruments by name; summarize to a plain dict."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name)
            return h

    def count(self, name: str) -> int:
        """A counter's value, 0 if it does not exist (reading never
        creates one, so it cannot add a key to the summary)."""
        c = self._counters.get(name)
        return 0 if c is None else c.value

    def summary(self) -> Dict[str, Any]:
        """Flatten every instrument into one JSON-friendly dict.

        Counters map to their integer value; gauges and histograms map
        to small stat dicts.  Names are sorted so summaries diff
        cleanly.
        """
        out: Dict[str, Any] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.summary()
        for name, h in self._histograms.items():
            out[name] = h.summary()
        return dict(sorted(out.items()))

    def merge_summary(self, summary: Dict[str, Any]
                      ) -> "MetricsRegistry":
        """Fold a flat :meth:`summary` dict (the form that rides on
        results and conformance cells) into this registry, classifying
        each entry by shape: histogram slices (``buckets``) merge,
        gauge slices (``last``) fold through :meth:`Gauge.set`, and
        everything else adds as a counter.  The way a grid-level
        registry accumulates per-cell totals — sums stay consistent
        with the cells by construction."""
        for name, value in (summary or {}).items():
            if isinstance(value, dict) and "buckets" in value:
                self.histogram(name).merge(value)
            elif isinstance(value, dict) and "last" in value:
                gauge = self.gauge(name)
                for v in (value.get("min"), value.get("max"),
                          value.get("last")):
                    if v is not None:
                        gauge.set(v)
            elif isinstance(value, (int, float)):
                self.counter(name).inc(int(value))
        return self

