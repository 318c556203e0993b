"""Solver hot-path profiling and collapsed-stack export.

The profile's *counters* are deterministic — they must agree with the
evaluation-count discipline pinned by ``tests/core/test_solver_memo.py``
(one ``g`` and one limit check per node, ``f`` once per candidate) —
while the nanosecond columns are wall-clock and never compared.  The
disabled path is the pre-existing hot path: an untraced ``explore``
allocates no profile at all.
"""

import pytest

from repro.channels import Channel
from repro.core import Description, SmoothSolutionSolver, combine
from repro.functions import chan, even_of, odd_of
from repro.obs import (
    NULL_TRACER,
    RingBufferSink,
    Tracer,
    collapsed_stacks,
    hotspots,
    hotspots_from_metrics,
    write_collapsed,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SITE_ORDER, SolverProfile
from repro.obs.tracer import SpanRecord

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


class _CountingFn:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def apply(self, t):
        self.calls += 1
        return self.inner.apply(t)


def counting_dfm():
    base = combine([
        Description(even_of(chan(D)), chan(B)),
        Description(odd_of(chan(D)), chan(C)),
    ], name="dfm")
    return Description(_CountingFn(base.lhs), _CountingFn(base.rhs),
                       name=base.name)


def traced_explore(depth=4):
    desc = counting_dfm()
    ring = RingBufferSink(capacity=100_000)
    solver = SmoothSolutionSolver.over_channels(
        desc, [B, C, D], tracer=Tracer([ring]))
    return desc, solver.explore(depth), ring


class TestProfileCounters:
    def test_counters_agree_with_pinned_evaluation_counts(self):
        """The profile is bookkeeping, not re-measurement: its site
        counters must equal the CountingFn ground truth that
        test_solver_memo pins."""
        desc, result, _ = traced_explore(4)
        prof = result.profile
        assert prof["g_evaluations"] == result.nodes_explored
        assert prof["g_evaluations"] == desc.rhs.calls
        assert prof["f_evaluations"] == desc.lhs.calls
        sites = prof["sites"]
        assert sites["rhs.apply"]["calls"] == result.nodes_explored
        assert sites["limit_report"]["calls"] == result.nodes_explored
        # f(root) once, then expand below the bound + probes at it
        assert sites["lhs.apply.root"]["calls"] == 1
        assert (sites["lhs.apply.root"]["calls"]
                + sites["lhs.apply.expand"]["calls"]
                + sites["lhs.apply.probe"]["calls"]) == desc.lhs.calls

    def test_counters_deterministic_across_runs(self):
        _, first, _ = traced_explore(4)
        _, second, _ = traced_explore(4)

        def calls(prof):
            return {name: v["calls"]
                    for name, v in prof["sites"].items()}
        assert calls(first.profile) == calls(second.profile)
        assert first.digest() == second.digest()

    def test_per_level_series_covers_the_exploration(self):
        _, result, _ = traced_explore(4)
        levels = result.profile["levels"]
        assert levels, "traced explore recorded no levels"
        assert [lv["depth"] for lv in levels] == \
            list(range(len(levels)))
        assert sum(lv["width"] for lv in levels) == \
            result.nodes_explored

    def test_untraced_explore_allocates_no_profile(self):
        desc = counting_dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        result = solver.explore(4)
        assert result.profile == {}
        assert result.metrics == {}

    def test_null_tracer_matches_untraced(self):
        desc = counting_dfm()
        solver = SmoothSolutionSolver.over_channels(
            desc, [B, C, D], tracer=NULL_TRACER)
        result = solver.explore(4)
        assert result.profile == {}


class TestHotspots:
    def test_ranked_by_time_share(self):
        prof = SolverProfile()
        prof.add("rhs.apply", ns=100, calls=10)
        prof.add("limit_report", ns=300, calls=10)
        prof.add("cache.get", ns=100, calls=1)
        rows = hotspots(prof.summary())
        assert rows[0]["site"] == "limit_report"
        assert rows[0]["share"] == 0.6
        # equal-time sites fall back to the canonical order
        assert [r["site"] for r in rows[1:]] == \
            ["rhs.apply", "cache.get"]
        assert abs(sum(r["share"] for r in rows) - 1.0) < 1e-9

    def test_zero_time_runs_stay_stable(self):
        prof = SolverProfile()
        for site in reversed(SITE_ORDER):
            prof.add(site, ns=0)
        assert [r["site"] for r in hotspots(prof.summary())] == \
            list(SITE_ORDER)

    def test_empty_and_none_summaries(self):
        assert hotspots(None) == []
        assert hotspots({}) == []
        assert hotspots_from_metrics(None) == []
        assert hotspots_from_metrics({"other.metric": 3}) == []

    def test_metrics_round_trip(self):
        """to_metrics → registry summary → hotspots_from_metrics
        recovers exactly the rows hotspots() computes directly."""
        prof = SolverProfile()
        prof.add("rhs.apply", ns=500, calls=20)
        prof.add("lhs.apply.expand", ns=1500, calls=45)
        registry = MetricsRegistry()
        prof.to_metrics(registry)
        assert hotspots_from_metrics(registry.summary()) == \
            hotspots(prof.summary())

    def test_end_to_end_metrics_carry_the_sites(self):
        _, result, _ = traced_explore(3)
        rows = hotspots_from_metrics(result.metrics)
        by_site = {r["site"]: r for r in rows}
        assert by_site["rhs.apply"]["calls"] == result.nodes_explored


class TestCollapsedStacks:
    @staticmethod
    def span(name, track, start, dur, depth):
        return SpanRecord(name=name, category="solver", track=track,
                          start_ns=start, dur_ns=dur, depth=depth)

    def test_nesting_and_self_time(self):
        spans = [
            # exit order: children complete before their parents
            self.span("grand", "solver", 12, 5, 2),
            self.span("childA", "solver", 10, 30, 1),
            self.span("childB", "solver", 50, 20, 1),
            self.span("root", "solver", 0, 100, 0),
        ]
        folded = collapsed_stacks(spans)
        assert folded == {
            "solver;root": 50,
            "solver;root;childA": 25,
            "solver;root;childA;grand": 5,
            "solver;root;childB": 20,
        }
        # self times sum back to the root's total
        assert sum(folded.values()) == 100

    def test_siblings_merge_their_weights(self):
        spans = [
            self.span("work", "t", 0, 10, 1),
            self.span("work", "t", 20, 15, 1),
            self.span("root", "t", 0, 40, 0),
        ]
        folded = collapsed_stacks(spans)
        assert folded["t;root;work"] == 25
        assert folded["t;root"] == 15

    def test_tracks_fold_independently(self):
        spans = [
            self.span("a", "t1", 0, 10, 0),
            self.span("a", "t2", 0, 30, 0),
        ]
        folded = collapsed_stacks(spans)
        assert folded == {"t1;a": 10, "t2;a": 30}

    def test_clock_jitter_clamped_at_zero(self):
        # a child reported longer than its parent must not produce a
        # negative self-time
        spans = [
            self.span("child", "t", 0, 15, 1),
            self.span("root", "t", 0, 10, 0),
        ]
        folded = collapsed_stacks(spans)
        assert folded["t;root"] == 0
        assert folded["t;root;child"] == 15

    def test_events_are_ignored(self):
        from repro.obs.tracer import EventRecord

        records = [
            EventRecord(name="send", category="runtime", track="t",
                        ts_ns=5),
            self.span("root", "t", 0, 10, 0),
        ]
        assert collapsed_stacks(records) == {"t;root": 10}

    def test_write_collapsed_sorted_lines(self, tmp_path):
        spans = [
            self.span("b", "t", 20, 5, 0),
            self.span("a", "t", 0, 10, 0),
        ]
        path = tmp_path / "prof.folded"
        assert write_collapsed(spans, str(path)) == 2
        assert path.read_text() == "t;a 10\nt;b 5\n"

    def test_traced_explore_produces_foldable_spans(self, tmp_path):
        _, _, ring = traced_explore(3)
        folded = collapsed_stacks(list(ring.records))
        assert folded, "traced explore produced no spans"
        assert any(key.startswith("solver;") for key in folded)


class TestProfileEngineParity:
    """Per-site call counts and strategy counters are bookkeeping of
    the walk, not of the representation: both engines must report
    the same ones for every strategy, with and without duplicate-state
    reduction, on complete and truncated runs."""

    @staticmethod
    def profile(compiled, strategy, dedup, max_nodes):
        desc = combine([
            Description(even_of(chan(D)), chan(B)),
            Description(odd_of(chan(D)), chan(C)),
        ], name="dfm")
        solver = SmoothSolutionSolver.over_channels(
            desc, [B, C, D], compiled=compiled, strategy=strategy,
            dedup=dedup, tracer=Tracer([RingBufferSink(capacity=100_000)]))
        prof = solver.explore(4, max_nodes=max_nodes).profile
        calls = {name: v["calls"] for name, v in prof["sites"].items()
                 if name != "compile.build"}
        return calls, prof["counters"]

    @pytest.mark.parametrize("max_nodes", [200_000, 90])
    @pytest.mark.parametrize("dedup", [False, True])
    @pytest.mark.parametrize(
        "strategy", ["bfs", "best-first", "iterative-deepening"])
    def test_counts_and_counters_equal_across_engines(
            self, strategy, dedup, max_nodes):
        reference = self.profile(False, strategy, dedup, max_nodes)
        assert reference[0]["limit_report"] > 0
        assert self.profile(None, strategy, dedup, max_nodes) == reference
