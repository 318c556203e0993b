"""Solver hot-path profiling and collapsed-stack export.

The profile is a view of the traced solver's metrics summary.  Its
*counters* are deterministic — they must agree with the
evaluation-count discipline pinned by ``tests/core/test_solver_memo.py``
(one limit check per node, ``f`` once per proposed candidate, one
``g`` per node) — while the
nanosecond columns are wall-clock and never compared.  The disabled
path is the pre-existing hot path: an untraced ``explore`` allocates
no registry and no profile at all.
"""

import pytest

from repro.cache import CacheStore
from repro.channels import Channel
from repro.core import Description, SmoothSolutionSolver, combine
from repro.obs import (
    NULL_TRACER,
    RingBufferSink,
    Tracer,
    collapsed_stacks,
    hotspots,
    solver_profile,
    write_collapsed,
)
from repro.obs.profile import SITE_ORDER
from repro.obs.tracer import SpanRecord
from repro.processes import merge

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
    base = combine(merge.dfm_descriptions(B, C, D), name="dfm")
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


def site_metrics(*rows):
    """A metrics summary holding ``(site, calls, ns)`` rows."""
    out = {}
    for site, calls, ns in rows:
        out[f"solver.site.{site}.calls"] = calls
        out[f"solver.site.{site}.ns"] = ns
    return out


class TestHotspots:
    def test_ranked_by_time_share(self):
        rows = hotspots(site_metrics(("rhs.apply", 10, 100),
                                     ("limit_report", 10, 300),
                                     ("cache.get", 1, 100)))
        assert rows[0]["site"] == "limit_report"
        assert rows[0]["share"] == 0.6
        # equal-time sites fall back to the canonical order
        assert [r["site"] for r in rows[1:]] == \
            ["rhs.apply", "cache.get"]
        assert abs(sum(r["share"] for r in rows) - 1.0) < 1e-9

    def test_zero_time_runs_stay_stable(self):
        metrics = site_metrics(*((site, 1, 0)
                                 for site in reversed(SITE_ORDER)))
        assert [r["site"] for r in hotspots(metrics)] == \
            list(SITE_ORDER)

    def test_empty_and_none_summaries(self):
        assert hotspots(None) == []
        assert hotspots({}) == []
        assert hotspots({"other.metric": 3,
                         "solver.nodes_expanded": 5}) == []

    def test_end_to_end_metrics_carry_the_sites(self):
        _, result, _ = traced_explore(3)
        rows = hotspots(result.metrics)
        by_site = {r["site"]: r for r in rows}
        assert by_site["rhs.apply"]["calls"] == result.nodes_explored


def traced_solver(strategy="bfs", compiled=None, cache=None):
    """The catalog dfm (§2.2, ``merge.make_dfm``), traced."""
    base = merge.make_dfm().solver()
    return SmoothSolutionSolver(
        base.description, base.candidates, compiled=compiled,
        strategy=strategy, cache=cache,
        tracer=Tracer([RingBufferSink(capacity=100_000)]))


class TestSolverProfileView:
    """``result.profile`` is :func:`solver_profile` over
    ``result.metrics``: every count it shows is a registry counter."""

    @pytest.mark.parametrize("strategy", ["bfs", "best-first"])
    def test_view_agrees_with_registry(self, strategy):
        result = traced_solver(strategy).explore(4)
        metrics, prof = result.metrics, result.profile
        assert prof == solver_profile(metrics, prof["levels"])
        for site, v in prof["sites"].items():
            assert v["calls"] == metrics[f"solver.site.{site}.calls"]
            assert v["ns"] == metrics[f"solver.site.{site}.ns"]
        assert prof["counters"]
        for name, n in prof["counters"].items():
            assert n == metrics["solver." + name]
        assert prof["sites"]["lhs.apply.expand"]["calls"] == \
            metrics["solver.candidates_proposed"]
        assert prof["total_ns"] == sum(
            v["ns"] for v in prof["sites"].values())

    def test_levels_partition_the_registry_counts(self):
        result = traced_solver().explore(4)
        metrics, levels = result.metrics, result.profile["levels"]

        def total(key):
            return sum(lv[key] for lv in levels)
        assert total("proposed") == metrics["solver.candidates_proposed"]
        assert total("pruned") == metrics["solver.candidates_pruned"]
        assert total("expanded") == result.nodes_explored
        assert total("accepted") == len(result.finite_solutions)
        assert total("dead_ends") == len(result.dead_ends)
        # the bound level expands nothing
        assert levels[-1]["proposed"] == levels[-1]["pruned"] == 0

    def test_traced_cache_hit_reports_its_lookup(self, tmp_path):
        store = CacheStore(str(tmp_path))
        cold = traced_solver(cache=store).explore(3)
        warm = traced_solver(cache=store).explore(3)
        assert warm.digest() == cold.digest()
        assert warm.metrics["solver.site.cache.get.calls"] == 1
        assert warm.profile == solver_profile(warm.metrics)
        assert [r["site"] for r in hotspots(warm.metrics)] == \
            ["cache.get"]


#: The catalog dfm's profile at depth 4 on either engine: per
#: (strategy, max_nodes), the calls at ``PINNED_SITES``, the
#: event counters, the f/g totals and the BFS levels as rows of
#: ``_LEVEL_KEYS``.
PINNED_SITES = ("lhs.apply.root", "rhs.apply", "limit_report",
                "lhs.apply.expand", "lhs.apply.probe")
PINNED = {
    ("bfs", None): (
        (1, 2659, 2659, 4260, 2304),
        {"strategy.bfs.popped": 2659, "strategy.bfs.pushed": 2659},
        6565, 2659,
        [(0, 1, 12, 6, 1, 1, 0), (1, 6, 72, 30, 6, 0, 0),
         (2, 42, 504, 198, 42, 6, 0), (3, 306, 3672, 1368, 306, 0, 0),
         (4, 2304, 0, 0, 2304, 90, 0)]),
    ("bfs", 90): (
        (1, 90, 90, 1080, 0),
        {"strategy.bfs.popped": 90, "strategy.bfs.pushed": 667},
        1081, 90,
        [(0, 1, 12, 6, 1, 1, 0), (1, 6, 72, 30, 6, 0, 0),
         (2, 42, 504, 198, 42, 6, 0), (3, 306, 492, 180, 41, 0, 0)]),
    ("best-first", None): (
        (1, 2659, 2659, 4260, 2304),
        {"strategy.best-first.popped": 2659,
         "strategy.best-first.pushed": 2659},
        6565, 2659, []),
    ("best-first", 90): (
        (1, 365, 90, 636, 37),
        {"strategy.best-first.popped": 90,
         "strategy.best-first.pushed": 365},
        674, 365, []),
}
_LEVEL_KEYS = ("depth", "width", "proposed", "pruned", "expanded",
               "accepted", "dead_ends")


class TestPinnedProfile:
    """``TestProfileEngineParity`` compares the engines with each
    other, so it misses a change that moves both alike; these are
    the absolute counts."""

    @pytest.mark.parametrize("compiled", [False, None])
    @pytest.mark.parametrize("max_nodes", [None, 90])
    @pytest.mark.parametrize("strategy", ["bfs", "best-first"])
    def test_counts_match_the_pins(self, strategy, max_nodes, compiled):
        solver = traced_solver(strategy, compiled)
        result = (solver.explore(4) if max_nodes is None
                  else solver.explore(4, max_nodes=max_nodes))
        prof = result.profile
        calls = {name: v["calls"] for name, v in prof["sites"].items()}
        assert calls.pop("compile.build", 0) == (compiled is None)
        sites, counters, f_evals, g_evals, levels = \
            PINNED[strategy, max_nodes]
        assert set(calls) <= set(PINNED_SITES)
        assert tuple(calls.get(name, 0) for name in PINNED_SITES) == sites
        assert prof["counters"] == counters
        assert (prof["f_evaluations"], prof["g_evaluations"]) == \
            (f_evals, g_evals)
        assert [tuple(lv.get(k, 0) for k in _LEVEL_KEYS)
                for lv in prof["levels"]] == levels
        # every entry carries every count, the bound level's 0s too
        assert all(set(lv) == {"ns", *_LEVEL_KEYS}
                   for lv in prof["levels"])


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
    the same ones for every strategy, on complete and truncated
    runs."""

    @staticmethod
    def profile(compiled, strategy, max_nodes):
        desc = combine(merge.dfm_descriptions(B, C, D), name="dfm")
        solver = SmoothSolutionSolver.over_channels(
            desc, [B, C, D], compiled=compiled, strategy=strategy,
            tracer=Tracer([RingBufferSink(capacity=100_000)]))
        prof = solver.explore(4, max_nodes=max_nodes).profile
        calls = {name: v["calls"] for name, v in prof["sites"].items()
                 if name != "compile.build"}
        return calls, prof["counters"]

    @pytest.mark.parametrize("max_nodes", [200_000, 90])
    @pytest.mark.parametrize("strategy", ["bfs", "best-first"])
    def test_counts_and_counters_equal_across_engines(
            self, strategy, max_nodes):
        reference = self.profile(False, strategy, max_nodes)
        assert reference[0]["limit_report"] > 0
        assert self.profile(None, strategy, max_nodes) == reference
