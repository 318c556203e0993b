"""Tests for repro.par — the process-parallel conformance grid.

The parallel executor only works if everything a worker sends back
survives the pickle boundary with content intact: these tests pin the
round-trips (channels, events, schedules, full cases), the scenario
registry the workers rebuild cells from, and the serial fallback
paths.
"""

import os
import pickle

import pytest

from repro import par
from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.faults.harness import ConformanceReport
from repro.par import (
    CellTask,
    Scenario,
    get_scenario,
    has_scenario,
    register_scenario,
    run_cell,
    run_conformance_parallel,
    scenario_names,
)
from repro.seq.finite import fseq
from repro.traces.trace import Trace

FORK_AVAILABLE = "fork" in __import__(
    "multiprocessing").get_all_start_methods()


class TestPickleRoundTrips:
    """Satellite: everything a worker returns must pickle faithfully.

    Channel/Event/FiniteSeq are slot-based immutable classes whose
    ``__setattr__`` guard breaks default unpickling — each carries an
    explicit ``__reduce__`` now; these tests are the regression net.
    """

    def test_channel(self):
        c = Channel("b", alphabet={0, 2})
        c2 = pickle.loads(pickle.dumps(c))
        assert c2 == c
        assert c2.name == "b"
        assert c2.alphabet == frozenset({0, 2})
        assert c2.auxiliary is c.auxiliary

    def test_auxiliary_channel(self):
        c = Channel("t", auxiliary=True)
        c2 = pickle.loads(pickle.dumps(c))
        assert c2.auxiliary
        assert c2.alphabet is None

    def test_event(self):
        e = Event(Channel("b", alphabet={0, 2}), 0)
        e2 = pickle.loads(pickle.dumps(e))
        assert e2 == e
        assert e2.channel.name == "b"
        assert e2.message == 0

    def test_finite_seq(self):
        s = fseq(1, 2, 3)
        s2 = pickle.loads(pickle.dumps(s))
        assert s2 == s
        assert list(s2.items) == [1, 2, 3]

    def test_finite_trace(self):
        b = Channel("b", alphabet={0, 2})
        d = Channel("d", alphabet={0, 1, 2, 3})
        t = Trace.from_pairs([(b, 0), (d, 0), (b, 2)])
        t2 = pickle.loads(pickle.dumps(t))
        assert list(t2) == list(t)

    def test_cell_task(self):
        task = CellTask(scenario="dfm", plan="drop", seed=3,
                        max_steps=500)
        t2 = pickle.loads(pickle.dumps(task))
        assert t2 == task

    def test_conformance_case_content_preserved(self):
        task = CellTask(scenario="dfm", plan="drop", seed=0,
                        max_steps=2000)
        case = run_cell(task)
        c2 = pickle.loads(pickle.dumps(case))
        assert c2.outcome == case.outcome
        assert c2.plan == case.plan and c2.seed == case.seed
        assert c2.result.digest() == case.result.digest()
        assert c2.schedule is not None
        assert c2.schedule.digest() == case.schedule.digest()
        assert c2.metrics == case.metrics
        assert list(c2.result.trace) == list(case.result.trace)


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        assert "dfm" in scenario_names()
        assert "alternating_bit" in scenario_names()

    def test_get_scenario_builds_fresh(self):
        a, b = get_scenario("dfm"), get_scenario("dfm")
        assert a is not b  # factories are stateful; never shared
        assert a.name == b.name
        assert sorted(a.plans) == sorted(b.plans)

    def test_get_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("no-such-scenario")

    def test_register_decorator(self):
        name = "test-registry-scratch"
        try:
            @register_scenario(name)
            def _build():
                return get_scenario("dfm")

            assert has_scenario(name)
            assert get_scenario(name).name == "dfm"
        finally:
            par._SCENARIOS.pop(name, None)

    def test_registry_dfm_is_the_catalog_dfm(self):
        # the registry writes no dfm equations of its own: its spec is
        # the catalog's, over the registry's alphabets
        from repro.cache.keys import description_digest
        from repro.core import SmoothSolutionSolver
        from repro.processes.merge import make_dfm

        sc = get_scenario("dfm")
        catalog = make_dfm(evens={0, 2}, odds={1, 3})
        assert description_digest(sc.spec) == \
            description_digest(catalog.description())

        def solve_digest(spec, channels):
            solver = SmoothSolutionSolver.over_channels(spec, channels)
            return solver.explore(4).digest()

        assert solve_digest(sc.spec, sc.solve_channels) == \
            solve_digest(catalog.description(), catalog.channels)


class TestSerialFallback:
    def test_workers_one_runs_serial(self):
        report = run_conformance_parallel(
            "dfm", seeds=[0], workers=1)
        assert isinstance(report, ConformanceReport)
        assert report.all_conform
        assert report.wall_clock_s > 0

    def test_single_cell_grid_runs_serial(self):
        sc = get_scenario("dfm")
        report = run_conformance_parallel(
            "dfm", seeds=[0], plans={"none": sc.plans["none"]},
            workers=8)
        assert len(report.cases) == 1
        assert report.all_conform


@pytest.mark.skipif(not FORK_AVAILABLE,
                    reason="parallel executor requires fork")
class TestParallelExecution:
    def test_results_stream_back_in_grid_order(self):
        report = run_conformance_parallel(
            "dfm", seeds=range(2), workers=2)
        sc = get_scenario("dfm")
        expected = [(plan, seed) for plan in sc.plans
                    for seed in range(2)]
        assert [(c.plan, c.seed) for c in report.cases] == expected

    def test_cells_keep_schedules_and_digests(self):
        report = run_conformance_parallel(
            "dfm", seeds=range(2), workers=2)
        for case in report.cases:
            assert case.schedule is not None
            assert case.schedule.meta["digest"] == \
                case.result.digest()
            assert case.schedule.meta["outcome"] == case.outcome
            assert case.elapsed_s > 0

    def test_record_false_skips_schedules(self):
        report = run_conformance_parallel(
            "dfm", seeds=[0], workers=2, record=False)
        assert all(c.schedule is None for c in report.cases)

    def test_wall_clock_measured_around_grid(self):
        report = run_conformance_parallel(
            "dfm", seeds=range(2), workers=2)
        assert report.wall_clock_s > 0
        # per-cell compute sums over cells; with real pool overhead
        # wall clock can exceed it on a starved machine, but both
        # clocks must be present and sane
        assert report.total_elapsed_s() > 0

    def test_traced_grid_merges_worker_records(self):
        from repro.obs.sinks import RingBufferSink
        from repro.obs.tracer import Tracer

        ring = RingBufferSink()
        tracer = Tracer([ring])
        report = run_conformance_parallel(
            "dfm", seeds=[0], workers=2, tracer=tracer)
        assert report.all_conform
        tracks = {r.track for r in ring}
        # every cell's rows are suffixed with its grid coordinates
        sc = get_scenario("dfm")
        for plan in sc.plans:
            assert any(t.endswith(f"@{plan}×0") for t in tracks), plan
        # a traced grid also ships per-cell metrics summaries
        assert all(c.metrics for c in report.cases)
        # rebased timestamps stay non-negative on the parent timeline
        for r in ring:
            ts = r.start_ns if r.kind == "span" else r.ts_ns
            assert ts >= 0


class TestWallClockReporting:
    def test_total_elapsed_is_per_cell_compute_sum(self):
        report = run_conformance_parallel("dfm", seeds=[0], workers=1)
        assert report.total_elapsed_s() == pytest.approx(
            sum(c.elapsed_s for c in report.cases))

    def test_render_shows_both_clocks(self):
        from repro.report import render_conformance_report

        report = run_conformance_parallel("dfm", seeds=[0], workers=1)
        text = render_conformance_report(report)
        assert "wall-clock" in text
        assert "per-cell compute" in text
