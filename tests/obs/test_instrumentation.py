"""End-to-end: the solver, runtime, and fault layers emit the spans,
events, and metrics the observability layer promises."""

import pytest

from repro.channels import Channel
from repro.core import SmoothSolutionSolver, combine
from repro.faults import (
    DropFault,
    FaultPlan,
    RestartPolicy,
    run_conformance,
    run_supervised,
)
from repro.kahn.agents import dfm_agent, source_agent
from repro.kahn.effects import Recv, Send
from repro.kahn.scheduler import RandomOracle, run_network
from repro.obs import RingBufferSink, Tracer
from repro.processes.merge import dfm_descriptions

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def make_tracer():
    sink = RingBufferSink()
    return Tracer([sink]), sink


def names(sink):
    return {r.name for r in sink}


def categories(sink):
    return {r.category for r in sink}


class TestSolverInstrumentation:
    def test_spans_events_and_metrics(self):
        tracer, sink = make_tracer()
        solver = SmoothSolutionSolver.over_channels(
            dfm(), [B, C, D], tracer=tracer)
        result = solver.explore(3)
        assert {"solver.explore", "solver.level",
                "solver.prune"} <= names(sink)
        assert categories(sink) == {"solver"}
        m = result.metrics
        assert m["solver.nodes_expanded"] == result.nodes_explored
        assert m["solver.finite_solutions"] == \
            len(result.finite_solutions)
        assert m["solver.candidates_pruned"] > 0
        assert m["solver.branching"]["count"] > 0

    def test_accept_events_match_solutions(self):
        tracer, sink = make_tracer()
        solver = SmoothSolutionSolver.over_channels(
            dfm(), [B, C, D], tracer=tracer)
        result = solver.explore(2)
        accepts = [r for r in sink if r.name == "solver.accept"]
        assert len(accepts) == len(result.finite_solutions)

    def test_truncation_emits_event(self):
        tracer, sink = make_tracer()
        solver = SmoothSolutionSolver.over_channels(
            dfm(), [B, C, D], tracer=tracer)
        result = solver.explore(6, max_nodes=10)
        assert result.truncated
        [ev] = [r for r in sink if r.name == "solver.truncate"]
        assert "node budget" in ev.args["reason"]

    def test_untraced_solver_has_empty_metrics(self):
        result = SmoothSolutionSolver.over_channels(
            dfm(), [B, C, D]).explore(3)
        assert result.metrics == {}


class TestRuntimeInstrumentation:
    def network(self):
        return {"eb": source_agent(B, [0, 2]),
                "dfm": dfm_agent(B, C, D)}

    def test_scheduler_and_runtime_events(self):
        tracer, sink = make_tracer()
        result = run_network(self.network(), [B, C, D],
                             RandomOracle(0), max_steps=100,
                             tracer=tracer)
        assert {"runtime.run", "step", "oracle.pick_agent",
                "send"} <= names(sink)
        assert {"scheduler", "runtime"} <= categories(sink)
        picks = [r for r in sink if r.name == "oracle.pick_agent"]
        assert all(r.args["chosen"] in ("eb", "dfm") for r in picks)
        m = result.metrics
        assert m["oracle.agent_picks"] == len(picks)
        assert m["channel.sends.b"] == 2

    def test_step_spans_land_on_agent_tracks(self):
        tracer, sink = make_tracer()
        run_network(self.network(), [B, C, D], RandomOracle(0),
                    max_steps=100, tracer=tracer)
        tracks = {r.track for r in sink if r.name == "step"}
        assert tracks == {"eb", "dfm"}

    def test_block_and_halt_events(self):
        tracer, sink = make_tracer()
        run_network(self.network(), [B, C, D], RandomOracle(0),
                    max_steps=100, tracer=tracer)
        assert "agent.halt" in names(sink)

    def test_agent_failure_event(self):
        def crasher():
            yield Send(B, 0)
            raise ValueError("kaput")

        tracer, sink = make_tracer()
        result = run_network({"crash": crasher()}, [B],
                             RandomOracle(0), max_steps=10,
                             tracer=tracer)
        assert result.failed_agents == ["crash"]
        [ev] = [r for r in sink if r.name == "agent.fail"]
        assert "kaput" in ev.args["error"]
        assert result.metrics["agent.failures"] == 1

    def test_untraced_run_has_empty_metrics(self):
        result = run_network(self.network(), [B, C, D],
                             RandomOracle(0), max_steps=100)
        assert result.metrics == {}


class TestFaultInstrumentation:
    def test_fault_send_events_classify_actions(self):
        def sender():
            for _ in range(8):
                yield Send(B, 0)

        tracer, sink = make_tracer()
        plan = FaultPlan(
            {B: DropFault(seed=1, p=0.5, max_consecutive_drops=2)},
            name="lossy")
        run_network({"s": sender()}, [B], RandomOracle(0),
                    max_steps=50, fault_plan=plan, tracer=tracer)
        fault_events = [r for r in sink if r.name == "fault.send"]
        assert fault_events
        actions = {r.args["action"] for r in fault_events}
        assert actions <= {"pass", "drop", "hold", "duplicate",
                           "corrupt", "perturb"}
        assert "drop" in actions  # p=0.5 over 8 sends, seeded
        assert all(r.track == "faults" for r in fault_events)

    def test_supervision_restart_events(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("flaky start")
            yield Send(B, 0)

        tracer, sink = make_tracer()
        result = run_supervised(
            {"flaky": flaky}, [B], RandomOracle(0), max_steps=200,
            policy=RestartPolicy(max_restarts=3, backoff_initial=1),
            tracer=tracer)
        assert result.restarts["flaky"] == 2
        restarts = [r for r in sink if r.name == "supervise.restart"]
        assert [r.args["restart"] for r in restarts] == [1, 2]
        assert result.metrics["supervise.restarts.flaky"] == 2

    def test_watchdog_event_carries_diagnosis(self):
        def spinner():
            while True:
                got = yield Recv(C)
                del got

        def feeder():
            while True:
                yield Send(B, 0)

        tracer, sink = make_tracer()
        plan = FaultPlan(
            {B: DropFault(seed=0, p=1.0,
                          max_consecutive_drops=None)},
            name="black-hole")
        result = run_supervised(
            {"spin": feeder, "wait": spinner}, [B, C],
            RandomOracle(1), max_steps=10_000, fault_plan=plan,
            watchdog_limit=50, tracer=tracer)
        assert result.watchdog_fired
        [ev] = [r for r in sink if r.name == "supervise.watchdog"]
        assert "no history growth" in ev.args["diagnosis"]
        assert ev.args["stalled_for"] >= 50


class TestHarnessInstrumentation:
    def grid_args(self):
        spec = combine(dfm_descriptions(B, C, D), name="dfm")
        agents = {"eb": lambda: source_agent(B, [0]),
                  "dfm": lambda: dfm_agent(B, C, D)}
        return agents, spec

    def test_cells_carry_elapsed_and_metrics(self):
        agents, spec = self.grid_args()
        tracer, sink = make_tracer()
        report = run_conformance(
            "dfm-grid", agents, [B, C, D], spec,
            {"none": lambda: None}, seeds=[0, 1], max_steps=200,
            tracer=tracer)
        assert len(report.cases) == 2
        for case in report.cases:
            assert case.elapsed_s >= 0.0
            assert case.metrics  # traced run ships its metrics
        assert report.total_elapsed_s() >= sum(
            c.elapsed_s for c in report.cases) * 0.99
        cells = [r for r in sink if r.name == "harness.cell"]
        assert len(cells) == 2
        assert {c.args["outcome"] for c in cells} == \
            {c.outcome for c in report.cases}
        assert "harness.grid" in names(sink)

    def test_untraced_cells_have_monotonic_elapsed_too(self):
        agents, spec = self.grid_args()
        report = run_conformance(
            "dfm-grid", agents, [B, C, D], spec,
            {"none": lambda: None}, seeds=[0], max_steps=200)
        [case] = report.cases
        assert case.elapsed_s >= 0.0
        assert case.metrics == {}


class TestOverheadGuard:
    def test_disabled_tracer_emits_nothing(self):
        sink = RingBufferSink()
        # a NullTracer with sinks attached must still record nothing
        from repro.obs import NullTracer

        tracer = NullTracer()
        tracer.sinks.append(sink)
        run_network({"eb": source_agent(B, [0])}, [B],
                    RandomOracle(0), max_steps=10, tracer=tracer)
        assert len(sink) == 0
