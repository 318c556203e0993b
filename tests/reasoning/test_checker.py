"""Unit tests for repro.reasoning.checker — the §2.3 reasoning patterns."""

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import combine
from repro.core.solver import SmoothSolutionSolver
from repro.functions.seq_fns import (
    affine_of,
    prepend_of,
    scale_of,
)
from repro.processes.merge import dfm_descriptions
from repro.reasoning.checker import (
    check_progress,
    check_progress_on_quiescent,
    check_safety,
    check_safety_on_description,
)
from repro.reasoning.properties import (
    SafetyProperty,
    eventually_all,
    eventually_message,
    never_message,
    outputs_justified_by_inputs,
)
from repro.seq.builders import misra_x
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


class TestSafetyChecking:
    def test_dfm_outputs_justified(self):
        report = check_safety_on_description(
            dfm(), [B, C, D],
            outputs_justified_by_inputs([B, C], [D]),
            max_depth=4,
        )
        assert report.holds
        assert report.nodes_checked > 100
        assert "holds" in str(report)

    def test_violated_property_yields_counterexample(self):
        # "no input 2 ever" is false of reachable histories
        report = check_safety_on_description(
            dfm(), [B, C, D], never_message(B, 2), max_depth=2,
        )
        assert not report.holds
        assert report.counterexample is not None
        assert any(
            e.channel == B and e.message == 2
            for e in report.counterexample
        )
        assert "VIOLATED" in str(report)

    def test_counterexample_is_minimal_in_bfs_order(self):
        report = check_safety_on_description(
            dfm(), [B, C, D], never_message(B, 2), max_depth=3,
        )
        assert report.counterexample.length() == 1

    def test_solver_reuse(self):
        solver = SmoothSolutionSolver.over_channels(dfm(), [B, C, D])
        prop = SafetyProperty("true", lambda t: True)
        report = check_safety(solver, prop, max_depth=3)
        assert report.holds


class TestProgressChecking:
    def _x_trace(self):
        d = Channel("d")
        seq = misra_x()

        def gen():
            i = 0
            while True:
                yield Event(d, seq.item(i))
                i += 1

        return d, Trace.lazy(gen(), name="x")

    def test_fig3_progress(self):
        # §2.3: every natural number appears eventually — check 0..7
        # appear within a 2^4-ish horizon on the solution x
        d, t = self._x_trace()
        prop = eventually_all("0..7 appear", d, list(range(8)))
        report = check_progress(t, prop, horizon=40)
        assert report.holds
        assert report.satisfied_at <= 40

    def test_earliest_prefix_reported(self):
        d, t = self._x_trace()
        report = check_progress(t, eventually_message(d, 1),
                                horizon=10)
        # x = 0 0 1 … : the 1 appears at prefix length 3
        assert report.satisfied_at == 3

    def test_unreachable_goal(self):
        d, t = self._x_trace()
        report = check_progress(t, eventually_message(d, -5),
                                horizon=30)
        assert not report.holds
        assert "NOT reached" in str(report)

    def test_horizon_respects_finite_solutions(self):
        d = Channel("d", alphabet={0})
        t = Trace.from_pairs([(d, 0)])
        report = check_progress(t, eventually_message(d, 0),
                                horizon=50)
        assert report.holds

    def test_quiescent_progress(self):
        solutions = [
            Trace.from_pairs([(B, 0), (D, 0)]),
            Trace.from_pairs([(B, 2), (D, 2)]),
        ]
        reports = check_progress_on_quiescent(
            solutions, eventually_message(D, 0)
        )
        assert reports[0].holds
        assert not reports[1].holds
