"""Conformance harness: fault grids × seeds against a specification.

Uses a miniature stop-and-wait protocol (a two-message alternating-bit
core over its own alphabet) so the test is self-contained; the full
ABP network lives in ``repro.processes.alternating_bit``, and its grid
is the registry's ``alternating_bit`` scenario.
"""

import pytest

from repro.channels.channel import Channel
from repro.core import Description, DescriptionSystem
from repro.faults import (
    CorruptFault,
    DropFault,
    FaultPlan,
    no_faults,
    run_conformance,
)
from repro.functions import chan
from repro.functions.base import const_seq
from repro.kahn.effects import Poll, Recv, Send
from repro.par import CellTask, get_scenario, run_cell
from repro.seq import FiniteSeq

PAYLOAD = ["a", "b"]
OUT = Channel("out", alphabet=frozenset(PAYLOAD))
DATA = Channel("data",
               alphabet=frozenset((b, m) for b in (0, 1)
                                  for m in PAYLOAD))
ACK = Channel("ack", alphabet=frozenset({0, 1}))
CHANNELS = [OUT, DATA, ACK]


def sender(messages, retransmit_limit=60):
    bit = 0
    for m in messages:
        yield Send(DATA, (bit, m))
        attempts = 0
        while True:
            if (yield Poll(ACK)):
                if (yield Recv(ACK)) == bit:
                    break
                continue
            attempts += 1
            if retransmit_limit is not None and attempts > retransmit_limit:
                return
            yield Send(DATA, (bit, m))
        bit ^= 1


def receiver():
    expected = 0
    while True:
        bit, message = yield Recv(DATA)
        yield Send(ACK, bit)
        if bit == expected:
            yield Send(OUT, message)
            expected ^= 1


def agents(retransmit_limit=60):
    return {"sender": lambda: sender(PAYLOAD, retransmit_limit),
            "receiver": receiver}


def spec() -> DescriptionSystem:
    return DescriptionSystem(
        [Description(chan(OUT), const_seq(FiniteSeq(PAYLOAD)),
                     name="out ⟵ payload")],
        channels=[OUT], name="service",
    )


def fair_loss(seed):
    return FaultPlan({
        DATA: DropFault(seed=seed, p=0.4, max_consecutive_drops=2),
        ACK: DropFault(seed=seed + 1, p=0.4, max_consecutive_drops=2),
    }, name="fair-loss")


class TestConformanceGrid:
    def test_fair_grid_all_conforms(self):
        report = run_conformance(
            "mini-abp", agents(), CHANNELS, spec().combined(),
            {"none": no_faults, "fair-loss": lambda: fair_loss(9)},
            seeds=range(6), observe={OUT}, max_steps=3000,
            watchdog_limit=600,
        )
        assert report.all_conform, [str(c) for c in report.cases]
        assert report.outcomes() == {"conforms": 12}

    def test_payload_corruption_is_flagged_as_violation(self):
        def corrupting(seed):
            # corrupt the *delivered payload* channel: spec-visible
            return FaultPlan({OUT: CorruptFault(
                seed=seed, p=1.0, max_consecutive=None)},
                name="corrupt-out")

        report = run_conformance(
            "mini-abp", agents(), CHANNELS, spec().combined(),
            {"corrupt-out": lambda: corrupting(2)},
            seeds=range(4), observe={OUT}, max_steps=3000,
        )
        assert not report.all_conform
        assert len(report.violations) == 4
        assert all("rejected" in c.detail for c in report.violations)
        # the detail names the failing condition instead of the trace
        for case in report.violations:
            assert case.detail.startswith("trace rejected by spec: ")
            assert ("smoothness fails" in case.detail
                    or "limit condition fails" in case.detail), \
                case.detail
            trace = case.result.trace.project({OUT})
            assert repr(trace) not in case.detail

    def test_unfair_loss_livelocks_and_is_reported(self):
        def black_hole():
            return FaultPlan({DATA: DropFault(
                seed=0, p=1.0, max_consecutive_drops=None)},
                name="black-hole")

        report = run_conformance(
            "mini-abp", agents(retransmit_limit=None), CHANNELS,
            spec().combined(), {"black-hole": black_hole},
            seeds=range(3), observe={OUT}, max_steps=50_000,
            watchdog_limit=200,
        )
        assert len(report.livelocks) == 3
        # watchdog cut each run far below the step budget
        assert all(c.result.steps < 1000 for c in report.livelocks)

    def test_summary_counts_outcomes(self):
        report = run_conformance(
            "mini-abp", agents(), CHANNELS, spec().combined(),
            {"none": no_faults}, seeds=range(2), observe={OUT},
        )
        assert "conforms: 2" in report.summary()
        assert "mini-abp" in report.summary()

    def test_select_filters_by_plan(self):
        report = run_conformance(
            "mini-abp", agents(), CHANNELS, spec().combined(),
            {"none": no_faults, "fair-loss": lambda: fair_loss(1)},
            seeds=range(2), observe={OUT}, max_steps=3000,
            watchdog_limit=600,
        )
        assert len(report.select("conforms", plan="none")) == 2


class TestViolationDetail:
    """A violation cell names the condition its trace fails, taken
    from the spec's reference ``check``."""

    def test_short_delivery_reports_the_limit_condition(self):
        # every delivered prefix is allowed, but the run stops short
        # of the promised payload: only the limit condition fails
        longer = Description(chan(OUT),
                             const_seq(FiniteSeq(PAYLOAD + ["a"])),
                             name="out ⟵ payload a")
        report = run_conformance(
            "mini-abp", agents(), CHANNELS, longer,
            {"none": no_faults}, seeds=[0], observe={OUT},
        )
        [case] = report.violations
        assert case.detail == \
            "trace rejected by spec: limit condition fails (exactly)"

    def test_spec_without_check_keeps_the_trace(self):
        class Verdict:
            def is_smooth_solution(self, trace, depth):
                return False

        report = run_conformance(
            "mini-abp", agents(), CHANNELS, Verdict(),
            {"none": no_faults}, seeds=[0], observe={OUT},
        )
        [case] = report.violations
        trace = case.result.trace.project({OUT})
        assert case.detail == f"trace rejected by spec: {trace!r}"


class TestRegisteredScenariosCheckCompiled:
    """The registered grid scenarios' traces are decided by the
    compiled walk: with the reference check disabled they are still
    accepted.  A spec that drifts back onto the reference walk fails
    here, not only in the benchmark."""

    @pytest.mark.parametrize("name, plan", [
        ("dfm", "none"),
        ("alternating_bit", "no-faults"),
    ])
    def test_conforming_cell_needs_no_reference_check(
            self, name, plan, monkeypatch):
        scenario = get_scenario(name)
        case = run_cell(CellTask(name, plan, seed=1,
                                 max_steps=scenario.max_steps,
                                 record=False))
        assert case.outcome == "conforms"
        trace = case.result.trace
        if scenario.observe is not None:
            trace = trace.project(set(scenario.observe))

        def reference_check(*_args, **_kwargs):
            raise AssertionError("the reference check ran")

        monkeypatch.setattr(Description, "check", reference_check)
        assert scenario.spec.is_smooth_solution(
            trace, scenario.depth) is True
