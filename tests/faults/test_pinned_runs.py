"""Pinned digests for supervised runs the grid and benchmarks never make.

The registered grids only perturb channels with ``DropFault`` and
``DuplicateFault`` and inject no agent failures, so nothing restarts.
The plans here reach the rest of the runtime: a ``DelayFault``
(messages released on a step, and flushed when every agent is stuck),
a ``ReorderFault``, a ``CorruptFault``, a ``FaultPipeline``, and
``crash_at_step`` under a backing-off restart policy.  Each cell is a
recorded ``run_supervised`` of a registered scenario's network under
``RandomOracle(seed)``; its ``RunResult.digest()`` and
``Schedule.digest()`` are pinned, so any change to a decision the
runtime makes (which agent is offered, when a message is released, when
an agent restarts) shows here.

Regenerate the table with ``PYTHONPATH=src python
tests/faults/test_pinned_runs.py`` only when a change is meant to alter
runs; recorded schedules stop replaying when it does.
"""

import pytest

from repro import par
from repro.faults import (
    CorruptFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPipeline,
    FaultPlan,
    ReorderFault,
    RestartPolicy,
    crash_at_step,
    run_supervised,
)
from repro.kahn.scheduler import RandomOracle
from repro.obs import RingBufferSink, Tracer

SEEDS = range(4)
#: per scenario: (data wire, second wire, agent to crash)
WIRING = {
    "dfm": ("b", "d", "dfm"),
    "alternating_bit": ("data", "ack", "receiver"),
}
BACKOFF = RestartPolicy(max_restarts=2, backoff_initial=3)


def plans(name: str, scenario):
    """Plan name → (plan factory, restart policy) for ``scenario``."""
    wires = {c.name: c for c in scenario.channels}
    data_name, other_name, victim = WIRING[name]
    data, other = wires[data_name], wires[other_name]
    return {
        # delays long enough that messages are still parked when
        # every agent is stuck: the runtime flushes them
        "delay": (lambda: FaultPlan(
            {data: DelayFault(seed=1, p=0.5, max_delay=200)},
            name="delay"), scenario.policy),
        "reorder": (lambda: FaultPlan(
            {data: ReorderFault(seed=2, p=0.4, max_hold=3)},
            name="reorder"), scenario.policy),
        "corrupt": (lambda: FaultPlan(
            {other: CorruptFault(seed=3, p=0.3)},
            name="corrupt"), scenario.policy),
        "pipeline": (lambda: FaultPlan(
            {data: [DropFault(seed=4, p=0.3),
                    DelayFault(seed=5, p=0.4, max_delay=3),
                    DuplicateFault(seed=6, p=0.3)],
             other: ReorderFault(seed=7, p=0.3)},
            name="pipeline"), scenario.policy),
        "crash": (lambda: FaultPlan(
            {data: DelayFault(seed=8, p=0.3, max_delay=2)},
            {victim: lambda body: crash_at_step(body, 7)},
            name="crash"), BACKOFF),
    }


def run_cell(name: str, plan: str, seed: int, tracer=None):
    scenario = par.get_scenario(name)
    make_plan, policy = plans(name, scenario)[plan]
    return run_supervised(
        dict(scenario.agents), scenario.channels, RandomOracle(seed),
        max_steps=scenario.max_steps, fault_plan=make_plan(),
        policy=policy, watchdog_limit=scenario.watchdog_limit,
        tracer=tracer, record=True)


def cell_digests(name: str, plan: str, seed: int) -> tuple[str, str]:
    result = run_cell(name, plan, seed)
    return result.digest()[:16], result.schedule.digest()[:16]


#: "scenario/plan/seed" → (run digest, schedule digest), 16-hex prefixes
PINNED = {
    "dfm/delay/0": ('29690f301bd8dab2', 'a3bbe1c148d9d969'),
    "dfm/delay/1": ('46c11b82b2b6c55b', '43687bb6d1eab3cf'),
    "dfm/delay/2": ('4204b14a943ff61d', '1be1e0cf6222c5aa'),
    "dfm/delay/3": ('c7ff2067678eb141', '7f44f1b9bf7cb8b0'),
    "dfm/reorder/0": ('0497b0b6f336e642', '45239eadd9dadf55'),
    "dfm/reorder/1": ('de1abeaeecfa4d4a', 'ac26a53f416a5fe2'),
    "dfm/reorder/2": ('89e6efb694f240cf', '3e73c24302d1c743'),
    "dfm/reorder/3": ('a49ebb8e2054142e', '50313edc69c6940e'),
    "dfm/corrupt/0": ('1675c8b6f0288b76', '2aba4a93d8375236'),
    "dfm/corrupt/1": ('961a453843f4a5ca', 'f04d2cad2b0e29e1'),
    "dfm/corrupt/2": ('37d87de8194d123a', 'a2916cfca7c64668'),
    "dfm/corrupt/3": ('079d7d4c7bf2711c', '2cd857331749356b'),
    "dfm/pipeline/0": ('a4a6b5e62f5c1f54', 'fdad374b4b98ae7f'),
    "dfm/pipeline/1": ('1b45017c8ede8b61', 'feae2ae479502bbc'),
    "dfm/pipeline/2": ('8ac1c185809454f7', '7e4fc3623e866861'),
    "dfm/pipeline/3": ('1ece087248b66311', 'ba8a57b41e96ea26'),
    "dfm/crash/0": ('0d2562fc48b140f7', 'cf1db4b6fb8011e2'),
    "dfm/crash/1": ('ed69c7cc395d6f9f', 'cd7bf93ecadec087'),
    "dfm/crash/2": ('3d5fae2f3b264051', 'fba66720ef0c810e'),
    "dfm/crash/3": ('cba6d6e57018786d', '4ec272b755fe02b3'),
    "alternating_bit/delay/0": ('d776b6c30eec9c5c', 'e89596a6dd1636e7'),
    "alternating_bit/delay/1": ('028fde630f499d85', '264ab04f512f6469'),
    "alternating_bit/delay/2": ('e8dafaf4cafb27b6', '74692d9327a7f0a5'),
    "alternating_bit/delay/3": ('35548d6d828dd0b0', '437eb355fea74293'),
    "alternating_bit/reorder/0": ('4c5612e706178bf7', 'd744f0804b17c5a6'),
    "alternating_bit/reorder/1": ('8e7d4c543a2d5752', 'a5879f8aa44d42be'),
    "alternating_bit/reorder/2": ('c7cdfe9565f95250', '5e4cd1f4868604bf'),
    "alternating_bit/reorder/3": ('62470cfc7b3fcac0', 'f0a5d5215184a761'),
    "alternating_bit/corrupt/0": ('4ae9e306651dba93', '22206ba8c4771067'),
    "alternating_bit/corrupt/1": ('e7fb9258a9fbc7c8', 'ddf9adb4003eb69c'),
    "alternating_bit/corrupt/2": ('5c55fa5ec2f9d2f9', '0ff114f1e8d8c740'),
    "alternating_bit/corrupt/3": ('044983069824c8c9', '1a99f753e74e76f8'),
    "alternating_bit/pipeline/0": ('f3f1fa35db32c5f1', '05fa13f491565743'),
    "alternating_bit/pipeline/1": ('bc5361e21f74d29e', '74a9192b4fa61e0a'),
    "alternating_bit/pipeline/2": ('7fa2df65ab7d480e', 'ad240499120a0a95'),
    "alternating_bit/pipeline/3": ('8b759dc4ef4f7ca7', '34f3a2cb76a1e443'),
    "alternating_bit/crash/0": ('49f273dfa5c992c4', '11594a567761434c'),
    "alternating_bit/crash/1": ('6e5d6fb35cf0e89f', '717850f3ff1b9745'),
    "alternating_bit/crash/2": ('f415ac19296a51cb', '1c73550ddf7b0010'),
    "alternating_bit/crash/3": ('9f4460104762fefb', 'b4323e841d308928'),
}

CELLS = [(name, plan, seed) for name in WIRING
         for plan in ("delay", "reorder", "corrupt", "pipeline", "crash")
         for seed in SEEDS]


@pytest.mark.parametrize("name,plan,seed", CELLS)
def test_digests_are_pinned(name, plan, seed):
    assert cell_digests(name, plan, seed) == \
        PINNED[f"{name}/{plan}/{seed}"]


@pytest.mark.parametrize("name", sorted(WIRING))
def test_plans_reach_the_paths_they_pin(name):
    seen: dict = {}
    restarted = 0
    for plan in ("delay", "pipeline", "crash"):
        for seed in SEEDS:
            sink = RingBufferSink(capacity=1_000_000)
            result = run_cell(name, plan, seed, tracer=Tracer([sink]))
            restarted += sum(result.restarts.values())
            for rec in sink.records:
                seen[rec.name] = seen.get(rec.name, 0) + 1
    assert seen.get("fault.release", 0) > 0
    assert seen.get("fault.flush", 0) > 0
    assert seen.get("supervise.restart", 0) == restarted > 0


if __name__ == "__main__":
    for cell in CELLS:
        print(f'    "{"/".join(map(str, cell))}": {cell_digests(*cell)!r},')
