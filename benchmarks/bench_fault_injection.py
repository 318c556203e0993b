"""[EXT] Fault-injection conformance grid over the direct-wired ABP.

Times the conformance harness (``repro.faults.harness``) running the
alternating-bit protocol against its service specification under a
grid of seeded channel fault plans, and the supervised runtime's
watchdog catching an unfair-loss livelock.  Rows reported:

* conformance outcomes per plan family (must be all-conform for fair
  plans);
* watchdog termination step vs. the raw step budget (the saving the
  supervision layer buys on pathological runs).

Seeds per cell default to a quick-mode count so this file is cheap
enough to run in CI; set ``FAULT_GRID_SEEDS`` for a denser grid.
"""

import os

import pytest
from conftest import banner, row

from repro.faults import run_conformance, run_supervised
from repro.kahn import RandomOracle
from repro.par import get_scenario
from repro.processes.alternating_bit import (
    FAULTY_CHANNELS,
    MESSAGES,
    OUT,
    direct_agents,
    service_spec,
    unfair_loss_plan,
)

SEEDS = range(int(os.environ.get("FAULT_GRID_SEEDS", "6")))

#: the registry's fair plans (its default grid)
_ABP = get_scenario("alternating_bit")
PLAN_FAMILIES = {name: plan for name, plan in _ABP.plans.items()
                 if name not in _ABP.unfair}


@pytest.mark.parametrize("plan_name", sorted(PLAN_FAMILIES))
def test_conformance_grid(benchmark, plan_name):
    spec = service_spec(MESSAGES)
    plans = {plan_name: PLAN_FAMILIES[plan_name]}

    def campaign():
        return run_conformance(
            "abp-direct", direct_agents(MESSAGES), FAULTY_CHANNELS,
            spec.combined(), plans, SEEDS,
            observe={OUT}, max_steps=4000, watchdog_limit=600,
        )

    report = benchmark(campaign)
    banner("EXT-FAULTS", f"ABP conformance under {plan_name}")
    row("runs", len(report.cases))
    row("outcomes", report.outcomes())
    assert report.all_conform, report.violations


def test_traced_grid_writes_jsonl():
    """With ``FAULT_GRID_TRACE=<path>`` set, re-run a small fair-loss
    grid with the structured tracer attached and write the JSONL event
    log there (CI uploads it as a workflow artifact)."""
    trace_path = os.environ.get("FAULT_GRID_TRACE")
    if trace_path is None:
        pytest.skip("set FAULT_GRID_TRACE=<path> to record a trace")
    from repro.obs import JsonlSink, RingBufferSink, Tracer

    ring = RingBufferSink()
    jsonl = JsonlSink(trace_path)
    tracer = Tracer([ring, jsonl])
    report = run_conformance(
        "abp-direct", direct_agents(MESSAGES), FAULTY_CHANNELS,
        service_spec(MESSAGES).combined(),
        {"fair-loss": PLAN_FAMILIES["fair-loss"]},
        seeds=range(2), observe={OUT}, max_steps=4000,
        watchdog_limit=600, tracer=tracer,
    )
    tracer.close()
    banner("EXT-OBS", "traced fair-loss grid → JSONL event log")
    row("trace records", len(ring))
    row("jsonl path", trace_path)
    row("cell wall-clock (ms)",
        [round(c.elapsed_s * 1e3, 2) for c in report.cases])
    assert len(ring) > 0
    assert jsonl.count == len(ring)
    assert report.all_conform, report.violations


def test_recorder_overhead_within_noise(benchmark):
    """Flight recording is list appends on the oracle/RNG hot path;
    its cost must stay within run-to-run noise so ``record=True`` can
    be the harness default.  Times the same fair-loss campaign with
    the recorder off and on and asserts a lenient ratio bound (the
    loose factor absorbs CI timer jitter on a ~10ms workload)."""
    import time

    spec = service_spec(MESSAGES).combined()
    plans = {"fair-loss": PLAN_FAMILIES["fair-loss"]}

    def campaign(record):
        return run_conformance(
            "abp-direct", direct_agents(MESSAGES), FAULTY_CHANNELS,
            spec, plans, SEEDS, observe={OUT}, max_steps=4000,
            watchdog_limit=600, record=record,
        )

    def measure(record, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            report = campaign(record)
            best = min(best, time.perf_counter() - started)
            assert report.all_conform, report.violations
        return best

    campaign(False)  # warm-up
    off = measure(False)
    on = measure(True)
    recorded = benchmark(lambda: campaign(True))
    decisions = sum(len(c.schedule) for c in recorded.cases)
    banner("EXT-OBS", "flight-recorder overhead on the fair-loss grid")
    row("recorder off (ms, best-of-3)", round(off * 1e3, 2))
    row("recorder on  (ms, best-of-3)", round(on * 1e3, 2))
    row("overhead ratio", round(on / off, 3))
    row("decisions recorded", decisions)
    assert decisions > 0
    assert on < off * 1.5 + 0.01, (
        f"recording cost {on / off:.2f}x the unrecorded campaign "
        f"({off * 1e3:.1f}ms -> {on * 1e3:.1f}ms)"
    )


def test_watchdog_beats_step_budget(benchmark):
    budget = 50_000

    def livelocked_run():
        return run_supervised(
            direct_agents(MESSAGES, retransmit_limit=None),
            FAULTY_CHANNELS, RandomOracle(3),
            max_steps=budget, fault_plan=unfair_loss_plan(),
            watchdog_limit=400,
        )

    result = benchmark(livelocked_run)
    banner("EXT-FAULTS", "watchdog vs. unfair-loss livelock")
    row("step budget", budget)
    row("terminated at step", result.steps)
    row("watchdog fired", result.watchdog_fired)
    assert result.watchdog_fired
    assert result.steps < budget // 10
