"""Tests for repro.par.fleet — the supervised grid coordinator.

The fleet's contract has three legs: (1) on a clean grid it is
invisible — same outcomes, same bit-for-bit schedule digests as the
serial harness; (2) under injected chaos (worker SIGKILLs, wedged
cells) it degrades instead of aborting — completed results are never
lost, failed cells retry with deterministic backoff, poison cells are
quarantined into re-executable bundles; (3) everything it does is a
pure function of the seeds, so a chaotic run replays exactly.
"""

import json
import time

import pytest

from repro import par
from repro.faults.harness import INFRA_OUTCOMES
from repro.faults.models import ChannelFault
from repro.faults.plan import FaultPlan
from repro.par import CellTask, ChaosSpec, FleetPolicy
from repro.par.fleet import replay_quarantined_cell, run_fleet

FORK_AVAILABLE = "fork" in __import__(
    "multiprocessing").get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="fleet executor requires fork")

#: Fast retries so chaos tests don't sleep through real backoff.
FAST = dict(backoff_unit_s=0.002)


def _grid_tasks(seeds=(0,)):
    sc = par.get_scenario("dfm")
    return [CellTask("dfm", plan, seed, sc.max_steps)
            for plan in sc.plans for seed in seeds]


class _WedgeFault(ChannelFault):
    """Wedges the worker on first delivery — deadline-test fuel."""

    def on_send(self, message):
        time.sleep(600)
        return [message]  # pragma: no cover - killed long before


def _build_wedge() -> par.Scenario:
    sc = par.get_scenario("dfm")
    b = sc.channels[0]
    return par.Scenario(
        name="fleet-wedge", agents=sc.agents, channels=sc.channels,
        spec=sc.spec,
        plans={"none": sc.plans["none"],
               "wedge": lambda: FaultPlan({b: _WedgeFault()},
                                          name="wedge")},
        max_steps=sc.max_steps, depth=sc.depth)


@pytest.fixture
def wedge_scenario():
    par.register_scenario("fleet-wedge", _build_wedge)
    yield "fleet-wedge"
    par._SCENARIOS.pop("fleet-wedge", None)


class TestChaosSpec:
    def test_parse(self):
        spec = ChaosSpec.parse("kill-worker:0.3", seed=7)
        assert spec.kill_worker_p == 0.3
        assert spec.seed == 7
        assert ChaosSpec.parse("kill-worker").kill_worker_p == 0.2

    @pytest.mark.parametrize("bad", [
        "drop-disk:0.3", "kill-worker:nope", "kill-worker:1.5",
        "kill-worker:-0.1",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ChaosSpec.parse(bad)

    def test_kill_decision_is_deterministic(self):
        spec = ChaosSpec(kill_worker_p=0.5, seed=3)
        task = CellTask("dfm", "drop", 1, 2000)
        assert spec.kills(task, 1) == spec.kills(task, 1)
        # the decision is per (cell, attempt): across many cells and
        # attempts both outcomes occur at p=0.5
        decisions = {spec.kills(CellTask("dfm", "drop", s, 2000), a)
                     for s in range(10) for a in (1, 2)}
        assert decisions == {True, False}

    def test_zero_probability_never_kills(self):
        spec = ChaosSpec(kill_worker_p=0.0, seed=3)
        task = CellTask("dfm", "drop", 1, 2000)
        assert not any(spec.kills(task, a) for a in range(1, 20))


class TestCleanFleet:
    def test_matches_serial_bit_for_bit(self):
        serial = par.run_conformance_parallel(
            "dfm", seeds=range(2), workers=1)
        fleet = par.run_conformance_parallel(
            "dfm", seeds=range(2), workers=2)
        assert fleet.digest() == serial.digest()
        assert not fleet.degraded
        assert fleet.fleet_stats["completed"] == len(serial.cases)
        assert fleet.fleet_stats["retries"] == 0
        assert fleet.fleet_stats["respawns"] == 0

    def test_single_cell_forced_through_fleet(self):
        # a needs_fleet policy overrides the serial fallback even for
        # a one-cell, one-worker grid
        sc = par.get_scenario("dfm")
        report = par.run_conformance_parallel(
            "dfm", seeds=[0], plans=["none"], workers=1,
            fleet=FleetPolicy(cell_timeout_s=30.0, **FAST))
        assert len(report.cases) == 1
        assert report.all_conform
        assert report.fleet_stats is not None
        serial = par.run_conformance_parallel(
            "dfm", seeds=[0], plans=["none"], workers=1)
        assert report.digest() == serial.digest()
        assert sc.plans  # fixture sanity

    def test_traced_fleet_merges_and_emits_events(self):
        from repro.obs.sinks import RingBufferSink
        from repro.obs.tracer import Tracer

        ring = RingBufferSink()
        tracer = Tracer([ring])
        report = par.run_conformance_parallel(
            "dfm", seeds=[0], workers=2, tracer=tracer)
        assert report.all_conform
        names = {r.name for r in ring if r.kind == "event"}
        assert "fleet.spawn" in names
        assert "fleet.dispatch" in names
        tracks = {r.track for r in ring}
        assert any(t.startswith("fleet.w") for t in tracks)
        # per-cell worker records still merge with grid-cell suffixes
        for plan in par.get_scenario("dfm").plans:
            assert any(t.endswith(f"@{plan}×0") for t in tracks), plan


class TestChaosProperty:
    """The acceptance property: kill-worker chaos up to p=0.3 with
    retries >= 2 — grid completes, surviving digests bit-identical to
    serial, completed results never lost."""

    @pytest.mark.parametrize("chaos_seed", [1, 7, 13])
    def test_surviving_cells_bit_identical_to_serial(
            self, chaos_seed, tmp_path):
        serial = par.run_conformance_parallel(
            "dfm", seeds=range(2), workers=1)
        by_coord = {(c.plan, c.seed): c for c in serial.cases}
        policy = FleetPolicy(
            retries=2, quarantine_dir=str(tmp_path / "q"),
            chaos=ChaosSpec(kill_worker_p=0.3, seed=chaos_seed),
            **FAST)
        report = par.run_conformance_parallel(
            "dfm", seeds=range(2), workers=2, fleet=policy)
        assert len(report.cases) == len(serial.cases)
        for case in report.cases:
            if case.infra_failure:
                assert case.outcome == "quarantined"
                continue
            ref = by_coord[(case.plan, case.seed)]
            assert case.outcome == ref.outcome
            assert case.schedule.digest() == ref.schedule.digest()
        stats = report.fleet_stats
        assert stats["completed"] + stats["quarantined"] == \
            len(report.cases)
        if not report.degraded:
            assert report.digest() == serial.digest()
        assert report.surviving_digest() == serial.surviving_digest() \
            or report.degraded

    def test_retry_recovers_from_kills(self):
        # fresh coins per attempt: with p<1 and enough retries every
        # cell eventually completes; pick a seed where chaos does bite
        tasks = _grid_tasks(seeds=range(2))

        def recovers(spec):
            # some cell is killed on attempt 1, and every killed cell
            # flips clean coins on its retries
            killed = [t for t in tasks if spec.kills(t, 1)]
            return killed and not any(spec.kills(t, a)
                                      for t in killed
                                      for a in (2, 3, 4))

        chaos = next(
            spec for spec in
            (ChaosSpec(kill_worker_p=0.4, seed=s) for s in range(100))
            if recovers(spec))
        report = par.run_conformance_parallel(
            "dfm", seeds=range(2), workers=2,
            fleet=FleetPolicy(retries=3, chaos=chaos, **FAST))
        assert report.all_conform
        assert not report.degraded
        assert report.fleet_stats["crashes"] > 0
        assert report.fleet_stats["respawns"] > 0
        killed = [c for c in report.cases if c.attempts > 1]
        assert killed, "chosen chaos seed should have killed a cell"

    def test_completed_results_retained_when_worker_dies(self):
        # the satellite fix: a worker dying mid-grid must not discard
        # cells that already streamed back.  One worker runs the grid
        # serially; chaos kills exactly one later cell's first
        # attempt, so earlier completions are provably already in.
        tasks = _grid_tasks(seeds=range(2))
        target = tasks[3]

        def only_target(spec):
            hits = [t for t in tasks if spec.kills(t, 1)]
            return hits == [target] and not any(
                spec.kills(target, a) for a in (2, 3))

        chaos = next(
            spec for spec in
            (ChaosSpec(kill_worker_p=0.15, seed=s)
             for s in range(5000))
            if only_target(spec))
        report = par.run_conformance_parallel(
            "dfm", seeds=range(2), workers=1,
            fleet=FleetPolicy(retries=2, cell_timeout_s=60.0,
                              chaos=chaos, **FAST))
        assert report.all_conform
        assert report.fleet_stats["crashes"] == 1
        by_coord = {(c.plan, c.seed): c for c in report.cases}
        assert by_coord[(target.plan, target.seed)].attempts == 2
        others = [c for c in report.cases
                  if (c.plan, c.seed) != (target.plan, target.seed)]
        assert all(c.attempts == 1 for c in others)


class TestDeadlines:
    def test_wedged_cell_times_out_and_is_quarantined(
            self, wedge_scenario, tmp_path):
        qdir = tmp_path / "q"
        report = par.run_conformance_parallel(
            wedge_scenario, seeds=[0], workers=2,
            fleet=FleetPolicy(cell_timeout_s=0.4, retries=1,
                              quarantine_dir=str(qdir), **FAST))
        outcomes = report.outcomes()
        assert outcomes["quarantined"] == 1
        assert outcomes["conforms"] == 1  # the clean plan survived
        assert report.degraded
        assert report.fleet_stats["timeouts"] == 2  # 1 + 1 retry
        [lost] = [c for c in report.cases if c.infra_failure]
        assert lost.plan == "wedge"
        assert lost.attempts == 2
        assert "timeout" in lost.detail and "bundle" in lost.detail
        bundle = qdir / f"{wedge_scenario}-wedge-seed0"
        assert (bundle / "cell.json").is_file()

    def test_timeout_without_quarantine_dir(self, wedge_scenario):
        report = par.run_conformance_parallel(
            wedge_scenario, seeds=[0], plans=["wedge"], workers=1,
            fleet=FleetPolicy(cell_timeout_s=0.4, retries=0, **FAST))
        [case] = report.cases
        assert case.outcome == "timeout"
        assert case.result is None
        assert case.infra_failure


class TestQuarantine:
    @pytest.fixture
    def bundle(self, tmp_path):
        qdir = tmp_path / "q"
        policy = FleetPolicy(
            retries=1, quarantine_dir=str(qdir),
            chaos=ChaosSpec(kill_worker_p=1.0, seed=1), **FAST)
        report = par.run_conformance_parallel(
            "dfm", seeds=[0], plans=["drop"], workers=1,
            fleet=policy)
        [case] = report.cases
        assert case.outcome == "quarantined"
        return qdir / "dfm-drop-seed0"

    def test_bundle_layout(self, bundle):
        assert bundle.is_dir()
        cell = json.loads((bundle / "cell.json").read_text())
        assert cell["kind"] == "quarantined-cell"
        assert cell["task"] == {"scenario": "dfm", "plan": "drop",
                                "seed": 0, "max_steps": 2000,
                                "record": True}
        assert cell["final"] == {"outcome": "quarantined",
                                 "failure": "crashed"}
        assert len(cell["attempts"]) == 2
        for entry in cell["attempts"]:
            assert entry["failure"] == "crashed"
            # worker stderr (the chaos banner) was captured per attempt
            stderr = (bundle / entry["stderr_file"]).read_text()
            assert "chaos: SIGKILL" in stderr
        assert "python -m repro replay" in \
            (bundle / "README.md").read_text()

    def test_bundle_replays_and_reproduces(self, bundle):
        case, recorded, reproduced = replay_quarantined_cell(bundle)
        assert reproduced
        assert recorded["failure"] == "crashed"
        assert case.outcome == "crashed"
        assert case.attempts == 2  # same retry policy re-applied

    def test_replay_accepts_dir_or_cell_json(self, bundle):
        _, _, by_dir = replay_quarantined_cell(bundle)
        _, _, by_file = replay_quarantined_cell(bundle / "cell.json")
        assert by_dir == by_file

    def test_replay_rejects_non_bundle(self, tmp_path):
        bogus = tmp_path / "cell.json"
        bogus.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            replay_quarantined_cell(bogus)

    def test_infra_outcomes_never_cached(self, tmp_path):
        from repro.cache import CacheStore

        store = CacheStore(tmp_path / "cache")
        policy = FleetPolicy(
            retries=0, chaos=ChaosSpec(kill_worker_p=1.0, seed=1),
            quarantine_dir=str(tmp_path / "q"), **FAST)
        report = par.run_conformance_parallel(
            "dfm", seeds=[0], workers=2, fleet=policy, cache=store)
        assert all(c.outcome == "quarantined" for c in report.cases)
        assert store.counters()["write"] == 0
        # a later clean run must re-execute (cold) and cache normally
        clean = par.run_conformance_parallel(
            "dfm", seeds=[0], workers=2, cache=store)
        assert clean.all_conform
        assert not any(c.cached for c in clean.cases)
        assert store.counters()["write"] == len(clean.cases)


class TestBackoffDeterminism:
    def test_backoff_is_deterministic_per_cell(self):
        policy = FleetPolicy(jitter_seed=9)
        a = [policy.backoff_s(n, salt="dfm|drop|0")
             for n in range(1, 5)]
        b = [policy.backoff_s(n, salt="dfm|drop|0")
             for n in range(1, 5)]
        assert a == b
        # distinct cells de-synchronize under the same seed
        c = [policy.backoff_s(n, salt="dfm|drop|1")
             for n in range(1, 5)]
        assert a != c

    def test_run_fleet_validates_empty(self):
        cases, stats = run_fleet([], workers=4)
        assert cases == {}
        assert stats["completed"] == 0


class TestDegradedReporting:
    def test_report_flags_and_renderer(self, tmp_path):
        from repro.report import render_conformance_report

        policy = FleetPolicy(
            retries=0, chaos=ChaosSpec(kill_worker_p=1.0, seed=2),
            quarantine_dir=str(tmp_path / "q"), **FAST)
        report = par.run_conformance_parallel(
            "dfm", seeds=[0], workers=2, fleet=policy)
        assert report.degraded
        assert report.surviving_cases == []
        assert report.genuine_failures == []  # infra loss ≠ verdict
        assert not report.all_conform
        assert set(report.outcomes()) <= INFRA_OUTCOMES
        text = render_conformance_report(report)
        assert "DEGRADED" in text
        assert "LOST" in text
        assert "fleet workers:" in text
        assert "chaos: kill-worker:1.0" in text
        assert "FAIL" not in text  # no genuine verdicts to show

    def test_clean_report_not_degraded(self):
        report = par.run_conformance_parallel(
            "dfm", seeds=[0], workers=1)
        assert not report.degraded
        assert report.surviving_cases == report.cases
        assert "DEGRADED" not in report.summary()


class TestWorkerErrors:
    def test_raising_cell_is_retried_then_reported(self, tmp_path):
        # a scenario whose builder raises inside the worker: the err
        # path (exception, not death) must also retry and quarantine
        name = "fleet-raises"

        def build():
            raise RuntimeError("scenario exploded in the worker")

        par.register_scenario(name, build)
        try:
            task = CellTask(name, "none", 0, 100)
            policy = FleetPolicy(
                retries=1, quarantine_dir=str(tmp_path / "q"), **FAST)
            cases, stats = run_fleet([(0, task)], workers=1,
                                     policy=policy)
            assert cases[0].outcome == "quarantined"
            assert stats["errors"] == 2
            assert stats["respawns"] == 0  # worker survived the raise
            cell = json.loads(
                (tmp_path / "q" / f"{name}-none-seed0" /
                 "cell.json").read_text())
            assert "scenario exploded" in \
                cell["attempts"][0]["detail"]
        finally:
            par._SCENARIOS.pop(name, None)


class TestFleetExposition:
    """``fleet_stats`` is where the fleet's failure counts live; the
    grid exposition exports each of them once, as ``fleet.stats.*``."""

    @staticmethod
    def assert_exported_once(summary):
        prefix = "fleet.stats."
        counted = {name[len(prefix):] for name in summary
                   if name.startswith(prefix)}
        assert not {f"fleet.{key}" for key in counted} & set(summary)

    def test_chaos_grid_exports_each_count_once(self):
        from repro.obs.telemetry import grid_metrics_summary

        # the kill pattern is a pure function of the chaos seed and
        # the grid: this one kills workers on the way
        policy = FleetPolicy(
            retries=2, chaos=ChaosSpec(kill_worker_p=0.3, seed=2),
            **FAST)
        report = par.run_conformance_parallel(
            "dfm", seeds=range(2), workers=2, fleet=policy)
        stats = report.fleet_stats
        summary = grid_metrics_summary(report)
        assert stats["crashes"] > 0
        assert summary["fleet.stats.crashes"] == stats["crashes"]
        assert summary["fleet.stats.retries"] == stats["retries"]
        self.assert_exported_once(summary)

    def test_raising_cell_exports_its_errors(self):
        from types import SimpleNamespace

        from repro.obs.telemetry import grid_metrics_summary

        name = "fleet-raises-exposed"

        def build():
            raise RuntimeError("scenario exploded in the worker")

        par.register_scenario(name, build)
        try:
            cases, stats = run_fleet(
                [(0, CellTask(name, "none", 0, 100))], workers=1,
                policy=FleetPolicy(retries=1, **FAST))
        finally:
            par._SCENARIOS.pop(name, None)
        summary = grid_metrics_summary(SimpleNamespace(
            cases=list(cases.values()), fleet_stats=stats))
        assert stats["errors"] == 2
        assert summary["fleet.stats.errors"] == stats["errors"]
        self.assert_exported_once(summary)
