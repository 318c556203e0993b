"""Process-parallel conformance grids.

Every cell of a ``plans × seeds`` conformance grid is an independent
computation: the harness builds a *fresh* fault-plan instance and a
fresh ``RandomOracle(seed)`` per cell, and no state flows between
cells.  That is exactly the network-of-independent-computations view
of Abramsky's generalized Kahn principle (see PAPERS.md): the grid is
an abstract asynchronous network whose nodes may run anywhere, in any
order, with the same result.  This module cashes that in — cells farm
out over ``multiprocessing`` workers and the serial/parallel results
are *bit-for-bit equal*, an equality the flight-recorder digests
(:meth:`~repro.kahn.runtime.RunResult.digest`) assert mechanically.

The one obstacle is that grid inputs are closures: agent factories,
plan factories and specs cannot (and should not) cross a process
boundary.  The solution is a **scenario registry**: a scenario is a
named builder that reconstructs the whole grid input set from nothing,
so the only thing shipped to a worker is a :class:`CellTask` — a
scenario *name*, a plan *name*, a seed and budgets, all picklable
scalars.  Results come back as ordinary
:class:`~repro.faults.harness.ConformanceCase` values with their
schedules, metrics and digests intact (the channel/event/sequence
types carry explicit pickle support for exactly this trip).

The built-in scenarios (``dfm`` and ``alternating_bit``) are built
from the process catalog (:mod:`repro.processes`), so the registry
needs nothing outside the package.  Workers are forked, so scenarios
registered by the calling process — including test-local ones — are
visible in the workers without any import gymnastics; on platforms
without ``fork`` the grid falls back to the serial executor.

Execution is supervised: the cells run on the :mod:`repro.par.fleet`
coordinator (per-cell deadlines, bounded retries with seeded-jitter
backoff, worker respawn on crash, poison-cell quarantine), so a single
wedged or dying worker degrades the report instead of aborting the
grid — see :class:`~repro.par.fleet.FleetPolicy`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro.core.description import DEFAULT_DEPTH
from repro.faults.harness import (
    INFRA_OUTCOMES,
    ConformanceCase,
    ConformanceReport,
    no_faults,
)
from repro.faults.supervision import RestartPolicy
from repro.par.fleet import (  # noqa: F401  (re-exported API)
    ChaosSpec,
    FleetPolicy,
    replay_quarantined_cell,
    run_fleet,
)

#: Rebuilds one scenario's full grid inputs from nothing (no captured
#: process state — workers call it after a fork or a fresh import).
ScenarioBuilder = Callable[[], "Scenario"]

_SCENARIOS: Dict[str, ScenarioBuilder] = {}


@dataclass
class Scenario:
    """Everything a worker needs to run one grid cell.

    ``agents``/``plans`` are factory mappings exactly as
    :func:`~repro.faults.harness.run_conformance` takes them; the
    remaining fields are that function's keyword arguments with the
    scenario's canonical values.
    """

    name: str
    agents: Mapping[str, Callable]
    channels: list
    spec: Any
    plans: Mapping[str, Callable]
    observe: Optional[Iterable] = None
    max_steps: int = 10_000
    policy: Optional[RestartPolicy] = field(
        default_factory=RestartPolicy)
    watchdog_limit: Optional[int] = 500
    depth: int = DEFAULT_DEPTH
    #: Plans the default grid leaves out: unfair plans whose cells are
    #: expected to livelock rather than conform.
    unfair: frozenset[str] = frozenset()

    @property
    def solve_channels(self) -> list:
        """The channels ``solve``/``query`` explore the spec over: the
        observed channels sorted by name, or else all channels."""
        if self.observe is None:
            return list(self.channels)
        return sorted(self.observe, key=lambda ch: ch.name)


def register_scenario(name: str,
                      builder: Optional[ScenarioBuilder] = None):
    """Register a scenario builder under ``name`` (decorator-friendly).

    Builders must be self-contained: a worker process calls them after
    a fork (or after importing this module), so they import what they
    need from the package and close over nothing from the caller.
    """
    if builder is None:
        def deco(fn: ScenarioBuilder) -> ScenarioBuilder:
            _SCENARIOS[name] = fn
            return fn
        return deco
    _SCENARIOS[name] = builder
    return builder


def get_scenario(name: str) -> Scenario:
    """Build a fresh :class:`Scenario` for ``name``."""
    try:
        builder = _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r} "
            f"(registered: {', '.join(sorted(_SCENARIOS)) or 'none'})"
        ) from None
    return builder()


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def has_scenario(name: Optional[str]) -> bool:
    return name is not None and name in _SCENARIOS


# -- the cell task ----------------------------------------------------------


@dataclass(frozen=True)
class CellTask:
    """One grid cell, by name: everything here pickles as scalars."""

    scenario: str
    plan: str
    seed: int
    max_steps: int
    record: bool = True
    traced: bool = False


def run_cell(task: CellTask) -> ConformanceCase:
    """Run one cell through the serial harness (fresh scenario, fresh
    plan, fresh oracle) — the parallel executor's unit of work, and by
    construction the same computation the serial grid performs."""
    case, _records = _cell_worker(task)
    return case


def _cell_worker(task: CellTask, ship=None):
    """Worker-side cell execution.

    Returns ``(case, trace_records)``: the classified case plus, when
    ``task.traced``, the cell's raw tracer records.

    With a ``ship`` callback the records are *streamed* instead of
    buffered: a :class:`~repro.obs.telemetry.StreamingSink` sends
    bounded, sequence-numbered batches through ``ship`` while the cell
    runs (in the fleet: over the worker's result pipe), the final
    partial batch is flushed before the case is returned, and the
    records slot of the return value is ``None`` — the coordinator's
    :class:`~repro.obs.telemetry.TelemetryMerger` already has them.
    Every batch carries the worker tracer's epoch
    (``time.perf_counter_ns`` is machine-wide monotonic on the
    platforms that offer ``fork``), so the coordinator can rebase
    worker timestamps onto its own timeline.
    """
    from repro.faults.harness import run_conformance

    scenario = get_scenario(task.scenario)
    tracer = None
    ring = None
    if task.traced:
        from repro.obs.tracer import Tracer

        if ship is not None:
            from repro.obs.telemetry import StreamingSink

            sink = StreamingSink(ship)
            tracer = Tracer([sink])
            sink.epoch_ns = tracer._epoch_ns
        else:
            from repro.obs.sinks import RingBufferSink

            ring = RingBufferSink()
            tracer = Tracer([ring])
    report = run_conformance(
        scenario.name, scenario.agents, scenario.channels,
        scenario.spec, {task.plan: scenario.plans[task.plan]},
        seeds=[task.seed], observe=scenario.observe,
        max_steps=task.max_steps, policy=scenario.policy,
        watchdog_limit=scenario.watchdog_limit, depth=scenario.depth,
        tracer=tracer, record=task.record,
    )
    [case] = report.cases
    if tracer is not None:
        tracer.close()      # streaming: flush the final partial batch
    return case, (list(ring) if ring is not None else None)


# -- the parallel grid ------------------------------------------------------


def run_conformance_parallel(scenario: str,
                             seeds: Iterable[int],
                             plans: Optional[Iterable[str]] = None,
                             max_steps: Optional[int] = None,
                             workers: Optional[int] = None,
                             record: bool = True,
                             tracer=None,
                             cache=None,
                             fleet: Optional[FleetPolicy] = None,
                             status=None
                             ) -> ConformanceReport:
    """Run a registered scenario's ``plans × seeds`` grid over
    ``workers`` processes.

    ``plans`` selects plan *names* (default: the scenario's default
    grid, every plan outside :attr:`Scenario.unfair`); workers rebuild
    the actual factories from the registry, so nothing unpicklable
    crosses the process boundary in either direction except the
    results themselves.  Cells stream back in grid order and the
    report is indistinguishable from the serial one — same outcomes,
    same ``Schedule`` digests — except that ``wall_clock_s`` is what
    an observer actually waited, not the summed per-cell compute (see
    :meth:`~repro.faults.harness.ConformanceReport.total_elapsed_s`).

    ``workers=None`` uses ``os.process_cpu_count()`` — the CPUs this
    process may actually use (affinity masks, container quotas) — not
    the machine-wide count, falling back to ``os.cpu_count()`` on
    interpreters without it.  ``workers=1``, a single-cell grid, or a
    platform without ``fork`` all take the serial path, which is also
    the semantics-defining reference.  An empty grid (no seeds, or no
    selected plans) returns an empty — and therefore conforming —
    report without spinning up a pool.

    ``cache`` (a :class:`repro.cache.CacheStore`) is consulted in the
    parent *before* dispatch, through the same
    :func:`~repro.faults.harness.lookup_cell` the serial path uses:
    cached cells never reach the pool, and fresh results are stored
    back as they stream in.  All cache I/O and counters stay in the
    calling process.

    With a ``tracer`` attached, each fleet cell runs under its own
    in-worker tracer and streams its records back; the fleet commits
    an accepted attempt's records onto the caller's timeline
    (per-cell track suffixes keep the Perfetto rows apart).

    ``fleet`` (a :class:`~repro.par.fleet.FleetPolicy`) configures the
    supervised executor: per-cell deadlines, retry/backoff, chaos
    injection and quarantine.  A policy that *requires* its own worker
    processes (deadline, chaos or quarantine set) overrides the serial
    fallback even for one-worker or one-cell grids — those features
    need a separate, killable process.  Without ``fork`` the grid is
    always serial and such policies cannot be honoured.

    ``status`` (a :class:`~repro.obs.telemetry.FleetStatus`) receives
    live scoreboard updates — grid size, cache hits, per-cell
    completions, retries, streamed-record counts — for the
    ``python -m repro top`` view.  It is written in place; a display
    thread may snapshot it concurrently.
    """
    started = time.monotonic()
    built = get_scenario(scenario)
    plan_names = (list(plans) if plans is not None
                  else [p for p in built.plans if p not in built.unfair])
    unknown = [p for p in plan_names if p not in built.plans]
    if unknown:
        raise KeyError(
            f"scenario {scenario!r} has no plan(s) {unknown!r} "
            f"(available: {sorted(built.plans)})")
    seed_list = list(seeds)
    steps = built.max_steps if max_steps is None else max_steps
    if workers is None:
        workers = getattr(os, "process_cpu_count",
                          os.cpu_count)() or 1
    traced = tracer is not None and getattr(tracer, "enabled", False)
    tasks = [
        CellTask(scenario=scenario, plan=plan, seed=seed,
                 max_steps=steps, record=record, traced=traced)
        for plan in plan_names for seed in seed_list
    ]
    if status is not None:
        status.scenario = built.name
        status.total = len(tasks)
    if not tasks:
        report = ConformanceReport(network=built.name)
        report.wall_clock_s = time.monotonic() - started
        if status is not None:
            status.finished = True
        return report
    workers = max(1, min(int(workers), len(tasks)))
    fork_ok = "fork" in multiprocessing.get_all_start_methods()
    force_fleet = fleet is not None and fleet.needs_fleet and fork_ok
    if (workers == 1 or len(tasks) < 2 or not fork_ok) \
            and not force_fleet:
        from repro.faults.harness import run_conformance

        tally = None
        if status is not None:
            # one cell runs at a time, in this process
            status.workers = 1
            status.on_dispatch()

            def tally(case: ConformanceCase) -> None:
                # the scoreboard follows the grid cell by cell,
                # counting hits and misses as the fleet does
                if cache is not None and not case.cached:
                    status.cache_misses += 1
                status.on_complete(case.outcome, case.elapsed_s,
                                   cached=case.cached)

        # serial reference path; the harness does its own cache
        # consult/store with the same keys, so hand it the store and
        # the full grid
        report = run_conformance(
            built.name, built.agents, built.channels, built.spec,
            {p: built.plans[p] for p in plan_names}, seed_list,
            observe=built.observe, max_steps=steps,
            policy=built.policy, watchdog_limit=built.watchdog_limit,
            depth=built.depth, tracer=tracer, record=record,
            cache=cache, on_case=tally,
        )
        report.wall_clock_s = time.monotonic() - started
        if status is not None:
            status.on_settled()
            status.finished = True
        return report

    # fleet path: consult the cache in the parent, dispatch only the
    # misses, store fresh results back as they stream in
    cell_keys: Dict[int, Any] = {}
    cases: Dict[int, ConformanceCase] = {}
    if cache is not None:
        from repro.cache.keys import grid_facets
        from repro.faults.harness import lookup_cell

        observed = (set(built.observe)
                    if built.observe is not None else None)
        facets = grid_facets(
            built.name, list(built.channels), observed, steps,
            built.policy, built.watchdog_limit, built.depth)
        for i, task in enumerate(tasks):
            key, case = lookup_cell(cache, facets, task.plan,
                                    task.seed, task.record)
            if case is not None:
                cases[i] = case
                if status is not None:
                    status.on_complete(case.outcome, 0.0, cached=True)
            else:
                cell_keys[i] = key
    pending = [(i, t) for i, t in enumerate(tasks) if i not in cases]
    if status is not None:
        status.cache_misses = len(cell_keys)
        status.workers = min(workers, max(1, len(pending)))

    def finish():
        report = ConformanceReport(network=built.name)
        report.cases = [cases[i] for i in range(len(tasks))]
        report.wall_clock_s = time.monotonic() - started
        if status is not None:
            status.finished = True
        return report

    if not pending:
        return finish()
    policy = fleet if fleet is not None else FleetPolicy()

    def on_case(i: int, case: ConformanceCase) -> None:
        # fires per cell in completion order — completed results are
        # retained here even if later workers die mid-grid
        cases[i] = case
        if i in cell_keys and case.outcome not in INFRA_OUTCOMES:
            cache.put("cell", cell_keys[i], case.to_cache_payload())

    _, fleet_stats = run_fleet(
        pending, workers=workers, policy=policy, tracer=tracer,
        on_case=on_case, status=status)
    report = finish()
    report.fleet_stats = fleet_stats
    return report


# -- built-in scenarios ------------------------------------------------------


@register_scenario("dfm")
def _build_dfm() -> Scenario:
    """The §2.2 discriminated fair merge under drop faults.

    Sized so one cell is real work (a long source stream checked
    against the combined description to the default depth): the grid
    is what the parallel executor should visibly accelerate.
    """
    from repro.channels.channel import Channel
    from repro.core.description import combine
    from repro.faults.models import DropFault
    from repro.faults.plan import FaultPlan
    from repro.kahn.agents import dfm_agent, source_agent
    from repro.processes.merge import dfm_descriptions

    b = Channel("b", alphabet={0, 2})
    c = Channel("c", alphabet={1, 3})
    d = Channel("d", alphabet={0, 1, 2, 3})
    spec = combine(dfm_descriptions(b, c, d), name="dfm")
    feed = [0, 2] * 40

    def drop(seed: int = 1, p: float = 0.4):
        return FaultPlan(
            {b: DropFault(seed=seed, p=p, max_consecutive_drops=2)},
            name="drop")

    return Scenario(
        name="dfm",
        agents={"eb": lambda: source_agent(b, feed),
                "dfm": lambda: dfm_agent(b, c, d)},
        channels=[b, c, d],
        spec=spec,
        plans={"none": lambda: None,
               "drop": drop,
               "heavy-drop": lambda: drop(seed=3, p=0.7)},
        max_steps=2000,
        depth=192,
    )


@register_scenario("alternating_bit")
def _build_alternating_bit() -> Scenario:
    """The fault-injected ABP grid over the direct wiring of
    :mod:`repro.processes.alternating_bit`.

    The sender never gives up, so every fair-plan cell conforms and the
    unfair ``black-hole`` plan (left out of the default grid) livelocks.
    """
    from repro.processes import alternating_bit as abp

    return Scenario(
        name="abp-direct",
        agents=abp.direct_agents(abp.MESSAGES, retransmit_limit=None),
        channels=abp.FAULTY_CHANNELS,
        spec=abp.service_spec(abp.MESSAGES).combined(),
        plans={
            "no-faults": no_faults,
            "fair-loss": lambda: abp.fair_loss_plan(seed=11),
            "heavy-loss": lambda: abp.fair_loss_plan(seed=23, p=0.5),
            "loss+dup": lambda: abp.loss_and_duplication_plan(seed=5),
            "black-hole": abp.unfair_loss_plan,
        },
        observe={abp.OUT},
        max_steps=4000,
        watchdog_limit=600,
        unfair=frozenset({"black-hole"}),
    )
