"""Conformance harness: a network under a grid of fault plans.

The paper's descriptions are *specifications*; the harness is the
operational test bench that checks an implementation against one under
adversity.  For every cell of ``plans × seeds`` it runs the network in
a :class:`~repro.faults.supervision.SupervisedRuntime` and classifies
the outcome:

* ``conforms`` — the run quiesced and its (projected) trace is a
  smooth solution of the specification;
* ``violation`` — the run quiesced but the checker rejects the trace
  (the fault broke the implementation in a spec-visible way);
* ``livelock`` — the watchdog fired (the fault starved the network);
* ``exhausted`` — the step budget ran out before quiescence.

Whether a ``livelock`` is a pass or a fail depends on the scenario
(an unfair-loss grid *should* livelock); callers assert on the
report's outcome counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.channels.channel import Channel
from repro.core.description import DEFAULT_DEPTH
from repro.faults.plan import FaultPlan, PlanFactory
from repro.faults.supervision import (
    RestartPolicy,
    SupervisedRunResult,
    run_supervised,
)
from repro.kahn.runtime import AgentFactory
from repro.kahn.scheduler import RandomOracle
from repro.obs.recorder import (
    RecordingOracle,
    Schedule,
    record_fault_rng,
)
from repro.obs.replay import replay_supervised
from repro.obs.tracer import NULL_TRACER

#: A no-fault grid cell (the control column of every grid).
def no_faults() -> Optional[FaultPlan]:
    return None


#: Outcomes produced by the *execution substrate*, not the semantics:
#: the cell never ran to classification (worker killed, deadline hit,
#: attempts exhausted).  They mark the report ``degraded`` but are not
#: conformance verdicts — exit-status logic and serial≡parallel digest
#: claims apply to the surviving (non-infra) cells.
INFRA_OUTCOMES = frozenset({"timeout", "crashed", "quarantined"})


@dataclass
class ConformanceCase:
    """One grid cell: a plan, a seed, and the classified outcome."""

    plan: str
    seed: int
    #: conforms | violation | livelock | exhausted — or, from the
    #: supervised fleet, an infrastructure outcome (INFRA_OUTCOMES):
    #: timeout | crashed | quarantined
    outcome: str
    #: the live run result — ``None`` for a cache-served cell, whose
    #: run was skipped entirely (its digest survives in
    #: ``schedule.meta['digest']`` / :meth:`run_digest`)
    result: Optional[SupervisedRunResult]
    detail: str = ""
    #: wall-clock seconds for this cell (``time.monotonic`` based,
    #: matching the solver's monotonic deadlines)
    elapsed_s: float = 0.0
    #: the run's metrics summary (populated when the grid is traced),
    #: so a failing cell ships its own explanation
    metrics: dict = field(default_factory=dict)
    #: the cell's recorded :class:`~repro.obs.recorder.Schedule`
    #: (populated when the grid runs with ``record=True``, the
    #: default) — a failing cell ships its own repro; feed it to
    #: :func:`replay_conformance_case`
    schedule: Optional[Schedule] = None
    #: this cell was served from a persistent cache store instead of
    #: being executed (outcome/detail/schedule are the original run's)
    cached: bool = False
    #: execution attempts the fleet spent on this cell (1 on the
    #: serial path and for first-try parallel successes)
    attempts: int = 1

    @property
    def failed(self) -> bool:
        """Anything but ``conforms`` is a failure to diagnose."""
        return self.outcome != "conforms"

    @property
    def infra_failure(self) -> bool:
        """The execution substrate failed this cell (timeout, worker
        crash, quarantine) — the semantics never classified it."""
        return self.outcome in INFRA_OUTCOMES

    def run_digest(self) -> Optional[str]:
        """The underlying run's content digest — live or cached."""
        if self.result is not None:
            return self.result.digest()
        if self.schedule is not None:
            return self.schedule.meta.get("digest")
        return None

    def __str__(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        mark = " [cached]" if self.cached else ""
        if self.attempts > 1:
            mark += f" [{self.attempts} attempts]"
        return (f"[{self.plan} × seed {self.seed}] "
                f"{self.outcome}{tail}{mark}")

    # -- cache round-trip ----------------------------------------------------

    def to_cache_payload(self) -> dict:
        """The JSON-ready slice of this case a warm grid run needs to
        be bit-for-bit equal to the cold one: outcome, detail and the
        recorded schedule (whose digest *is* the per-cell digest), plus
        the original compute time for reporting."""
        return {
            "plan": self.plan,
            "seed": self.seed,
            "outcome": self.outcome,
            "detail": self.detail,
            "elapsed_s": self.elapsed_s,
            "run_digest": self.run_digest(),
            "schedule": (self.schedule.to_dict()
                         if self.schedule is not None else None),
        }

    @classmethod
    def from_cache_payload(cls, payload: dict) -> "ConformanceCase":
        """Rebuild a cache-served case (``cached=True``, no live
        result).  ``elapsed_s`` is zeroed — the warm cell cost nothing;
        the original compute time rides in the payload for reporting.
        Raises ``ValueError``/``KeyError`` on malformed payloads (the
        store's caller maps that to a miss)."""
        schedule = payload.get("schedule")
        return cls(
            plan=str(payload["plan"]),
            seed=int(payload["seed"]),
            outcome=str(payload["outcome"]),
            result=None,
            detail=str(payload.get("detail", "")),
            elapsed_s=0.0,
            schedule=(Schedule.from_dict(schedule)
                      if schedule is not None else None),
            cached=True,
        )


@dataclass
class ConformanceReport:
    """All cells of one ``plans × seeds`` conformance grid."""

    network: str
    cases: list[ConformanceCase] = field(default_factory=list)
    #: wall-clock seconds for the whole grid, measured around the run
    #: (under a parallel executor this is what an observer waits, and
    #: is strictly less than the summed per-cell compute)
    wall_clock_s: float = 0.0
    #: fleet telemetry from the supervised parallel executor
    #: (spawns/retries/timeouts/quarantines — see
    #: :func:`repro.par.fleet.run_fleet`); ``None`` on the serial path
    fleet_stats: Optional[dict] = None

    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for case in self.cases:
            counts[case.outcome] = counts.get(case.outcome, 0) + 1
        return counts

    def select(self, outcome: str,
               plan: Optional[str] = None) -> list[ConformanceCase]:
        return [c for c in self.cases
                if c.outcome == outcome
                and (plan is None or c.plan == plan)]

    @property
    def violations(self) -> list[ConformanceCase]:
        return self.select("violation")

    @property
    def livelocks(self) -> list[ConformanceCase]:
        return self.select("livelock")

    @property
    def all_conform(self) -> bool:
        """Every cell conforms — vacuously true for an empty grid
        (zero cells: nothing ran, nothing failed, exit 0)."""
        return all(c.outcome == "conforms" for c in self.cases)

    @property
    def cached_cases(self) -> list[ConformanceCase]:
        return [c for c in self.cases if c.cached]

    @property
    def degraded(self) -> bool:
        """The execution substrate lost cells (timeouts, crashes,
        quarantines): the grid's verdicts are incomplete — trust the
        surviving cells, rerun or replay the rest."""
        return any(c.infra_failure for c in self.cases)

    @property
    def surviving_cases(self) -> list[ConformanceCase]:
        """Cells the semantics actually classified (everything except
        infrastructure failures) — the domain of the serial ≡ parallel
        digest-equality claim on a degraded grid."""
        return [c for c in self.cases if not c.infra_failure]

    @property
    def genuine_failures(self) -> list[ConformanceCase]:
        """Failures of the *system under test* (violation / livelock /
        exhausted) as opposed to failures of the machinery running the
        grid — the set that should drive exit status."""
        return [c for c in self.cases
                if c.failed and not c.infra_failure]

    def digest(self) -> str:
        """Stable content hash of the grid's outcome: per cell (in
        grid order) the coordinate, the classified outcome and the
        schedule digest.  A warm, cache-served rerun of the same grid
        digests identically to the cold run — the bit-for-bit claim
        the cache smoke tests assert."""
        from repro.obs.recorder import stable_digest

        return stable_digest([
            [c.plan, c.seed, c.outcome,
             c.schedule.digest() if c.schedule is not None else None]
            for c in self.cases
        ])

    def surviving_digest(self) -> str:
        """:meth:`digest` restricted to the surviving cells — on a
        degraded grid this is the digest that must equal a serial
        run's digest over the same cells."""
        from repro.obs.recorder import stable_digest

        return stable_digest([
            [c.plan, c.seed, c.outcome,
             c.schedule.digest() if c.schedule is not None else None]
            for c in self.surviving_cases
        ])

    def total_elapsed_s(self) -> float:
        """Total per-cell *compute*: the sum of per-cell monotonic
        timings.  This is CPU-side work, not grid wall-clock — under a
        parallel executor the cells overlap, so this sum exceeds
        :attr:`wall_clock_s`; for the true elapsed time of the grid use
        ``wall_clock_s``."""
        return sum(c.elapsed_s for c in self.cases)

    def summary(self) -> str:
        counts = ", ".join(f"{k}: {v}"
                           for k, v in sorted(self.outcomes().items()))
        text = (f"conformance[{self.network}] "
                f"{len(self.cases)} runs — {counts}")
        if self.degraded:
            text += "  [DEGRADED]"
        return text


def run_conformance(network: str,
                    agents: Mapping[str, AgentFactory],
                    channels: Iterable[Channel],
                    spec,
                    plans: Mapping[str, PlanFactory],
                    seeds: Iterable[int],
                    observe: Optional[Iterable[Channel]] = None,
                    max_steps: int = 10_000,
                    policy: Optional[RestartPolicy] = RestartPolicy(),
                    watchdog_limit: Optional[int] = 500,
                    depth: int = DEFAULT_DEPTH,
                    tracer=None,
                    record: bool = True,
                    cache=None,
                    on_case: Optional[
                        Callable[[ConformanceCase], None]] = None
                    ) -> ConformanceReport:
    """Run ``agents`` under every ``plan × seed`` cell and check every
    quiescent trace against ``spec``.

    ``spec`` is anything with ``is_smooth_solution(trace, depth)`` — a
    :class:`~repro.core.description.Description` or a
    ``DescriptionSystem``.  ``observe`` projects traces onto the
    spec-visible channels first (e.g. just the delivery channel of a
    protocol); plans are *factories* because fault models are stateful
    and each run needs a fresh, identically-seeded instance.

    With ``record=True`` (the default — recording is list appends, so
    leave it on) every cell's oracle decisions and fault RNG draws
    are captured and attached as ``case.schedule``: a grid failure
    ships its own repro, re-executable bit-for-bit with
    :func:`replay_conformance_case`.

    This is the serial executor and the semantic reference: cells run
    one after another in this process.  To farm the independent cells
    out over processes, name a registered scenario and call
    :func:`repro.par.run_conformance_parallel`; per-cell outcomes and
    schedule digests are identical either way (each cell is a fresh
    plan instance plus a fresh ``RandomOracle(seed)`` in both
    executors).

    ``cache`` (a :class:`repro.cache.CacheStore`) skips cells whose
    cached case exists: a hit appends the recorded case with
    ``cached=True`` (same outcome, same schedule digest — the warm
    report digests identically to the cold one) without running the
    cell; misses run normally and are stored back.  Cells are keyed by
    the grid facets (network, channel alphabets, observation set,
    budgets, policy) plus ``(plan, seed, record)`` — see
    :mod:`repro.cache.keys`.

    ``on_case`` is called with each cell's case, cached or run, as
    soon as the report holds it, so a live view follows the grid cell
    by cell.
    """
    grid_started = time.monotonic()
    channel_list = list(channels)
    observed = set(observe) if observe is not None else None
    report = ConformanceReport(network=network)
    tracer = tracer if tracer is not None else NULL_TRACER
    facets = None
    if cache is not None:
        from repro.cache.keys import grid_facets

        facets = grid_facets(network, channel_list, observed,
                             max_steps, policy, watchdog_limit, depth)
    with tracer.span("harness.grid", category="harness",
                     track="harness", network=network,
                     plans=sorted(plans)):
        for plan_name, make_plan in plans.items():
            for seed in seeds:
                cell_key = None
                if facets is not None:
                    cell_key, case = lookup_cell(cache, facets,
                                                 plan_name, seed, record)
                    if case is not None:
                        if tracer.enabled:
                            tracer.event(
                                "cache.hit", category="cache",
                                track="harness", plan=plan_name,
                                seed=seed, outcome=case.outcome)
                        report.cases.append(case)
                        if on_case is not None:
                            on_case(case)
                        continue
                    if tracer.enabled:
                        tracer.event(
                            "cache.miss", category="cache",
                            track="harness", plan=plan_name,
                            seed=seed)
                started = time.monotonic()
                with tracer.span("harness.cell", category="harness",
                                 track="harness", plan=plan_name,
                                 seed=seed) as cell_span:
                    plan = make_plan()
                    oracle: object = RandomOracle(seed)
                    schedule = None
                    if record:
                        recording = RecordingOracle(oracle)
                        schedule = recording.schedule
                        schedule.meta.update(
                            network=network, plan=plan_name,
                            seed=seed, max_steps=max_steps,
                            watchdog_limit=watchdog_limit,
                        )
                        if plan is not None:
                            record_fault_rng(plan, schedule)
                        oracle = recording
                    result = run_supervised(
                        dict(agents), channel_list, oracle,
                        max_steps=max_steps, fault_plan=plan,
                        policy=policy,
                        watchdog_limit=watchdog_limit,
                        tracer=tracer,
                    )
                    case = _classify(
                        plan_name, seed, result, spec, observed,
                        depth)
                    if schedule is not None:
                        schedule.meta["outcome"] = case.outcome
                        schedule.meta["digest"] = result.digest()
                        case.schedule = schedule
                    cell_span.annotate(outcome=case.outcome)
                case.elapsed_s = time.monotonic() - started
                case.metrics = result.metrics
                report.cases.append(case)
                if cell_key is not None:
                    cache.put("cell", cell_key,
                              case.to_cache_payload())
                if on_case is not None:
                    on_case(case)
    report.wall_clock_s = time.monotonic() - grid_started
    return report


def lookup_cell(cache, facets: Mapping, plan_name: str, seed: int,
                record: bool) -> Tuple[dict, Optional[ConformanceCase]]:
    """One grid cell's cache key and, on a hit, its cached case.

    Both executors consult the store through here, so a cell is keyed
    and rebuilt the same way wherever it would run.  A malformed
    payload, or one whose coordinate disagrees with the requested cell
    (a hash collision), counts as a miss: the case slot is ``None``.
    """
    from repro.cache.keys import cell_cache_key

    key = cell_cache_key(facets, plan_name, seed, record)
    payload = cache.get("cell", key)
    if payload is None:
        return key, None
    try:
        case = ConformanceCase.from_cache_payload(payload)
    except (KeyError, TypeError, ValueError):
        return key, None
    if case.plan != plan_name or case.seed != seed:
        return key, None
    return key, case


def replay_conformance_case(schedule: Schedule,
                            agents: Mapping[str, AgentFactory],
                            channels: Iterable[Channel],
                            spec,
                            plans: Mapping[str, PlanFactory],
                            observe: Optional[Iterable[Channel]] = None,
                            policy: Optional[RestartPolicy] = RestartPolicy(),
                            depth: int = DEFAULT_DEPTH,
                            tracer=None,
                            fallback=None) -> ConformanceCase:
    """Re-execute one recorded grid cell and re-classify its outcome.

    ``schedule`` is a ``case.schedule`` from a recorded grid (or the
    same JSON reloaded); ``plans`` must contain the recorded plan name
    so a fresh, identically-seeded plan can be rebuilt — its RNG draws
    are then replayed from the schedule, so even a drifted plan
    factory is caught as a divergence.  Strict unless ``fallback`` is
    given.  The round-trip guarantee: the returned case has the same
    ``outcome`` and its ``result.digest()`` equals the recorded
    ``schedule.meta["digest"]``.
    """
    plan_name = schedule.meta["plan"]
    if plan_name not in plans:
        raise KeyError(
            f"recorded plan {plan_name!r} is not in the given plan "
            f"factories ({sorted(plans)})"
        )
    replay = replay_supervised(
        schedule, dict(agents), list(channels),
        fault_plan=plans[plan_name](), policy=policy, tracer=tracer,
        fallback=fallback)
    observed = set(observe) if observe is not None else None
    case = _classify(plan_name, schedule.meta.get("seed", -1),
                     replay.result, spec, observed, depth)
    case.schedule = schedule
    return case


def _classify(plan_name: str, seed: int,
              result: SupervisedRunResult, spec,
              observed: Optional[set], depth: int) -> ConformanceCase:
    if result.watchdog_fired:
        return ConformanceCase(
            plan_name, seed, "livelock", result,
            detail=f"watchdog after {result.steps} steps")
    if not result.quiescent:
        return ConformanceCase(
            plan_name, seed, "exhausted", result,
            detail=f"no quiescence within {result.steps} steps")
    trace = result.trace
    if observed is not None:
        trace = trace.project(observed)
    if spec.is_smooth_solution(trace, depth):
        detail = ""
        if result.failed_agents:
            detail = "failed agents: " + ", ".join(result.failed_agents)
        return ConformanceCase(plan_name, seed, "conforms", result,
                               detail=detail)
    return ConformanceCase(
        plan_name, seed, "violation", result,
        detail=_rejection_detail(spec, trace, depth))


def _rejection_detail(spec, trace, depth: int) -> str:
    """Why ``spec`` rejected ``trace``: the first failing condition of
    its reference ``check``, or the whole trace for a spec without
    one.  Only rejected traces pay for the reference check."""
    check = getattr(spec, "check", None)
    if check is None:
        return f"trace rejected by spec: {trace!r}"
    verdict = check(trace, depth)
    violation = verdict.first_violation
    if violation is None:
        reason = str(verdict.limit)
    else:
        reason = (f"smoothness fails at |v| = {violation.v.length()}: "
                  f"f(v) = {violation.lhs_of_v!r} ⋢ "
                  f"g(u) = {violation.rhs_of_u!r}")
    return f"trace rejected by spec: {reason}"
