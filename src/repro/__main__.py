"""Command-line demo runner: ``python -m repro <command>``.

Commands:

* ``summary``        — library overview and experiment index;
* ``dfm``            — classify a few dfm histories and enumerate;
* ``anomaly``        — run the Brock–Ackermann analysis;
* ``fig3``           — the §2.3 x/y/z verdicts;
* ``zoo``            — one-line membership sample per catalog process;
* ``trace``          — run a scenario's default grid for one seed plus
  a depth-4 solve of its spec under one tracer, and write a
  Chrome-trace-event timeline (open it in https://ui.perfetto.dev)
  plus, optionally, a JSONL event log;
* ``record``         — flight-record one grid cell (scenario × plan ×
  seed: every oracle decision and fault RNG draw) into a schedule
  JSON;
* ``replay``         — re-execute a recorded schedule bit-for-bit and
  verify the run digest (exit 0 iff it matches); also replays a
  fleet quarantine bundle (a directory or its ``cell.json``),
  checking the recorded infrastructure failure reproduces;
* ``diff``           — first-divergence report between two recorded
  schedules and their (lenient) replays;
* ``shrink``         — delta-debug a failing schedule to a locally
  minimal one that preserves the verdict;
* ``grid``           — run a scenario's ``plans × seeds`` conformance
  grid (by default every plan outside ``Scenario.unfair``),
  optionally farmed over supervised worker processes
  (``--workers N``, with per-cell deadlines
  ``--cell-timeout``, bounded ``--retries``, ``--quarantine-dir``
  bundles for poison cells and a ``--chaos kill-worker:p``
  self-test) and optionally backed by the persistent result cache
  (``--cache`` / ``--cache-dir``); exit status reflects *genuine*
  non-conformance only — infrastructure losses degrade the report
  instead;
* ``solve``          — run the §3.3 solver on a scenario's
  specification, optionally resuming a truncated exploration from a
  checkpoint JSON (``--resume``) and/or writing one
  (``--checkpoint-out``); exits 0 iff the exploration completed;
* ``top``            — run a traced grid with a refreshing TTY
  scoreboard (cells done, retries, quarantines, cache hit-rate,
  trace records, ETA), then the final report; optionally writes the HTML
  flight-deck artifact;
* ``bench-append``   — extract the tracked rows from a
  ``BENCH_core.json`` snapshot and append a git-SHA-keyed entry to
  the ``BENCH_history.jsonl`` trajectory;
* ``bench-check``    — gate a fresh snapshot against the committed
  trajectory: exits 1 when a tracked row (solver depth-6 memoization,
  warm-grid speedup, fleet overhead, recorder overhead) regresses
  beyond its per-row tolerance.

Every scenario argument names an entry of the :mod:`repro.par`
registry, the one place a scenario's network, fault plans and
specification are defined.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

#: Depth bound of ``solve``/``query`` without ``--depth``, and of the
#: solve ``trace`` runs.
SOLVE_DEPTH = 4

#: ``--engine`` choice -> the solver's ``compiled`` argument.
ENGINES = {"auto": None, "reference": False, "compiled": True}


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``, so a
    negative bound or count is a usage error naming its flag (exit 2)
    instead of a run."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    return parse


def _seconds(text: str) -> float:
    """An argparse type: a duration in seconds no smaller than 0, so a
    negative or NaN budget is a usage error naming its flag (exit 2)
    instead of one that fires at once or never."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(
            f"must be at least 0, got {value}")
    return value


def cmd_summary() -> int:
    from repro import __version__
    from repro.report import render_table

    print(f"repro {__version__} — Equational Reasoning About "
          "Nondeterministic Processes (Misra, PODC 1989)")
    print()
    rows = [
        ("F1", "Figure 1 / §2.1", "two-copy loop, Kahn fixpoints"),
        ("F2", "Figure 2 / §2.2", "discriminated fair merge"),
        ("F3", "Figure 3 / §2.3", "doubling network, x/y/z"),
        ("F4", "Figure 4 / §2.4", "Brock–Ackermann anomaly"),
        ("F5", "Figure 5 / §4.5", "implication via random bit"),
        ("F6", "Figure 6 / §4.6", "fork via oracle"),
        ("F7", "Figure 7 / §4.10", "fair merge via tagging"),
        ("E1–E6", "§4 catalog", "CHAOS … random number"),
        ("T2/T4/T56", "§5–§7", "composition, fixpoint, elimination"),
        ("S33/S84", "§3.3/§8.4", "solver, induction"),
    ]
    print(render_table(["id", "paper artifact", "what"], rows))
    print("\nRegenerate: pytest benchmarks/ --benchmark-only -s")
    return 0


def cmd_dfm() -> int:
    from repro.core import solve
    from repro.par import get_scenario
    from repro.report import render_solver_result, render_verdict
    from repro.traces import Trace

    sc = get_scenario("dfm")
    b, _, d = sc.solve_channels
    for t in [
        Trace.from_pairs([(b, 0), (d, 0)]),
        Trace.from_pairs([(d, 0)]),
    ]:
        print(render_verdict(sc.spec.check(t)))
        print()
    print(render_solver_result(
        solve(sc.spec, sc.solve_channels, max_depth=SOLVE_DEPTH)))
    return 0


def cmd_anomaly() -> int:
    from repro.anomaly import analyse

    analysis = analyse()
    print("equation solutions:",
          [list(s) for s in analysis.equation_solutions])
    print("smooth solutions:  ",
          [list(s) for s in analysis.smooth_solutions])
    print("operational:       ",
          sorted(list(s) for s in analysis.operational_outputs))
    print("anomaly resolved:  ", analysis.resolved)
    return 0 if analysis.resolved else 1


def cmd_fig3() -> int:
    from repro.channels import Channel, Event
    from repro.core import combine
    from repro.processes.deterministic import doubling_descriptions
    from repro.seq import misra_x, misra_y, misra_z
    from repro.traces import Trace

    d = Channel("d")
    desc = combine(doubling_descriptions(d), name="fig3")

    def d_trace(seq):
        def gen():
            i = 0
            while True:
                try:
                    yield Event(d, seq.item(i))
                except IndexError:
                    return
                i += 1

        return Trace.lazy(gen())

    for name, seq in [("x", misra_x()), ("y", misra_y()),
                      ("z", misra_z())]:
        verdict = desc.check(d_trace(seq), depth=40)
        print(f"{name}: solves={verdict.is_solution} "
              f"smooth={verdict.is_smooth}")
    return 0


def cmd_zoo() -> int:
    from repro.processes import chaos, random_bit
    from repro.traces import Trace

    p = chaos.make()
    print(f"CHAOS traces to depth 2: {len(p.traces_upto(2))}")
    p = random_bit.make()
    print(f"RandomBit traces: "
          f"{sorted(repr(t) for t in p.traces_upto(2))}")
    print("(run examples/process_zoo.py for the full tour)")
    return 0


def _make_cache(enabled: bool, cache_dir: str | None,
                fsync: bool = False):
    """A :class:`repro.cache.CacheStore`, or ``None`` when disabled.

    Caching is opt-in on every command (``--cache``): a demo runner
    should not silently grow a dot-directory in the working tree.
    """
    if not enabled:
        return None
    from repro.cache import DEFAULT_CACHE_DIR, CacheStore

    return CacheStore(cache_dir or DEFAULT_CACHE_DIR, fsync=fsync)


def _resolve_scenario(name: str | None, plan_names=()):
    """The registered scenario ``name``, checked against the plan names
    a command was given.  Raises ``ValueError`` with the message to
    print (exit status 2) for an unknown scenario or plan."""
    from repro import par

    try:
        sc = par.get_scenario(name)
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} "
            f"(choices: {', '.join(par.scenario_names())})") from None
    missing = [p for p in plan_names if p not in sc.plans]
    if missing:
        raise ValueError(f"unknown plan(s) {', '.join(missing)} "
                         f"(choices: {', '.join(sorted(sc.plans))})")
    return sc


def cmd_trace(scenario: str, out: str | None, jsonl: str | None,
              seed: int, max_steps: int | None, use_cache: bool = False,
              cache_dir: str | None = None) -> int:
    """Record an instrumented run and export its Perfetto timeline.

    One tracer sees the scenario's default grid for one seed (harness,
    scheduler, runtime and fault spans per cell), then a depth-4 solve
    of the scenario's spec (solver spans).
    """
    from repro import par
    from repro.core import SmoothSolutionSolver
    from repro.obs import JsonlSink, RingBufferSink, Tracer, \
        write_chrome_trace

    sc = par.get_scenario(scenario)
    ring = RingBufferSink(capacity=500_000)
    sinks = [ring]
    if jsonl:
        sinks.append(JsonlSink(jsonl))
    tracer = Tracer(sinks)
    store = _make_cache(use_cache, cache_dir)
    report = par.run_conformance_parallel(
        scenario, seeds=[seed], max_steps=max_steps, workers=1,
        tracer=tracer, cache=store)
    for case in report.cases:
        print(f"{case}  [{case.elapsed_s * 1e3:.1f}ms]")
    solver = SmoothSolutionSolver.over_channels(
        sc.spec, sc.solve_channels, tracer=tracer, cache=store)
    result = solver.explore(SOLVE_DEPTH)
    print(f"solver: {result.nodes_explored} nodes, "
          f"{len(result.finite_solutions)} finite solution(s)")
    tracer.close()
    out = out or f"{scenario}.perfetto.json"
    n = write_chrome_trace(ring.records, out,
                           process_name=f"repro:{scenario}")
    print(f"wrote {n} trace events to {out}"
          + (f" (+ JSONL log at {jsonl})" if jsonl else ""))
    print("open in https://ui.perfetto.dev (or chrome://tracing)")
    if store is not None:
        counts = store.counters()
        print("cache: " + ", ".join(f"{k} {v}"
                                    for k, v in counts.items()))
    return 0


# -- flight recorder ----------------------------------------------------------
#
# A recording is one grid cell: ``record`` runs ``plan × seed`` of a
# registered scenario exactly as ``grid`` does and stamps the scenario
# name into ``meta["scenario"]``; ``replay``/``diff``/``why``/``shrink``
# rebuild the cell from that registry entry, so a schedule JSON is a
# self-contained repro.


def cmd_record(scenario: str, plan_name: str | None, seed: int,
               max_steps: int | None, out: str | None) -> int:
    """Flight-record one grid cell; write the schedule JSON.

    Without a plan name the scenario's first registered plan is used;
    without a step budget, the scenario's.
    """
    from repro import par

    try:
        sc = _resolve_scenario(scenario, [plan_name] if plan_name else [])
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    plan_name = plan_name or next(iter(sc.plans))
    case = par.run_cell(par.CellTask(
        scenario, plan_name, seed,
        sc.max_steps if max_steps is None else max_steps))
    schedule = case.schedule
    schedule.meta["scenario"] = scenario
    print(case)
    out = out or f"{scenario}.schedule.json"
    schedule.save(out)
    print(f"recorded {len(schedule)} decision(s) "
          f"(digest {schedule.meta['digest'][:16]}) to {out}")
    return 0


def _replay_schedule(schedule, lenient: bool, tracer=None):
    """Re-run a recorded grid cell, rebuilt from the registry entry
    named by its ``meta['scenario']``.

    Returns ``(outcome, result, recorded_outcome)``; raises
    ``KeyError`` when no registered scenario has that name.  ``tracer``
    instruments the replayed run — ``diff --explain`` and ``why``
    rebuild the happens-before graph from its event stream.
    """
    from repro import par
    from repro.faults import replay_conformance_case

    sc = par.get_scenario(schedule.meta.get("scenario"))
    fallback = None
    if lenient:
        from repro.kahn.scheduler import FirstOracle
        fallback = FirstOracle()
    case = replay_conformance_case(
        schedule, sc.agents, sc.channels, sc.spec, sc.plans,
        observe=sc.observe, policy=sc.policy, depth=sc.depth,
        tracer=tracer, fallback=fallback)
    return case.outcome, case.result, schedule.meta.get("outcome")


def _replay_witness_schedule(schedule) -> int:
    """Replay a solver witness path (``kind == "solver-path"``).

    Re-walks the recorded path through the scenario's §3.3 tree,
    checking each step's admissibility, then re-evaluates the limit
    condition; exit 0 iff the walk succeeds and the limit verdict
    matches the recorded one."""
    from repro.core import SmoothSolutionSolver
    from repro.obs.replay import ReplayDivergence

    try:
        sc = _resolve_scenario(schedule.meta.get("scenario")
                               or schedule.meta.get("description"))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    solver = SmoothSolutionSolver.over_channels(sc.spec,
                                                sc.solve_channels)
    try:
        trace = solver.replay_witness(schedule)
    except ReplayDivergence as exc:
        print(f"witness replay DIVERGED: {exc}")
        return 1
    limit = sc.spec.limit_holds(trace, solver.limit_depth)
    recorded = schedule.meta.get("limit_holds")
    print(f"witness path re-walked: {trace}")
    print(f"limit condition: {limit} (recorded: {recorded})")
    ok = recorded is None or bool(recorded) == limit
    print("replay " + ("MATCHES the recording" if ok
                       else "DIVERGED from the recording"))
    return 0 if ok else 1


def _replay_bundle(path: pathlib.Path) -> int:
    """Replay a fleet quarantine bundle; exit 0 iff the recorded
    infrastructure failure reproduces under the recorded policy."""
    from repro.par import replay_quarantined_cell

    case, recorded, reproduced = replay_quarantined_cell(path)
    print(f"quarantined cell: {case.plan} × seed {case.seed}")
    print(f"recorded failure: {recorded.get('failure')} "
          f"({recorded.get('outcome')})")
    print(f"replayed outcome: {case.outcome} "
          f"after {case.attempts} attempt(s)")
    if case.detail:
        print(f"  {case.detail.splitlines()[0]}")
    print("replay " + ("REPRODUCES the recorded failure" if reproduced
                       else "DID NOT reproduce the recorded failure "
                            "(infrastructure issue gone?)"))
    return 0 if reproduced else 1


def cmd_replay(path: str, lenient: bool) -> int:
    """Replay a schedule JSON (exit 0 iff the run digest matches) or
    a quarantine bundle (exit 0 iff the failure reproduces)."""
    from repro.obs.recorder import Schedule, ScheduleExhausted
    from repro.obs.replay import ReplayDivergence
    from repro.report import render_schedule

    target = pathlib.Path(path)
    probe = target / "cell.json" if target.is_dir() else target
    try:
        import json

        head = json.loads(probe.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        head = None
    if isinstance(head, dict) and head.get("kind") == \
            "quarantined-cell":
        return _replay_bundle(probe)

    schedule = Schedule.load(path)
    print(render_schedule(schedule, max_decisions=4))
    if schedule.meta.get("kind") == "solver-path":
        return _replay_witness_schedule(schedule)
    try:
        outcome, result, recorded_outcome = _replay_schedule(
            schedule, lenient)
    except (ReplayDivergence, ScheduleExhausted) as exc:
        print(f"replay DIVERGED from the recording: {exc}")
        return 1
    expected = schedule.meta.get("digest", "")
    actual = result.digest()
    ok = actual == expected and outcome == recorded_outcome
    print(f"outcome: {outcome} "
          f"(recorded: {recorded_outcome})")
    print(f"digest:  {actual[:16]} "
          f"(recorded: {expected[:16] or '<missing>'})")
    print("replay " + ("MATCHES the recording"
                       if ok else "DIVERGED from the recording"))
    return 0 if ok else 1


def _traced_replay_records(schedule) -> list:
    """Replay a schedule leniently under a fresh tracer; return the
    recorded event stream (the input to the happens-before graph)."""
    from repro.obs import RingBufferSink, Tracer

    ring = RingBufferSink(capacity=500_000)
    _replay_schedule(schedule, lenient=True,
                     tracer=Tracer([ring]))
    return list(ring.records)


def cmd_diff(path_a: str, path_b: str, explain: bool = False) -> int:
    """First-divergence report for two schedules and their replays.

    ``--explain`` additionally replays both schedules under a tracer,
    rebuilds their happens-before graphs, and walks back from the
    first divergent observable event to the earliest decision node
    that explains it (see :mod:`repro.obs.causality`).
    """
    from repro.obs.diff import diff_runs, diff_schedules
    from repro.obs.recorder import Schedule
    from repro.report import render_run_diff, render_schedule_diff

    a, b = Schedule.load(path_a), Schedule.load(path_b)
    sdiff = diff_schedules(a, b)
    print(render_schedule_diff(sdiff))
    try:
        _, result_a, _ = _replay_schedule(a, lenient=True)
        _, result_b, _ = _replay_schedule(b, lenient=True)
    except KeyError as exc:
        print(f"(replay diff skipped: {exc})")
        return 0 if sdiff.identical else 1
    rdiff = diff_runs(result_a, result_b)
    print(render_run_diff(rdiff))
    if explain:
        from repro.obs import explain_records

        expl = explain_records(_traced_replay_records(a),
                               _traced_replay_records(b))
        print()
        print(expl.describe())
    return 0 if sdiff.identical and rdiff.identical else 1


def cmd_why(path_a: str, path_b: str | None, dot_out: str | None,
            json_out: str | None, trace_out: str | None) -> int:
    """Causal 'why' for recorded runs.

    With one schedule: rebuild its happens-before graph and print the
    summary (size, digest, deliveries, critical path).  With two:
    print the divergence explanation — the minimal causal chain from
    the first divergent decision to the first divergent delivery.
    ``--dot`` / ``--json`` export the (first) graph; ``--trace``
    writes a Perfetto timeline with causal flow arrows layered on.
    """
    from repro.obs import CausalGraph, explain_divergence
    from repro.obs.recorder import Schedule
    from repro.report import render_causal_summary

    schedule_a = Schedule.load(path_a)
    try:
        records_a = _traced_replay_records(schedule_a)
    except KeyError as exc:
        print(f"cannot rebuild the run: {exc}", file=sys.stderr)
        return 2
    graph_a = CausalGraph.from_records(records_a)
    print(render_causal_summary(graph_a))
    exit_code = 0
    if path_b is not None:
        records_b = _traced_replay_records(Schedule.load(path_b))
        graph_b = CausalGraph.from_records(records_b)
        expl = explain_divergence(graph_a, graph_b)
        print()
        print(expl.describe())
        exit_code = 0 if expl.identical else 1
    if dot_out:
        with open(dot_out, "w", encoding="utf-8") as fh:
            fh.write(graph_a.to_dot(
                title=schedule_a.meta.get("scenario", "causal")))
        print(f"wrote causal graph DOT to {dot_out}")
    if json_out:
        import json

        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(graph_a.to_json(), fh, indent=2,
                      sort_keys=True)
        print(f"wrote causal graph JSON to {json_out}")
    if trace_out:
        from repro.obs import write_chrome_trace

        n = write_chrome_trace(
            records_a, trace_out,
            process_name=f"repro-why:{path_a}",
            flows=graph_a.flow_arrows())
        print(f"wrote {n} trace events (with flow arrows) "
              f"to {trace_out}")
    return exit_code


def cmd_shrink(path: str, out: str | None) -> int:
    """ddmin a failing schedule; write the minimal one."""
    from repro.obs.diff import shrink_schedule
    from repro.obs.recorder import Schedule

    schedule = Schedule.load(path)
    recorded_outcome = schedule.meta.get("outcome")
    recorded_digest = schedule.meta.get("digest")

    def verdict_preserved(candidate) -> bool:
        try:
            outcome, result, _ = _replay_schedule(candidate,
                                                  lenient=True)
        except Exception:
            return False
        if recorded_outcome is not None:
            return outcome == recorded_outcome
        return result.digest() == recorded_digest

    small = shrink_schedule(schedule, verdict_preserved)
    # the shrunk schedule describes a *different* (minimal) run that
    # reaches the same verdict: stamp that run's own digest so
    # ``replay --lenient`` of the minimal file verifies cleanly
    outcome, result, _ = _replay_schedule(small, lenient=True)
    small.meta["original_digest"] = recorded_digest
    small.meta["digest"] = result.digest()
    small.meta["outcome"] = outcome
    out = out or str(pathlib.Path(path).with_suffix(".min.json"))
    small.save(out)
    print(f"shrunk {len(schedule)} -> {len(small)} decision(s); "
          f"verdict {recorded_outcome or 'digest match'} preserved")
    print(f"wrote {out}")
    return 0


def _grid_inputs(scenario: str, plan_names: list[str] | None,
                 cell_timeout: float | None, retries: int | None,
                 quarantine_dir: str | None, chaos: str | None,
                 chaos_seed: int):
    """Shared ``grid``/``top`` argument resolution.

    Returns ``(plans, fleet)``: the selected plan names (``None`` for
    the default grid) and a :class:`~repro.par.FleetPolicy` (``None``
    when no fleet option was given).  Raises ``ValueError`` with the
    message to print (exit status 2) for an unknown scenario or plan
    or a bad chaos spec.
    """
    from repro import par

    _resolve_scenario(scenario, plan_names or [])
    plans = list(dict.fromkeys(plan_names)) if plan_names else None
    if (cell_timeout is None and retries is None
            and quarantine_dir is None and chaos is None):
        return plans, None
    chaos_spec = None
    if chaos is not None:
        chaos_spec = par.ChaosSpec.parse(chaos, seed=chaos_seed)
    return plans, par.FleetPolicy(
        cell_timeout_s=cell_timeout,
        retries=retries if retries is not None else 2,
        quarantine_dir=quarantine_dir,
        chaos=chaos_spec,
    )


def _write_grid_artifacts(report, tracer, ring,
                          html_report: str | None,
                          metrics_out: str | None,
                          metrics_json: str | None,
                          trace_out: str | None,
                          scenario: str,
                          status=None) -> None:
    """Write the flight-deck artifacts a grid run was asked for."""
    from repro.obs.telemetry import grid_metrics_summary

    meta = {"scenario": scenario, "digest": report.digest()}
    if getattr(report, "degraded", False):
        meta["surviving_digest"] = report.surviving_digest()
    summary = grid_metrics_summary(report)
    if trace_out and ring is not None:
        from repro.obs import (
            CausalGraph,
            split_cells,
            write_chrome_trace,
        )

        # per-cell happens-before graphs supply the flow arrows; the
        # @plan×seed suffix stripped by split_cells is restored so the
        # arrows anchor to the merged timeline's suffixed tracks
        records = list(ring.records)
        flows = []
        for cell, cell_records in sorted(split_cells(records).items()):
            if not cell:
                continue
            suffix = f"@{cell}"
            for arrow in CausalGraph.from_records(
                    cell_records).flow_arrows():
                arrow["src_track"] += suffix
                arrow["dst_track"] += suffix
                flows.append(arrow)
        n = write_chrome_trace(records, trace_out,
                               process_name=f"repro-grid:{scenario}",
                               flows=flows)
        print(f"wrote {n} trace events ({len(flows)} flow arrows) "
              f"to {trace_out}")
    if metrics_out:
        from repro.obs import write_prometheus_text

        write_prometheus_text(summary, metrics_out)
        print(f"wrote Prometheus metrics to {metrics_out}")
    if metrics_json:
        from repro.obs import write_json_exposition

        write_json_exposition(summary, metrics_json, meta=meta)
        print(f"wrote JSON metrics to {metrics_json}")
    if html_report:
        from repro.obs.htmlreport import write_html_report

        snap = status.snapshot() if status is not None else None
        write_html_report(report, html_report,
                          metrics_summary=summary, status=snap,
                          meta=meta)
        print(f"wrote HTML flight-deck report to {html_report}")


def cmd_grid(scenario: str, workers: int, seeds: int,
             plan_names: list[str] | None, max_steps: int | None,
             no_record: bool, use_cache: bool = False,
             cache_dir: str | None = None,
             cache_stats: bool = False,
             cell_timeout: float | None = None,
             retries: int | None = None,
             quarantine_dir: str | None = None,
             chaos: str | None = None,
             chaos_seed: int = 0,
             html_report: str | None = None,
             metrics_out: str | None = None,
             metrics_json: str | None = None,
             trace_out: str | None = None) -> int:
    """Run a registered scenario's conformance grid, maybe in parallel.

    The scenario comes from the :mod:`repro.par` registry (the same
    registry the worker processes rebuild cells from), so the grid is
    parallelizable by construction.  Exit status is 0 iff every cell
    that *ran* conforms — livelocks and exhausted budgets count as
    failures here because the default grid leaves out
    ``Scenario.unfair``; an empty grid (``--seeds 0``) conforms
    vacuously, and cells lost to the machinery (timeout / crash /
    quarantine under ``--chaos``) degrade the report without failing
    the exit status.

    With ``--cache``, cells already in the persistent store are served
    from disk instead of re-run — a warm rerun of the same grid prints
    the same report digest with every cell marked cached.

    ``--html-report`` / ``--metrics-out`` / ``--metrics-json`` /
    ``--trace`` write the flight-deck artifacts; asking for any of
    them attaches a tracer, so each cell hands its trace records back
    with its result and the artifacts carry the merged per-cell
    metrics.
    """
    from repro import par
    from repro.report import render_conformance_report

    try:
        plans, fleet = _grid_inputs(scenario, plan_names, cell_timeout,
                                    retries, quarantine_dir, chaos,
                                    chaos_seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    artifacts = bool(html_report or metrics_out or metrics_json
                     or trace_out)
    tracer = None
    ring = None
    status = None
    if artifacts:
        from repro.obs import FleetStatus, RingBufferSink, Tracer

        ring = RingBufferSink(capacity=500_000)
        tracer = Tracer([ring])
        status = FleetStatus()
    store = _make_cache(use_cache, cache_dir)
    report = par.run_conformance_parallel(
        scenario, seeds=range(seeds), plans=plans,
        max_steps=max_steps, workers=workers,
        record=not no_record, cache=store, fleet=fleet,
        tracer=tracer, status=status,
    )
    print(render_conformance_report(report))
    cells = len(report.cases)
    line = (f"{cells} cells × workers={workers}: "
            f"{report.wall_clock_s:.3f}s wall")
    if store is not None:
        line += f"  ({len(report.cached_cases)} cached)"
    print(line)
    print(f"report digest {report.digest()}")
    if report.degraded:
        print(f"surviving digest {report.surviving_digest()}")
    if artifacts:
        _write_grid_artifacts(report, tracer, ring, html_report,
                              metrics_out, metrics_json, trace_out,
                              scenario, status=status)
    if store is not None and cache_stats:
        import json

        print(json.dumps(store.stats(), indent=2, sort_keys=True))
    return 0 if not report.genuine_failures else 1


def cmd_top(scenario: str, workers: int, seeds: int,
            plan_names: list[str] | None, max_steps: int | None,
            interval: float, use_cache: bool, cache_dir: str | None,
            cell_timeout: float | None, retries: int | None,
            quarantine_dir: str | None, chaos: str | None,
            chaos_seed: int, html_report: str | None) -> int:
    """Run a grid with the live flight-deck scoreboard.

    The grid runs in a worker thread with a tracer attached (so each
    cell hands its trace records back with its result) and a
    shared :class:`~repro.obs.telemetry.FleetStatus`; the main thread
    refreshes the scoreboard every ``interval`` seconds — redrawn in
    place on a TTY, one plain line per refresh otherwise (logs, CI) —
    until the grid settles, then prints the final report and digest.
    """
    import threading

    from repro import par
    from repro.obs import FleetStatus, RingBufferSink, Tracer
    from repro.report import (
        render_conformance_report,
        render_fleet_line,
        render_fleet_status,
    )

    try:
        plans, fleet = _grid_inputs(scenario, plan_names, cell_timeout,
                                    retries, quarantine_dir, chaos,
                                    chaos_seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    store = _make_cache(use_cache, cache_dir)
    status = FleetStatus()
    ring = RingBufferSink(capacity=500_000)
    tracer = Tracer([ring])
    box: dict = {}

    def run_grid() -> None:
        try:
            box["report"] = par.run_conformance_parallel(
                scenario, seeds=range(seeds), plans=plans,
                max_steps=max_steps, workers=workers, cache=store,
                fleet=fleet, tracer=tracer, status=status)
        except BaseException as exc:  # surface in the main thread
            box["error"] = exc

    thread = threading.Thread(target=run_grid, name="repro-top-grid",
                              daemon=True)
    thread.start()
    is_tty = sys.stdout.isatty()
    frame_lines = 0
    try:
        while True:
            snap = status.snapshot()
            if is_tty:
                text = render_fleet_status(snap)
                if frame_lines:
                    # redraw in place: cursor up over the previous
                    # frame
                    sys.stdout.write(f"\x1b[{frame_lines}F\x1b[J")
                print(text, flush=True)
                frame_lines = text.count("\n") + 1
            else:
                # piped/CI output: one plain line per refresh, no
                # cursor control
                print(render_fleet_line(snap), flush=True)
            if not thread.is_alive():
                break
            thread.join(timeout=max(0.05, interval))
    except KeyboardInterrupt:
        print("\ninterrupted — abandoning the grid", file=sys.stderr)
        return 130
    thread.join()
    if "error" in box:
        print(f"grid failed: {box['error']}", file=sys.stderr)
        return 1
    if not is_tty:
        # the loop's last refresh may predate the grid finishing;
        # close the log with one authoritative line
        print(render_fleet_line(status.snapshot()), flush=True)
    report = box["report"]
    print()
    print(render_conformance_report(report))
    print(f"report digest {report.digest()}")
    if report.degraded:
        print(f"surviving digest {report.surviving_digest()}")
    if html_report:
        _write_grid_artifacts(report, tracer, ring, html_report,
                              None, None, None, scenario,
                              status=status)
    return 0 if not report.genuine_failures else 1


def _git_sha() -> str:
    """Best-effort SHA of the measured tree for trajectory entries:
    ``$GITHUB_SHA``, else ``HEAD`` — suffixed ``+dirty`` when tracked
    files differ from it, so an entry measured on uncommitted changes
    is not stamped as their parent commit."""
    import os
    import subprocess

    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha

    def git(*args):
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10,
            cwd=pathlib.Path(__file__).resolve().parents[2])

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = head.stdout.strip()
    dirty = status.returncode == 0 and status.stdout.strip()
    return f"{sha}+dirty" if dirty else sha


def cmd_bench_append(core: str, history: str,
                     sha: str | None) -> int:
    """Append a ``BENCH_core.json`` snapshot's tracked rows to the
    trajectory."""
    from repro.obs.bench import append_history, load_core

    try:
        payload = load_core(core)
    except (OSError, ValueError) as exc:
        print(f"cannot load {core!r}: {exc}", file=sys.stderr)
        return 2
    entry = append_history(payload, history,
                           sha=sha or _git_sha())
    rows = entry["rows"]
    print(f"appended {len(rows)} tracked row(s) for "
          f"{entry['sha'][:12]} to {history}")
    for key in sorted(rows):
        print(f"  {key} = {rows[key]:g}")
    if not rows:
        print("  (no tracked rows found — did the bench session "
              "include the tracked experiments?)", file=sys.stderr)
        return 1
    return 0


def cmd_bench_check(core: str, history: str, strict: bool,
                    window: int) -> int:
    """Gate a fresh snapshot against the committed trajectory."""
    from repro.obs.bench import check, load_core, load_history

    try:
        payload = load_core(core)
    except (OSError, ValueError) as exc:
        print(f"cannot load {core!r}: {exc}", file=sys.stderr)
        return 2
    result = check(payload, load_history(history), strict=strict,
                   window=window)
    print(result.describe())
    return 0 if result.ok else 1


def cmd_solve(scenario: str, depth: int, max_nodes: int,
              budget_seconds: float | None, resume: str | None,
              checkpoint_out: str | None, use_cache: bool,
              cache_dir: str | None, fsync: bool = False,
              profile: bool = False,
              profile_json: str | None = None,
              profile_folded: str | None = None,
              engine: str = "auto",
              strategy: str = "bfs") -> int:
    """Run the §3.3 solver on a scenario's specification.

    A truncated exploration (node or wall-clock budget) exits 1 and —
    with ``--checkpoint-out`` — leaves a pure-JSON checkpoint behind;
    rerunning with ``--resume <ckpt.json>`` continues the Kleene
    chain from the parked nodes and, once nothing is left unvisited,
    the result digest equals the straight run's.  A checkpoint that
    cannot be read, or does not fit this run (another depth, limit
    depth or scenario, a path that is no tree edge), exits 2.

    ``--profile`` attaches a tracer and prints the hot-site table
    (where ``f``/``g`` evaluation time goes); ``--profile-json``
    writes the full per-site/per-level profile and
    ``--profile-folded`` the collapsed stacks speedscope imports.

    ``--engine`` picks the exploration path: ``auto`` (default)
    compiles the hot path when the spec is in the compilable fragment,
    ``reference`` forces the uncompiled loop (the before side of
    before/after profiles), ``compiled`` demands compilation and
    fails loudly when it is unavailable.  All three produce the same
    digests.

    ``--strategy`` picks the exploration order: ``bfs``, or
    ``best-first``, which pops the node nearest the limit condition
    first; both produce the same digests wherever the search
    completes.
    """
    from repro.core import SmoothSolutionSolver
    from repro.obs.replay import ReplayDivergence
    from repro.par import get_scenario
    from repro.report import render_solver_result

    sc = get_scenario(scenario)
    store = _make_cache(use_cache, cache_dir, fsync=fsync)
    profiling = bool(profile or profile_json or profile_folded)
    tracer = None
    ring = None
    if profiling:
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink(capacity=500_000)
        tracer = Tracer([ring])
    solver = SmoothSolutionSolver.over_channels(
        sc.spec, sc.solve_channels, cache=store, tracer=tracer,
        compiled=ENGINES[engine], strategy=strategy)
    resume_from = None
    if resume:
        from repro.cache import SolverCheckpoint

        try:
            resume_from = SolverCheckpoint.load(resume)
        except (OSError, ValueError) as exc:
            print(f"cannot load checkpoint {resume!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"resuming from {resume}: "
              f"{len(resume_from.unvisited)} unvisited node(s), "
              f"{resume_from.nodes_explored} already explored")
    try:
        result = solver.explore(depth, max_nodes=max_nodes,
                                budget_seconds=budget_seconds,
                                resume_from=resume_from)
    except (ValueError, ReplayDivergence) as exc:
        if resume_from is None:
            raise
        # the checkpoint does not fit this run: a usage error, like
        # an unreadable file, not a truncation
        print(f"cannot resume from {resume!r}: {exc}", file=sys.stderr)
        return 2
    print(render_solver_result(result))
    # a cache write or a cache hit has hashed the result already
    print(f"result digest {result.cache_digest or result.digest()}")
    if profiling:
        from repro.obs import hotspots, write_collapsed
        from repro.report import render_hotspots

        print(render_hotspots(hotspots(result.metrics)))
        if profile_json:
            import json

            with open(profile_json, "w", encoding="utf-8") as fh:
                json.dump(result.profile, fh, indent=2,
                          sort_keys=True)
            print(f"wrote solver profile JSON to {profile_json}")
        if profile_folded:
            n = write_collapsed(ring.records, profile_folded)
            print(f"wrote {n} collapsed stack(s) to {profile_folded}")
    if checkpoint_out:
        ckpt = result.checkpoint()
        ckpt.save(checkpoint_out, fsync=fsync)
        print(f"wrote checkpoint to {checkpoint_out} "
              f"({len(ckpt.unvisited)} unvisited)")
    if store is not None:
        counts = store.counters()
        print("cache: " + ", ".join(f"{k} {v}"
                                    for k, v in counts.items()))
    return 1 if result.truncated else 0


def cmd_query(scenario: str, exists: str | None, all_pred: str | None,
              depth: int, max_nodes: int,
              budget_seconds: float | None, engine: str = "auto",
              strategy: str = "best-first",
              witness_out: str | None = None) -> int:
    """Ask a question about a scenario's smooth solutions instead of
    enumerating them.

    ``--exists P`` asks whether some finite smooth solution within the
    depth bound satisfies ``P``; ``--all P`` whether they all do.  The
    search short-circuits at the first witness / counterexample — with
    the default best-first exploration it typically answers under a
    node budget where ``solve`` truncates.  Exit
    codes: 0 the question holds, 1 it does not, 2 unresolved at this
    budget (or bad arguments, e.g. a predicate's unknown channel).
    The search expands each per-channel projection state once and
    reports ``projection states explored`` (see
    :meth:`~repro.core.solver.SmoothSolutionSolver.query`).  It takes
    no ``--cache``: walking the state graph is faster than reading a
    stored result back.

    ``--witness-out`` writes the settling trace's replayable schedule
    JSON (the same format ``replay`` understands for solver paths).
    """
    from repro.core import SmoothSolutionSolver
    from repro.core.search import PREDICATE_GRAMMAR, parse_predicate
    from repro.par import get_scenario

    if (exists is None) == (all_pred is None):
        print("exactly one of --exists P / --all P is required\n"
              + PREDICATE_GRAMMAR, file=sys.stderr)
        return 2
    mode = "exists" if exists is not None else "all"
    text = exists if exists is not None else all_pred
    sc = get_scenario(scenario)
    solver = SmoothSolutionSolver.over_channels(
        sc.spec, sc.solve_channels, compiled=ENGINES[engine],
        strategy=strategy)
    try:
        predicate = parse_predicate(text)
        names = [ch.name for ch in sc.solve_channels]
        unknown = sorted(predicate.channels.difference(names))
        if unknown:
            raise ValueError(f"unknown channel {', '.join(unknown)} in "
                             f"the predicate; {scenario} is solved over "
                             f"{', '.join(names)}")
        answer = solver.query(text, depth, mode=mode,
                              max_nodes=max_nodes,
                              budget_seconds=budget_seconds)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(answer.describe())
    if answer.result is not None and answer.result.truncated:
        print(f"  stopped: {answer.result.truncation_reason}")
    if witness_out and answer.certificate is not None:
        answer.certificate.meta["scenario"] = scenario
        answer.certificate.save(witness_out)
        print(f"wrote witness schedule to {witness_out}")
    if not answer.resolved:
        return 2
    return 0 if answer.holds else 1


def _add_cache_options(sub_parser) -> None:
    """``--cache/--no-cache`` (default off) and ``--cache-dir``."""
    sub_parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction,
        default=False,
        help="consult/populate the persistent result store "
             "(default: off)")
    sub_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="store location (default .repro-cache/)")


def main(argv: list[str] | None = None) -> int:
    from repro.core.search import STRATEGIES
    from repro.par import scenario_names

    scenarios = scenario_names()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="demo runner for the PODC'89 reproduction",
    )
    sub = parser.add_subparsers(dest="command")
    for name in ("summary", "dfm", "anomaly", "fig3", "zoo"):
        sub.add_parser(name)

    p_trace = sub.add_parser(
        "trace", help="trace a scenario's default grid for one seed "
                      "plus a solve, export Perfetto")
    p_trace.add_argument(
        "scenario", nargs="?", choices=scenarios,
        default="alternating_bit",
        help="registered scenario to run and solve",
    )
    p_trace.add_argument(
        "-o", "--out", default=None,
        help="output path (default <scenario>.perfetto.json)",
    )
    p_trace.add_argument(
        "--jsonl", default=None,
        help="also write a JSONL event log here",
    )
    p_trace.add_argument("--seed", type=int, default=11,
                         help="oracle seed of the grid's cells")
    p_trace.add_argument(
        "--max-steps", type=_at_least(0), default=None,
        help="runtime step budget (default: the scenario's)")
    _add_cache_options(p_trace)

    p_record = sub.add_parser(
        "record", help="flight-record one grid cell into a schedule "
                       "JSON")
    p_record.add_argument("scenario", choices=scenarios)
    p_record.add_argument(
        "--plan", default=None,
        help="fault plan name (default: the scenario's first plan)")
    p_record.add_argument("--seed", type=int, default=11,
                          help="the cell's oracle seed")
    p_record.add_argument(
        "--max-steps", type=_at_least(0), default=None,
        help="runtime step budget (default: the scenario's)")
    p_record.add_argument(
        "-o", "--out", default=None,
        help="schedule path (default <scenario>.schedule.json)")

    p_replay = sub.add_parser(
        "replay", help="re-execute a schedule, verify the digest")
    p_replay.add_argument("schedule", help="schedule JSON path")
    p_replay.add_argument(
        "--lenient", action="store_true",
        help="fall back to a deterministic oracle past divergences")

    p_diff = sub.add_parser(
        "diff", help="first divergence between two schedules")
    p_diff.add_argument("schedule_a")
    p_diff.add_argument("schedule_b")
    p_diff.add_argument(
        "--explain", action="store_true",
        help="walk the happens-before graphs back to the earliest "
             "decision explaining the divergence")

    p_why = sub.add_parser(
        "why", help="causal view of recorded runs: happens-before "
                    "graph summary, or (with two schedules) the "
                    "divergence explanation")
    p_why.add_argument("schedule_a", help="schedule JSON path")
    p_why.add_argument(
        "schedule_b", nargs="?", default=None,
        help="second schedule: explain why the runs diverge")
    p_why.add_argument(
        "--dot", default=None, metavar="PATH", dest="dot_out",
        help="write the (first) run's causal graph as Graphviz DOT")
    p_why.add_argument(
        "--json", default=None, metavar="PATH", dest="json_out",
        help="write the (first) run's causal graph as JSON "
             "(nodes, edges, deliveries, digest, critical path)")
    p_why.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace_out",
        help="write a Perfetto timeline of the (first) run with "
             "causal flow arrows")

    p_shrink = sub.add_parser(
        "shrink", help="ddmin a failing schedule to a minimal one")
    p_shrink.add_argument("schedule", help="schedule JSON path")
    p_shrink.add_argument(
        "-o", "--out", default=None,
        help="output path (default <schedule>.min.json)")

    p_grid = sub.add_parser(
        "grid", help="run a scenario's conformance grid "
                     "(parallel with --workers N)")
    p_grid.add_argument(
        "scenario", nargs="?", default="dfm", choices=scenarios,
        help="registered scenario name")
    p_grid.add_argument(
        "--workers", type=_at_least(1), default=1,
        help="worker processes to farm cells over (default 1: serial)")
    p_grid.add_argument(
        "--seeds", type=_at_least(0), default=4,
        help="number of oracle seeds, 0..N-1 (default 4)")
    p_grid.add_argument(
        "--plan", action="append", default=None, dest="plan_names",
        metavar="PLAN",
        help="restrict to this fault plan (repeatable; "
             "default: every plan outside the scenario's unfair ones)")
    p_grid.add_argument(
        "--max-steps", type=_at_least(0), default=None,
        help="override the scenario's runtime step budget")
    p_grid.add_argument(
        "--no-record", action="store_true",
        help="skip flight-recording each cell's schedule")
    p_grid.add_argument(
        "--cell-timeout", type=_seconds, default=None, metavar="S",
        help="per-cell wall-clock deadline in seconds: a cell past "
             "it has its worker killed and the attempt retried")
    p_grid.add_argument(
        "--retries", type=_at_least(0), default=None, metavar="N",
        help="re-attempts per failed cell before quarantine "
             "(default 2 when the fleet is engaged)")
    p_grid.add_argument(
        "--quarantine-dir", default=None, metavar="PATH",
        help="write poison cells' re-executable bundles here "
             "(replay with: python -m repro replay <bundle>)")
    p_grid.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="fleet self-test fault injection, e.g. kill-worker:0.3 "
             "(workers randomly SIGKILL themselves; deterministic "
             "per --chaos-seed)")
    p_grid.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the chaos kill pattern (default 0)")
    _add_cache_options(p_grid)
    p_grid.add_argument(
        "--cache-stats", action="store_true",
        help="print the store's stats JSON after the grid")
    p_grid.add_argument(
        "--html-report", default=None, metavar="PATH",
        help="write a self-contained HTML flight-deck report here")
    p_grid.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the merged metrics in Prometheus text format")
    p_grid.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the merged metrics as a JSON exposition")
    p_grid.add_argument(
        "--trace", default=None, metavar="PATH", dest="trace_out",
        help="write the merged fleet timeline as a Chrome-trace/"
             "Perfetto JSON")

    p_top = sub.add_parser(
        "top", help="run a grid with a live fleet scoreboard "
                    "(trace records, ETA, cache hit-rate)")
    p_top.add_argument(
        "scenario", nargs="?", default="dfm",
        help=f"registered scenario name ({', '.join(scenarios)})")
    p_top.add_argument(
        "--workers", type=_at_least(1), default=2,
        help="worker processes to farm cells over (default 2)")
    p_top.add_argument(
        "--seeds", type=_at_least(0), default=4,
        help="number of oracle seeds, 0..N-1 (default 4)")
    p_top.add_argument(
        "--plan", action="append", default=None, dest="plan_names",
        metavar="PLAN",
        help="restrict to this fault plan (repeatable)")
    p_top.add_argument(
        "--max-steps", type=_at_least(0), default=None,
        help="override the scenario's runtime step budget")
    p_top.add_argument(
        "--interval", type=float, default=0.5, metavar="S",
        help="scoreboard refresh period in seconds (default 0.5)")
    p_top.add_argument(
        "--cell-timeout", type=_seconds, default=None, metavar="S",
        help="per-cell wall-clock deadline in seconds")
    p_top.add_argument(
        "--retries", type=_at_least(0), default=None, metavar="N",
        help="re-attempts per failed cell before quarantine")
    p_top.add_argument(
        "--quarantine-dir", default=None, metavar="PATH",
        help="write poison cells' re-executable bundles here")
    p_top.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="fleet self-test fault injection, e.g. kill-worker:0.3")
    p_top.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the chaos kill pattern (default 0)")
    _add_cache_options(p_top)
    p_top.add_argument(
        "--html-report", default=None, metavar="PATH",
        help="also write the HTML flight-deck report here")

    p_bappend = sub.add_parser(
        "bench-append",
        help="append BENCH_core.json's tracked rows to the "
             "benchmark trajectory")
    p_bappend.add_argument(
        "--core", default="BENCH_core.json", metavar="PATH",
        help="bench snapshot to read (default BENCH_core.json)")
    p_bappend.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="PATH",
        help="trajectory JSONL to append to "
             "(default BENCH_history.jsonl)")
    p_bappend.add_argument(
        "--sha", default=None,
        help="commit SHA for the entry (default: $GITHUB_SHA, then "
             "git rev-parse HEAD, suffixed +dirty for a modified "
             "tree)")

    p_bcheck = sub.add_parser(
        "bench-check",
        help="gate a fresh BENCH_core.json against the committed "
             "trajectory (exit 1 on regression)")
    p_bcheck.add_argument(
        "--core", default="BENCH_core.json", metavar="PATH",
        help="bench snapshot to check (default BENCH_core.json)")
    p_bcheck.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="PATH",
        help="trajectory to compare against "
             "(default BENCH_history.jsonl)")
    p_bcheck.add_argument(
        "--strict", action="store_true",
        help="also fail when a tracked row is missing from the "
             "snapshot")
    p_bcheck.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="history entries forming the baseline median "
             "(default 5)")

    p_solve = sub.add_parser(
        "solve", help="run the §3.3 solver on a scenario's spec "
                      "(resume with --resume <ckpt.json>)")
    p_solve.add_argument(
        "scenario", nargs="?", choices=scenarios,
        default="dfm", help="which specification to explore")
    p_solve.add_argument(
        "--depth", type=_at_least(0), default=SOLVE_DEPTH,
        help=f"depth bound (default {SOLVE_DEPTH})")
    p_solve.add_argument(
        "--max-nodes", type=_at_least(0), default=200_000,
        help="node budget per call (a resumed run gets a fresh one)")
    p_solve.add_argument(
        "--budget-seconds", type=_seconds, default=None,
        help="wall-clock budget (wall-truncated runs are not cached)")
    p_solve.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="checkpoint JSON to continue from")
    p_solve.add_argument(
        "--checkpoint-out", default=None, metavar="PATH",
        help="write the (possibly exhausted) checkpoint JSON here")
    p_solve.add_argument(
        "--fsync", action="store_true",
        help="fsync checkpoint and cache writes (survive a machine "
             "crash, not just a killed process)")
    p_solve.add_argument(
        "--profile", action="store_true",
        help="attach a tracer and print the solver hot-site table")
    p_solve.add_argument(
        "--profile-json", default=None, metavar="PATH",
        help="write the per-site/per-level solver profile as JSON")
    p_solve.add_argument(
        "--profile-folded", default=None, metavar="PATH",
        help="write collapsed stacks (speedscope/flamegraph.pl "
             "importable)")
    p_solve.add_argument(
        "--engine", choices=tuple(ENGINES),
        default="auto",
        help="exploration path: auto-detect (default), force the "
             "reference loop, or demand the compiled hot path — "
             "digests are identical either way")
    p_solve.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="bfs",
        help="exploration order (default bfs); every strategy finds "
             "the same solution set wherever it completes")
    _add_cache_options(p_solve)

    p_query = sub.add_parser(
        "query",
        help="ask whether a smooth solution matching a predicate "
             "exists (--exists P) or all match (--all P) — "
             "short-circuits instead of enumerating")
    p_query.add_argument(
        "scenario", nargs="?", choices=scenarios,
        default="dfm", help="which specification to query")
    p_query.add_argument(
        "--exists", default=None, metavar="PRED",
        help="does some finite smooth solution satisfy PRED? "
             "(e.g. 'on:b >= 1, length <= 6')")
    p_query.add_argument(
        "--all", dest="all_pred", default=None, metavar="PRED",
        help="do all finite smooth solutions satisfy PRED?")
    p_query.add_argument(
        "--depth", type=_at_least(0), default=SOLVE_DEPTH,
        help=f"depth bound (default {SOLVE_DEPTH})")
    p_query.add_argument(
        "--max-nodes", type=_at_least(0), default=200_000,
        help="node budget (exit 2 when it fires unresolved)")
    p_query.add_argument(
        "--budget-seconds", type=_seconds, default=None,
        help="wall-clock budget")
    p_query.add_argument(
        "--engine", choices=tuple(ENGINES),
        default="auto",
        help="exploration path (see solve --engine)")
    p_query.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="best-first",
        help="exploration order (default best-first: pops "
             "solution-shaped nodes first, so queries settle early)")
    p_query.add_argument(
        "--witness-out", default=None, metavar="PATH",
        help="write the witness/counterexample schedule JSON here")

    args = parser.parse_args(argv)
    if args.command == "trace":
        return cmd_trace(args.scenario, args.out, args.jsonl,
                         args.seed, args.max_steps,
                         args.cache, args.cache_dir)
    if args.command == "record":
        return cmd_record(args.scenario, args.plan, args.seed,
                          args.max_steps, args.out)
    if args.command == "replay":
        return cmd_replay(args.schedule, args.lenient)
    if args.command == "diff":
        return cmd_diff(args.schedule_a, args.schedule_b,
                        explain=args.explain)
    if args.command == "why":
        return cmd_why(args.schedule_a, args.schedule_b,
                       args.dot_out, args.json_out, args.trace_out)
    if args.command == "shrink":
        return cmd_shrink(args.schedule, args.out)
    if args.command == "grid":
        return cmd_grid(args.scenario, args.workers, args.seeds,
                        args.plan_names, args.max_steps,
                        args.no_record, args.cache, args.cache_dir,
                        args.cache_stats, args.cell_timeout,
                        args.retries, args.quarantine_dir,
                        args.chaos, args.chaos_seed,
                        args.html_report, args.metrics_out,
                        args.metrics_json, args.trace_out)
    if args.command == "top":
        return cmd_top(args.scenario, args.workers, args.seeds,
                       args.plan_names, args.max_steps,
                       args.interval, args.cache, args.cache_dir,
                       args.cell_timeout, args.retries,
                       args.quarantine_dir, args.chaos,
                       args.chaos_seed, args.html_report)
    if args.command == "bench-append":
        return cmd_bench_append(args.core, args.history, args.sha)
    if args.command == "bench-check":
        return cmd_bench_check(args.core, args.history, args.strict,
                               args.window)
    if args.command == "solve":
        return cmd_solve(args.scenario, args.depth, args.max_nodes,
                         args.budget_seconds, args.resume,
                         args.checkpoint_out, args.cache,
                         args.cache_dir, args.fsync,
                         args.profile, args.profile_json,
                         args.profile_folded, args.engine,
                         args.strategy)
    if args.command == "query":
        return cmd_query(args.scenario, args.exists, args.all_pred,
                         args.depth, args.max_nodes,
                         args.budget_seconds, args.engine,
                         args.strategy, args.witness_out)
    dispatch = {
        "summary": cmd_summary,
        "dfm": cmd_dfm,
        "anomaly": cmd_anomaly,
        "fig3": cmd_fig3,
        "zoo": cmd_zoo,
        None: cmd_summary,
    }
    return dispatch[args.command]()


if __name__ == "__main__":
    sys.exit(main())
