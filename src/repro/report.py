"""Human-readable rendering of the library's artifacts.

Descriptions, verdicts, solver results and operational runs all have
``repr``s tuned for debugging; this module renders them as multi-line
reports for examples, notebooks and failure messages.  Pure string
formatting — no semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.description import Description, DescriptionSystem
from repro.core.solution import SolutionVerdict
from repro.core.solver import SolverResult
from repro.kahn.runtime import RunResult
from repro.traces.trace import Trace


def render_trace(t: Trace, max_events: int = 16) -> str:
    """One-line trace rendering: ``(b,0)(d,0)…``.

    The trailing ``…`` means *more events exist than were shown*.  For
    a trace of unknown length we probe one event past the cap: a lazy
    trace that exhausts within ``max_events`` renders exactly like the
    equivalent finite trace (no false truncation marker).
    """
    n = t.events.known_length()
    if n is None:
        probed = list(t.iter_upto(max_events + 1))
        if not probed:
            return "ε"
        shown = "".join(repr(e) for e in probed[:max_events])
        return shown + ("…" if len(probed) > max_events else "")
    if n == 0:
        return "ε"
    shown = "".join(
        repr(t.item(i)) for i in range(min(n, max_events))
    )
    return shown + ("…" if n > max_events else "")


def render_description(desc: Description) -> str:
    """``lhs ⟵ rhs`` with support annotation."""
    support = desc.support()
    chans = (
        "{" + ",".join(sorted(c.name for c in support)) + "}"
        if support is not None else "unknown"
    )
    return f"{desc.lhs.name} ⟵ {desc.rhs.name}    [channels {chans}]"


def render_system(system: DescriptionSystem) -> str:
    lines = [f"system {system.name!r}:"]
    lines.extend(
        f"  {render_description(d)}" for d in system.descriptions
    )
    return "\n".join(lines)


def render_verdict(verdict: SolutionVerdict) -> str:
    lines = [
        f"trace    {render_trace(verdict.trace)}",
        f"against  {verdict.description_name}",
        f"limit    {verdict.limit}",
    ]
    if verdict.violations:
        lines.append(f"smooth   {len(verdict.violations)} violation(s):")
        for violation in verdict.violations[:4]:
            lines.append(
                f"         at u = {render_trace(violation.u)}: "
                f"f(v) = {violation.lhs_of_v!r} ⋢ "
                f"g(u) = {violation.rhs_of_u!r}"
            )
        if len(verdict.violations) > 4:
            lines.append(
                f"         … {len(verdict.violations) - 4} more"
            )
    else:
        lines.append("smooth   no violations")
    mode = "exact" if verdict.exact else f"to depth {verdict.depth}"
    status = "SMOOTH SOLUTION" if verdict.is_smooth else (
        "solution, NOT smooth" if verdict.is_solution
        else "not a solution"
    )
    lines.append(f"verdict  {status} ({mode})")
    return "\n".join(lines)


def render_solver_result(result: SolverResult,
                         max_listed: int = 10) -> str:
    lines = [
        f"explored {result.nodes_explored} nodes to depth "
        f"{result.depth}",
        f"finite smooth solutions: {len(result.finite_solutions)}",
    ]
    for t in result.finite_solutions[:max_listed]:
        lines.append(f"  {render_trace(t)}")
    if len(result.finite_solutions) > max_listed:
        lines.append(
            f"  … {len(result.finite_solutions) - max_listed} more"
        )
    if result.frontier:
        lines.append(
            f"live paths at the depth bound: {len(result.frontier)}"
        )
    if result.dead_ends:
        lines.append(f"dead ends: {len(result.dead_ends)}")
    if result.truncated:
        lines.append(f"TRUNCATED: {result.truncation_reason}")
    if result.unvisited:
        lines.append(
            f"unvisited nodes parked by the guard: "
            f"{len(result.unvisited)} (resume with a checkpoint)"
        )
    return "\n".join(lines)


def render_run(result: RunResult) -> str:
    status = "quiescent" if result.quiescent else "still live"
    lines = [
        f"{status} after {result.steps} steps",
        f"trace: {render_trace(result.trace)}",
    ]
    if result.halted_agents:
        lines.append(f"halted:  {', '.join(result.halted_agents)}")
    if result.blocked_agents:
        lines.append(f"blocked: {', '.join(result.blocked_agents)}")
    if result.failed_agents:
        lines.append(f"failed:  {', '.join(result.failed_agents)}")
    return "\n".join(lines)


def render_metrics(metrics: dict, title: str = "metrics") -> str:
    """Render a metrics summary dict (see
    :meth:`repro.obs.MetricsRegistry.summary`): counters as plain
    numbers, gauge/histogram stat dicts as compact ``k=v`` rows."""
    if not metrics:
        return f"{title}: (none recorded — run with a tracer)"
    lines = [f"{title}:"]
    for name, value in sorted(metrics.items()):
        if isinstance(value, dict):
            stats = " ".join(
                f"{k}={_fmt_stat(v)}" for k, v in sorted(value.items())
                if k != "buckets" and v is not None
            )
            lines.append(f"  {name:<32s} {stats}")
        else:
            lines.append(f"  {name:<32s} {value}")
    return "\n".join(lines)


def _fmt_stat(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def render_fleet_status(snap: dict, width: int = 40) -> str:
    """Render a :meth:`~repro.obs.telemetry.FleetStatus.snapshot` as
    the ``python -m repro top`` scoreboard: progress bar, worker
    occupancy, outcome counts, cache hit-rate, trace-record count and
    ETA.  Pure function of the snapshot dict — deterministic output
    for golden tests."""
    total = snap.get("total") or 0
    done = snap.get("done") or 0
    frac = (done / total) if total else 0.0
    filled = int(round(width * min(1.0, frac)))
    bar = "█" * filled + "·" * (width - filled)
    eta = snap.get("eta_s")
    eta_text = "—" if eta is None else f"{eta:.1f}s"
    hit = snap.get("cache_hit_rate")
    hit_text = "—" if hit is None else f"{hit * 100:.0f}%"
    state = "done" if snap.get("finished") else "running"
    lines = [
        f"repro top — grid {snap.get('scenario') or '?'} [{state}]",
        f"  [{bar}] {done}/{total} cells ({frac * 100:.0f}%)",
        f"  workers {snap.get('workers', 0)}  "
        f"busy {snap.get('busy', 0)}  "
        f"elapsed {snap.get('elapsed_s', 0.0):.1f}s  eta {eta_text}",
        f"  conforming {snap.get('conforming', 0)}  "
        f"failures {snap.get('genuine_failures', 0)}  "
        f"quarantined {snap.get('quarantined', 0)}",
        f"  retries {snap.get('retries', 0)}  "
        f"timeouts {snap.get('timeouts', 0)}  "
        f"crashes {snap.get('crashes', 0)}",
        f"  cache hits {snap.get('cached', 0)} ({hit_text})  "
        f"trace records {snap.get('trace_records', 0)}",
    ]
    return "\n".join(lines)


def render_fleet_line(snap: dict) -> str:
    """One-line fleet status for non-TTY ``python -m repro top``
    output (logs, CI): no cursor movement, one line per refresh."""
    total = snap.get("total") or 0
    done = snap.get("done") or 0
    frac = (done / total * 100) if total else 0.0
    eta = snap.get("eta_s")
    eta_text = "—" if eta is None else f"{eta:.1f}s"
    state = "done" if snap.get("finished") else "running"
    return (f"top {snap.get('scenario') or '?'} [{state}] "
            f"{done}/{total} ({frac:.0f}%) "
            f"busy {snap.get('busy', 0)}/{snap.get('workers', 0)} "
            f"ok {snap.get('conforming', 0)} "
            f"fail {snap.get('genuine_failures', 0)} "
            f"retry {snap.get('retries', 0)} "
            f"cached {snap.get('cached', 0)} "
            f"elapsed {snap.get('elapsed_s', 0.0):.1f}s eta {eta_text}")


def render_explanation(expl) -> str:
    """Render a :class:`~repro.obs.causality.DivergenceExplanation`.

    Output-first: names the first divergent delivery, then the root
    decision node and the minimal causal chain connecting them.
    """
    if expl.identical:
        return "runs causally identical (same deliveries, same decisions)"
    lines = []
    if expl.index is not None:
        def show(d):
            if d is None:
                return "(no delivery — run ends earlier)"
            return f"{d[1]!r} on {d[0]}"
        lines.append(f"first divergent delivery at index {expl.index}:")
        lines.append(f"  run A: {show(expl.delivery_a)}")
        lines.append(f"  run B: {show(expl.delivery_b)}")
    else:
        lines.append("deliveries identical; decision streams differ:")
    if expl.root is None:
        lines.append("  no divergent decision found "
                     "(runs differ only in length)")
        return "\n".join(lines)
    lines.append(f"root cause — first divergent decision "
                 f"(run {expl.root_run}):")
    lines.append(f"  {expl.root.label()}")
    if expl.counterpart is not None:
        other = "A" if expl.root_run == "B" else "B"
        lines.append(f"  vs run {other}: {expl.counterpart.label()}")
    else:
        other = "A" if expl.root_run == "B" else "B"
        lines.append(f"  (run {other} has no matching decision)")
    if expl.chain:
        lines.append("causal chain:")
        for i, node in enumerate(expl.chain):
            arrow = "  " if i == 0 else "  → "
            lines.append(f"{arrow}{node.label()}")
    if expl.total_deliveries:
        lines.append(
            f"impact: {expl.descendant_deliveries}/"
            f"{expl.total_deliveries} deliveries in run "
            f"{expl.root_run} causally descend from the root")
    return "\n".join(lines)


def render_hotspots(rows, title: str = "solver hotspots") -> str:
    """Render :func:`repro.obs.profile.hotspots` rows as a table."""
    if not rows:
        return f"{title}: (none recorded — run with a tracer)"
    table = render_table(
        ("site", "calls", "ms", "share"),
        [(r["site"], r["calls"], f"{r['ns'] / 1e6:.3f}",
          f"{r['share'] * 100:.1f}%") for r in rows])
    return f"{title}:\n" + "\n".join(
        "  " + line for line in table.splitlines())


def render_causal_summary(graph, max_chain: int = 12) -> str:
    """Render a :class:`~repro.obs.causality.CausalGraph` overview:
    size, digest, deliveries, decision count and the critical path."""
    counts: Dict[str, int] = {}
    for _, _, label in graph.edges:
        counts[label] = counts.get(label, 0) + 1
    edge_text = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
    lines = [
        f"causal graph: {len(graph.nodes)} nodes, "
        f"{len(graph.edges)} edges ({edge_text or 'none'})",
        f"digest {graph.digest()[:16]}",
        f"deliveries: {len(graph.deliveries)}  "
        f"decisions: {len(graph.decisions())}",
    ]
    chain = graph.critical_path()
    if chain:
        lines.append(f"critical path ({len(chain)} events — the "
                     "longest dependency chain):")
        for node in chain[:max_chain]:
            lines.append(f"  {node.label()}")
        if len(chain) > max_chain:
            lines.append(f"  … {len(chain) - max_chain} more")
    return "\n".join(lines)


def render_schedule(schedule, max_decisions: int = 8) -> str:
    """Render a flight-recorder :class:`~repro.obs.recorder.Schedule`.

    Meta keys are emitted in sorted order and each decision stream
    shows its head up to ``max_decisions`` entries — deterministic
    output, suitable for golden tests and diff-friendly logs.
    """
    lines = [f"schedule ({len(schedule)} decisions, "
             f"digest {schedule.digest()[:12]})"]
    for key, value in sorted(schedule.meta.items()):
        lines.append(f"  meta {key:<18s} {value}")
    streams = [
        ("agent_picks", schedule.agent_picks,
         lambda d: f"{d[0]}  (ready: {', '.join(d[1])})"),
        ("choice_picks", schedule.choice_picks,
         lambda d: f"branch {d[0]}/{d[1]} in {d[2]}"),
        ("rng_draws", schedule.rng_draws,
         lambda d: f"{d[0]} {d[1]} -> {d[2]!r}"),
        ("path", schedule.path,
         lambda d: f"({d[0]}, {d[1]})"),
    ]
    for name, stream, fmt in streams:
        if not stream:
            continue
        lines.append(f"  {name} ({len(stream)}):")
        for i, decision in enumerate(stream[:max_decisions]):
            lines.append(f"    [{i}] {fmt(decision)}")
        if len(stream) > max_decisions:
            lines.append(f"    … {len(stream) - max_decisions} more")
    return "\n".join(lines)


def render_run_diff(diff) -> str:
    """Render a :class:`~repro.obs.diff.RunDiff` (see
    :func:`~repro.obs.diff.diff_runs`)."""
    lines = [diff.summary()]
    if diff.divergence is not None:
        lines.append("  " + diff.divergence.describe())
    for name, (a, b) in sorted(diff.outcome.items()):
        lines.append(f"  outcome {name}: {a!r} != {b!r}")
    if diff.digest_a != diff.digest_b:
        lines.append(f"  digest a: {diff.digest_a}")
        lines.append(f"  digest b: {diff.digest_b}")
    return "\n".join(lines)


def render_schedule_diff(diff) -> str:
    """Render a :class:`~repro.obs.diff.ScheduleDiff` (see
    :func:`~repro.obs.diff.diff_schedules`)."""
    if not diff.divergences:
        return "schedules identical"
    lines = [f"{len(diff.divergences)} divergent stream(s); "
             f"first: {diff.first.stream}[{diff.first.index}]"]
    for d in diff.divergences:
        lines.append("  " + d.describe())
    return "\n".join(lines)


def render_conformance_report(report, max_failures: int = 5) -> str:
    """Render a :class:`~repro.faults.harness.ConformanceReport`.

    Shows both clocks: ``wall_clock_s`` (what an observer waited for
    the whole grid) and ``total_elapsed_s()`` (summed per-cell
    compute).  Under a parallel executor the cells overlap, so the
    compute sum exceeds the wall clock; the ``overlap`` factor is
    their ratio — an effective-parallelism estimate.
    """
    if not report.cases:
        return (f"conformance[{report.network}] 0 cells — "
                "empty grid, vacuously conforming")
    lines = [report.summary()]
    if report.degraded:
        infra = [c for c in report.cases if c.infra_failure]
        lines.append(
            f"  DEGRADED: {len(infra)}/{len(report.cases)} cells "
            "lost to infrastructure (timeout/crash/quarantine) — "
            f"verdicts below cover the {len(report.surviving_cases)} "
            "surviving cells")
        for case in infra:
            lines.append(f"  LOST {case}")
    stats = getattr(report, "fleet_stats", None)
    if stats:
        fleet_bits = [f"workers: {stats.get('workers', 0)}"]
        for key in ("respawns", "retries", "timeouts", "crashes",
                    "errors", "quarantined"):
            if stats.get(key):
                fleet_bits.append(f"{key}: {stats[key]}")
        if stats.get("chaos"):
            fleet_bits.append(f"chaos: {stats['chaos']}")
        lines.append("  fleet " + ", ".join(fleet_bits))
    cached = report.cached_cases
    if cached:
        lines.append(f"  {len(cached)}/{len(report.cases)} cells "
                     "served from cache")
    wall = report.wall_clock_s
    compute = report.total_elapsed_s()
    timing = (f"wall-clock {wall:.3f}s, "
              f"per-cell compute {compute:.3f}s")
    if wall > 0 and compute > wall:
        timing += f"  (overlap ×{compute / wall:.1f})"
    lines.append(timing)
    plans: Dict[str, Dict[str, int]] = {}
    for case in report.cases:
        per = plans.setdefault(case.plan, {})
        per[case.outcome] = per.get(case.outcome, 0) + 1
    for plan in sorted(plans):
        counts = ", ".join(f"{k}: {v}"
                           for k, v in sorted(plans[plan].items()))
        lines.append(f"  {plan:<16s} {counts}")
    # infra losses were already listed under DEGRADED; FAIL lines are
    # genuine verdicts of the system under test
    failures = report.genuine_failures
    for case in failures[:max_failures]:
        lines.append(f"  FAIL {case}")
    if len(failures) > max_failures:
        lines.append(f"  … {len(failures) - max_failures} more "
                     "failing cells")
    return "\n".join(lines)


def render_table(headers: Iterable[str],
                 rows: Iterable[Iterable[object]]) -> str:
    """A minimal fixed-width text table (used by the CLI)."""
    header_list = [str(h) for h in headers]
    row_lists = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header_list]
    for row in row_lists:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header_list)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt.format(*row) for row in row_lists)
    return "\n".join(lines)
