"""Solver cost attribution views + collapsed-stack export.

The ROADMAP's "compile the hot path" item needs evidence before anyone
touches ``f(v) ⊑ g(u)``: *where does ⊑-evaluation time actually go?*
This module is that evidence, in two halves:

* :func:`solver_profile` — a read-only view of a traced exploration's
  metrics summary (``SolverResult.metrics``): per-site evaluation
  counts and wall-time for the solver's hot sites (``rhs.apply``,
  ``limit_report``, the ``lhs.apply`` expand/probe/root scans, cache
  consults), kept as ``solver.site.<site>.calls``/``.ns`` counters,
  the strategy and state-graph event counters, and the per-level
  time series (frontier width, expansions, prunes, dead ends) the BFS
  walk keeps beside them.  The *counts* are deterministic — they must
  agree with the evaluation counts pinned by
  ``tests/core/test_solver_memo.py``: one limit check per node, ``f``
  once per proposed candidate, and one ``g`` per node.  The nanosecond
  columns are wall-clock and never enter any digest.  Only a traced
  :meth:`SmoothSolutionSolver.explore` has a registry to read;
  ``NULL_TRACER`` runs never allocate one.  :func:`hotspots` ranks
  the same sites by time share.

* :func:`collapsed_stacks` / :func:`write_collapsed` — fold a tracer's
  span records into Brendan-Gregg collapsed-stack lines
  (``track;span;span <self-ns>``), the format speedscope and
  ``flamegraph.pl`` import directly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Hot-site display order for reports (unknown sites sort after).
SITE_ORDER = ("compile.build", "rhs.apply", "lhs.apply.expand",
              "lhs.apply.probe", "lhs.apply.root", "limit_report",
              "cache.get", "cache.put")

#: The counters of untimed walk events (strategy pushes/pops,
#: state-graph revisits).
_EVENT_COUNTERS = ("solver.strategy.", "solver.states.")

_SITE = "solver.site."


def solver_profile(metrics: Optional[Dict[str, Any]],
                   levels: Sequence[Dict[str, int]] = ()
                   ) -> Dict[str, Any]:
    """The solver's cost attribution, read from a metrics summary:
    ``sites`` (``{site: {"calls", "ns"}}``), ``levels``, the event
    ``counters`` (named without their ``solver.`` prefix),
    ``total_ns`` and the ``f``/``g`` evaluation totals."""
    sites: Dict[str, Dict[str, int]] = {}
    counters: Dict[str, int] = {}
    for name, value in (metrics or {}).items():
        if name.startswith(_SITE):
            site, _, column = name[len(_SITE):].rpartition(".")
            sites.setdefault(site, {"calls": 0, "ns": 0})[column] = value
        elif name.startswith(_EVENT_COUNTERS):
            counters[name[len("solver."):]] = value

    def calls(*names: str) -> int:
        return sum(sites[name]["calls"] for name in names if name in sites)

    return {
        "sites": sites,
        "levels": list(levels),
        "counters": counters,
        "total_ns": sum(v["ns"] for v in sites.values()),
        "f_evaluations": calls("lhs.apply.expand", "lhs.apply.probe",
                               "lhs.apply.root"),
        "g_evaluations": calls("rhs.apply"),
    }


def hotspots(metrics: Optional[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rank a metrics summary's solver sites by time share
    (descending ns, then the canonical site order so zero-time runs
    stay stable)."""
    view = solver_profile(metrics)
    total = max(1, view["total_ns"])
    rank = {name: i for i, name in enumerate(SITE_ORDER)}
    rows = [{
        "site": name,
        "calls": v["calls"],
        "ns": v["ns"],
        "share": v["ns"] / total,
    } for name, v in view["sites"].items()]
    rows.sort(key=lambda r: (-r["ns"],
                             rank.get(r["site"], len(SITE_ORDER)),
                             r["site"]))
    return rows


# -- collapsed stacks ---------------------------------------------------------

def collapsed_stacks(records: Iterable[Any]) -> Dict[str, int]:
    """Fold span records into ``track;outer;inner -> self-time (ns)``.

    Span nesting is reconstructed per track from the recorded
    intervals (records arrive in span-*exit* order, so children
    precede their parents in the stream; sorting by start time and
    depth restores the call order).  Self time is a span's duration
    minus its direct children's — clamped at zero against clock
    jitter — so the folded weights sum to the roots' total time.
    """
    per_track: Dict[str, List[Any]] = {}
    for rec in records:
        if getattr(rec, "kind", "") == "span":
            per_track.setdefault(rec.track, []).append(rec)
    folded: Dict[str, int] = {}

    def charge(track: str, names: List[str], self_ns: int) -> None:
        key = ";".join([track] + names)
        folded[key] = folded.get(key, 0) + max(0, self_ns)

    for track in sorted(per_track):
        spans = sorted(per_track[track],
                       key=lambda r: (r.start_ns, r.depth,
                                      -r.dur_ns))
        # stack entries: [name, end_ns, dur_ns, children_ns]
        stack: List[List[Any]] = []

        def pop_one() -> None:
            name, _, dur, children = stack.pop()
            charge(track, [s[0] for s in stack] + [name],
                   dur - children)
            if stack:
                stack[-1][3] += dur

        for span in spans:
            while stack and stack[-1][1] <= span.start_ns:
                pop_one()
            stack.append([span.name, span.start_ns + span.dur_ns,
                          span.dur_ns, 0])
        while stack:
            pop_one()
    return folded


def write_collapsed(records: Iterable[Any], path: str) -> int:
    """Write the collapsed-stack lines (speedscope-importable);
    returns the number of distinct stacks."""
    folded = collapsed_stacks(records)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(folded):
            fh.write(f"{key} {folded[key]}\n")
    return len(folded)
