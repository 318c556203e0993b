"""Self-contained static HTML flight-deck report for a grid run.

One grid run → one ``.html`` file: the conformance verdict, the fleet
supervision story (retries, timeouts, quarantines, the trace records
its cells handed back), the cache hit-rate and the merged metrics —
including the p50/p90/p99 histogram quantiles and tiny inline bucket
bar charts — all rendered with inline CSS and zero external assets,
so the file can be archived as a CI artifact and opened years later,
offline.

The machine-readable twin of the page rides inside it: the JSON
exposition (:func:`repro.obs.exposition.to_json_exposition`) is
embedded in a ``<script type="application/json" id="metrics">`` block,
so the artifact serves dashboards and humans from one file.

Pure string construction — no templating dependency, deterministic
output for a given input (timestamps appear only if the caller passes
one in ``meta``).
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Optional

from repro.obs.metrics import QUANTILES
from repro.obs.exposition import to_json_exposition

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1a202c; background: #fafafa; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .3rem .6rem;
         border-bottom: 1px solid #e2e8f0; }
th { background: #edf2f7; font-weight: 600; }
tr.outcome-conforms td.outcome { color: #276749; }
tr.infra td.outcome { color: #975a16; }
tr.fail td.outcome { color: #9b2c2c; font-weight: 700; }
.cards { display: flex; flex-wrap: wrap; gap: .8rem; margin: 1rem 0; }
.card { background: #fff; border: 1px solid #e2e8f0;
        border-radius: .4rem; padding: .6rem 1rem; min-width: 7rem; }
.card .v { font-size: 1.3rem; font-weight: 700; display: block; }
.card .k { font-size: .7rem; color: #718096;
           text-transform: uppercase; letter-spacing: .05em; }
.bar { display: inline-block; background: #4299e1; height: .7rem;
       vertical-align: middle; min-width: 1px; }
.bucketrow { font-size: .75rem; color: #4a5568;
             font-variant-numeric: tabular-nums; }
.mono { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
        font-size: .8rem; }
.degraded { background: #fffaf0; border: 1px solid #ed8936;
            border-radius: .4rem; padding: .6rem 1rem; }
footer { margin-top: 3rem; font-size: .75rem; color: #a0aec0; }
"""


def _esc(v: Any) -> str:
    return html.escape(str(v), quote=True)


def _card(value: Any, label: str) -> str:
    return (f'<div class="card"><span class="v">{_esc(value)}</span>'
            f'<span class="k">{_esc(label)}</span></div>')


def _fmt_num(v: Any) -> str:
    if v is None:
        return "—"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _case_row_class(case: Any) -> str:
    if case.outcome == "conforms":
        return "outcome-conforms"
    if getattr(case, "infra_failure", False):
        return "infra"
    return "fail"


def _histogram_block(name: str, value: Dict[str, Any]) -> str:
    """One histogram as a stat line plus an inline bucket bar chart."""
    stats = " · ".join(
        f"{k}={_fmt_num(value.get(k))}"
        for k in ("count", "total", "min", "max", "mean",
                  "p50", "p90", "p99")
        if value.get(k) is not None)
    rows: List[str] = []
    buckets = {int(k): int(v)
               for k, v in (value.get("buckets") or {}).items()}
    peak = max(buckets.values(), default=1)
    for k in sorted(buckets):
        upper = "1" if k <= 0 else str(2 ** k)
        width = max(1, round(120 * buckets[k] / peak))
        rows.append(
            f'<div class="bucketrow">&le; {upper:>}: '
            f'<span class="bar" style="width:{width}px"></span> '
            f"{buckets[k]}</div>")
    return (f"<tr><td class=\"mono\">{_esc(name)}</td>"
            f"<td>{_esc(stats)}{''.join(rows)}</td></tr>")


def render_html_report(report: Any,
                       metrics_summary: Optional[Dict[str, Any]]
                       = None,
                       status: Optional[Dict[str, Any]] = None,
                       meta: Optional[Dict[str, Any]] = None) -> str:
    """Render a :class:`~repro.faults.harness.ConformanceReport` (plus
    an optional grid-level metrics summary and a final
    :meth:`~repro.obs.telemetry.FleetStatus.snapshot`) as one
    self-contained HTML page."""
    cases = list(getattr(report, "cases", []))
    conforming = sum(1 for c in cases if c.outcome == "conforms")
    infra = [c for c in cases if getattr(c, "infra_failure", False)]
    genuine = list(getattr(report, "genuine_failures", []))
    cached = list(getattr(report, "cached_cases", []))
    stats = getattr(report, "fleet_stats", None) or {}
    wall = getattr(report, "wall_clock_s", 0.0)
    compute = (report.total_elapsed_s()
               if hasattr(report, "total_elapsed_s") else 0.0)

    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>repro grid — {_esc(report.network)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Grid flight deck — <span class=\"mono\">"
        f"{_esc(report.network)}</span></h1>",
    ]
    if meta:
        bits = " · ".join(f"{_esc(k)}: {_esc(v)}"
                          for k, v in sorted(meta.items()))
        parts.append(f"<p class=\"mono\">{bits}</p>")

    parts.append('<div class="cards">')
    parts.append(_card(len(cases), "cells"))
    parts.append(_card(conforming, "conforming"))
    parts.append(_card(len(genuine), "genuine failures"))
    parts.append(_card(len(infra), "infra lost"))
    if cached:
        parts.append(_card(len(cached), "cache hits"))
    parts.append(_card(f"{wall:.3f}s", "wall clock"))
    if wall > 0 and compute > wall:
        parts.append(_card(f"×{compute / wall:.1f}", "overlap"))
    if stats.get("trace_records"):
        parts.append(_card(stats["trace_records"], "trace records"))
    parts.append("</div>")

    if infra:
        parts.append(
            f'<div class="degraded"><strong>DEGRADED:</strong> '
            f"{len(infra)}/{len(cases)} cells lost to infrastructure "
            "(timeout / crash / quarantine); verdicts below cover the "
            "surviving cells.</div>")

    if stats:
        parts.append("<h2>Fleet</h2><table>")
        parts.append("<tr><th>stat</th><th>value</th></tr>")
        for key in ("workers", "spawns", "respawns", "dispatches",
                    "retries", "timeouts", "crashes", "errors",
                    "quarantined", "completed", "trace_records",
                    "chaos"):
            if stats.get(key):
                parts.append(f"<tr><td>{_esc(key)}</td>"
                             f"<td>{_esc(stats[key])}</td></tr>")
        parts.append("</table>")

    if status:
        parts.append("<h2>Final status</h2><table>")
        parts.append("<tr><th>field</th><th>value</th></tr>")
        for key in sorted(status):
            parts.append(f"<tr><td>{_esc(key)}</td>"
                         f"<td>{_esc(_fmt_num(status[key]))}"
                         "</td></tr>")
        parts.append("</table>")

    parts.append("<h2>Cells</h2><table>")
    parts.append("<tr><th>plan</th><th>seed</th><th>outcome</th>"
                 "<th>elapsed</th><th>attempts</th>"
                 "<th>digest</th></tr>")
    for case in cases:
        digest = ""
        schedule = getattr(case, "schedule", None)
        if schedule is not None:
            digest = schedule.digest()[:12]
        parts.append(
            f'<tr class="{_case_row_class(case)}">'
            f"<td>{_esc(case.plan)}</td><td>{_esc(case.seed)}</td>"
            f'<td class="outcome">{_esc(case.outcome)}</td>'
            f"<td>{case.elapsed_s * 1e3:.1f}ms</td>"
            f"<td>{_esc(getattr(case, 'attempts', 1))}</td>"
            f'<td class="mono">{_esc(digest)}</td></tr>')
    parts.append("</table>")

    if metrics_summary:
        histograms = {n: v for n, v in metrics_summary.items()
                      if isinstance(v, dict) and "buckets" in v}
        scalars = {n: v for n, v in metrics_summary.items()
                   if n not in histograms}
        if scalars:
            parts.append("<h2>Metrics</h2><table>")
            parts.append("<tr><th>metric</th><th>value</th></tr>")
            for name in sorted(scalars):
                value = scalars[name]
                if isinstance(value, dict):
                    value = " · ".join(
                        f"{k}={_fmt_num(v)}"
                        for k, v in sorted(value.items())
                        if v is not None)
                parts.append(
                    f'<tr><td class="mono">{_esc(name)}</td>'
                    f"<td>{_esc(value)}</td></tr>")
            parts.append("</table>")
        if histograms:
            quants = "/".join(q for q, _ in QUANTILES)
            parts.append(f"<h2>Histograms ({quants})</h2><table>")
            parts.append("<tr><th>histogram</th>"
                         "<th>distribution</th></tr>")
            for name in sorted(histograms):
                parts.append(_histogram_block(name, histograms[name]))
            parts.append("</table>")
        exposition = to_json_exposition(metrics_summary, meta=meta)
        blob = json.dumps(exposition, indent=2, sort_keys=True)
        # keep the script block inert: a metric/channel/agent name
        # containing "</script" or "<!--" must not break out of it;
        # < parses back to the same string
        blob = blob.replace("<", "\\u003c")
        parts.append('<script type="application/json" id="metrics">')
        parts.append(blob)
        parts.append("</script>")

    parts.append(
        "<footer>repro grid flight deck — self-contained artifact; "
        "machine-readable metrics live in "
        '<span class="mono">#metrics</span>.</footer>')
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_html_report(report: Any, path: str,
                      metrics_summary: Optional[Dict[str, Any]]
                      = None,
                      status: Optional[Dict[str, Any]] = None,
                      meta: Optional[Dict[str, Any]] = None) -> str:
    """Write :func:`render_html_report` to ``path``; returns the
    rendered text."""
    text = render_html_report(report, metrics_summary=metrics_summary,
                              status=status, meta=meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
