"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one figure / worked example /
theorem claim from the paper (see DESIGN.md §3 for the index) and
times the core computation with pytest-benchmark.  The printed rows
are the reproduction artifact; timings situate the implementation's
costs (tree search growth, elimination overhead, etc.).

Besides printing, every ``row(...)`` is collected, and at session end
the rows plus the pytest-benchmark timing stats are written as
machine-readable JSON — the perf trajectory the human-readable rows
could never seed.  The default target is the git-ignored
``BENCH_local.json`` at the repo root, so a local run of a few benches
never replaces the tracked trajectory seed; set
``BENCH_JSON=BENCH_core.json`` (as CI does) to refresh that seed.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
from typing import Any, Dict, List, Optional

_CONTEXT: Dict[str, Optional[str]] = {
    "experiment": None, "claim": None, "test": None,
}
_ROWS: List[Dict[str, Any]] = []


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def banner(experiment: str, claim: str) -> None:
    print(f"\n[{experiment}] {claim}")
    _CONTEXT["experiment"] = experiment
    _CONTEXT["claim"] = claim


def row(label: str, value: object) -> None:
    print(f"    {label:<44s} {value}")
    _ROWS.append({
        "experiment": _CONTEXT["experiment"],
        "claim": _CONTEXT["claim"],
        "test": _CONTEXT["test"],
        "label": label,
        "value": _jsonable(value),
    })


# -- pytest hooks: attribute rows to tests, dump JSON at session end ------

def pytest_runtest_logstart(nodeid, location):
    _CONTEXT["test"] = nodeid
    _CONTEXT["experiment"] = None
    _CONTEXT["claim"] = None


def _benchmark_stats(config) -> List[Dict[str, Any]]:
    """Extract pytest-benchmark timings, tolerating disabled runs."""
    session = getattr(config, "_benchmarksession", None)
    if session is None:
        return []
    out: List[Dict[str, Any]] = []
    for bench in getattr(session, "benchmarks", []):
        entry: Dict[str, Any] = {
            "name": getattr(bench, "name", None),
            "fullname": getattr(bench, "fullname", None),
            "group": getattr(bench, "group", None),
        }
        stats = getattr(bench, "stats", None)
        if stats is not None:
            for key in ("min", "max", "mean", "stddev", "median",
                        "rounds", "iterations", "ops"):
                try:
                    entry[key] = _jsonable(getattr(stats, key))
                except Exception:
                    continue
        out.append(entry)
    return out


def pytest_sessionfinish(session, exitstatus):
    benchmarks = _benchmark_stats(session.config)
    if not _ROWS and not benchmarks:
        return  # nothing benchmark-shaped ran; don't touch the file
    default = pathlib.Path(__file__).resolve().parent.parent \
        / "BENCH_local.json"
    path = pathlib.Path(os.environ.get("BENCH_JSON", default))
    payload = {
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "exitstatus": int(exitstatus),
        "rows": _ROWS,
        "benchmarks": benchmarks,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
    print(f"\nbenchmark JSON: {len(_ROWS)} rows, "
          f"{len(benchmarks)} timed benchmarks -> {path}")
