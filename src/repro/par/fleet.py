"""Fault-tolerant grid fleet: supervised workers for the parallel grid.

The plain ``multiprocessing.Pool.imap`` executor that first parallelized
the conformance grid had a single failure domain: one segfaulting,
OOM-killed or wedged worker stalled or aborted the whole grid and lost
every completed cell.  This module replaces it with a *supervising
coordinator* in the spirit of PR 1's :class:`SupervisedRuntime` — the
same restart discipline, one level up: the network of workers is itself
an asynchronous process network (Abramsky's generalized Kahn principle,
see PAPERS.md), and the coordinator plays supervisor to it.

Per cell the coordinator provides:

* **deadlines** — a cell that exceeds ``cell_timeout_s`` has its worker
  SIGKILLed and reaped, and the attempt is recorded as a timeout;
* **bounded retries** — failed attempts (timeout, worker crash, or an
  in-worker exception) are re-queued up to ``retries`` times with an
  exponential, capped, seeded-jitter backoff reusing the generalized
  :class:`~repro.faults.supervision.RestartPolicy`;
* **respawn** — a worker that dies (exit code, signal, or pipe loss) is
  replaced immediately; the rest of the grid never waits on a corpse;
* **poison-cell quarantine** — a cell that fails every attempt is
  isolated into a ``quarantine/`` bundle (task spec, fleet policy,
  attempt log, per-attempt worker stderr) that replays standalone via
  ``python -m repro replay <bundle>``, while the surviving cells
  complete and keep their bit-for-bit serial digests.

Chaos self-test: a :class:`ChaosSpec` (``kill-worker:p``) makes each
worker SIGKILL *itself* at task receipt with a per-``(cell, attempt)``
deterministic coin — same chaos seed, same kill pattern, in the
original run and in a bundle replay alike.

Everything is instrumented through :mod:`repro.obs`: ``fleet.spawn`` /
``fleet.dispatch`` / ``fleet.retry`` / ``fleet.timeout`` /
``fleet.crash`` / ``fleet.quarantine`` events (per-worker Perfetto
tracks ``fleet.w<N>``).  The report's ``fleet_stats`` counts
retries, timeouts, crashes, errors and quarantines, and carries the
backoff/attempt histograms under ``"metrics"``.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import multiprocessing
import os
import pathlib
import random
import re
import shutil
import signal
import sys
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.harness import ConformanceCase
from repro.faults.supervision import RestartPolicy
from repro.obs.metrics import MetricsRegistry

#: Format version stamped into quarantine bundles' ``cell.json``.
QUARANTINE_VERSION = 1

#: Attempt-failure kind -> the report outcome used when quarantine is
#: disabled (with a quarantine dir the final outcome is "quarantined").
_FAILURE_OUTCOME = {"timeout": "timeout", "crashed": "crashed",
                    "error": "crashed"}


@dataclass(frozen=True)
class ChaosSpec:
    """Self-test fault injection for the fleet itself.

    ``kill_worker_p`` is the probability that a worker SIGKILLs itself
    at task receipt.  The coin is flipped with a dedicated
    ``random.Random`` seeded from ``(seed, cell coordinate, attempt)``,
    so the kill pattern is a pure function of the spec and the grid —
    independent of timing, worker identity and platform.  Retried
    attempts flip fresh coins, so with ``p < 1`` a killed cell
    eventually completes (and with ``p = 1`` it deterministically
    exhausts its attempts — the quarantine smoke test).
    """

    kill_worker_p: float = 0.0
    seed: int = 0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "ChaosSpec":
        """Parse a CLI chaos spec like ``kill-worker:0.3``."""
        kind, sep, arg = spec.partition(":")
        if kind != "kill-worker":
            raise ValueError(
                f"unknown chaos spec {spec!r} "
                "(supported: kill-worker:P)")
        try:
            p = float(arg) if sep else 0.2
        except ValueError:
            raise ValueError(
                f"chaos probability {arg!r} is not a number") from None
        if not 0.0 <= p <= 1.0:
            raise ValueError(
                f"chaos probability {p} outside [0, 1]")
        return cls(kill_worker_p=p, seed=seed)

    def kills(self, task: Any, attempt: int) -> bool:
        """The deterministic per-``(cell, attempt)`` kill decision."""
        if self.kill_worker_p <= 0.0:
            return False
        key = (f"{self.seed}|{task.scenario}|{task.plan}"
               f"|{task.seed}|{attempt}")
        return random.Random(key).random() < self.kill_worker_p

    def describe(self) -> str:
        return f"kill-worker:{self.kill_worker_p}"


@dataclass(frozen=True)
class FleetPolicy:
    """How the fleet supervises its workers.

    ``retries`` counts *re*-attempts: a cell gets ``retries + 1``
    attempts before it is declared poison.  The backoff before the
    ``n``-th retry is ``backoff.jittered_delay(n, jitter_seed, cell) *
    backoff_unit_s`` — the generalized
    :class:`~repro.faults.supervision.RestartPolicy` provides the
    exponential shape, the cap and the seeded jitter (its
    ``max_restarts`` field is not consulted here; ``retries`` governs).
    ``cell_timeout_s=None`` disables deadlines; ``quarantine_dir=None``
    disables bundles (poison cells are then reported with the last
    failure kind — ``timeout`` / ``crashed`` — instead of
    ``quarantined``).
    """

    cell_timeout_s: Optional[float] = None
    retries: int = 2
    backoff: RestartPolicy = RestartPolicy(
        backoff_initial=1, backoff_factor=2, backoff_cap=8,
        jitter=0.5)
    backoff_unit_s: float = 0.05
    jitter_seed: int = 0
    quarantine_dir: Optional[str] = None
    chaos: Optional[ChaosSpec] = None
    #: coordinator poll granularity (deadline/retry resolution)
    poll_s: float = 0.02

    @property
    def needs_fleet(self) -> bool:
        """Does this policy demand the supervised executor even for
        grids the old gate would run serially (one cell, one worker)?
        Deadlines, chaos and quarantine all require a separate,
        killable worker process."""
        return (self.cell_timeout_s is not None
                or self.chaos is not None
                or self.quarantine_dir is not None)

    def max_attempts(self) -> int:
        return max(1, self.retries + 1)

    def backoff_s(self, failures: int, salt: str) -> float:
        """Seconds to wait before re-dispatching after ``failures``
        failed attempts (1-based, deterministic per cell)."""
        return self.backoff.jittered_delay(
            failures, seed=self.jitter_seed, salt=salt
        ) * self.backoff_unit_s

    def to_dict(self) -> dict:
        """JSON-ready form stored in quarantine bundles."""
        return {
            "cell_timeout_s": self.cell_timeout_s,
            "retries": self.retries,
            "backoff": dataclasses.asdict(self.backoff),
            "backoff_unit_s": self.backoff_unit_s,
            "jitter_seed": self.jitter_seed,
            "chaos": (dataclasses.asdict(self.chaos)
                      if self.chaos is not None else None),
        }

    @classmethod
    def from_dict(cls, data: dict,
                  quarantine_dir: Optional[str] = None
                  ) -> "FleetPolicy":
        """Rebuild a policy from a bundle's ``cell.json`` slice."""
        if not isinstance(data, dict):
            raise ValueError(
                f"fleet policy is not an object: "
                f"{type(data).__name__}")
        chaos = data.get("chaos")
        return cls(
            cell_timeout_s=data.get("cell_timeout_s"),
            retries=int(data.get("retries", 2)),
            backoff=RestartPolicy(**data.get("backoff", {})),
            backoff_unit_s=float(data.get("backoff_unit_s", 0.05)),
            jitter_seed=int(data.get("jitter_seed", 0)),
            quarantine_dir=quarantine_dir,
            chaos=ChaosSpec(**chaos) if chaos else None,
        )


# -- the worker process ------------------------------------------------------


def _worker_main(conn, chaos: Optional[ChaosSpec],
                 stderr_path: Optional[str]) -> None:
    """Worker loop: receive a cell, run it, send the result back.

    Runs in a forked child.  ``None`` (or pipe EOF) is the shutdown
    signal.  An exception inside the cell is reported as an ``err``
    message and the worker keeps serving — only the coordinator
    decides whether that attempt is retried.  With ``stderr_path`` the
    worker's fd 2 is redirected there (append mode), so a crashing
    cell's last words survive the process for the quarantine bundle.
    """
    if stderr_path is not None:
        fd = os.open(stderr_path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(fd, 2)
        if fd != 2:
            os.close(fd)
        sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
    from repro.par import _cell_worker

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg is None:
            return
        task, attempt = msg
        if chaos is not None and chaos.kills(task, attempt):
            print(f"chaos: SIGKILL on {task.scenario}/{task.plan}"
                  f"×{task.seed} attempt {attempt}",
                  file=sys.stderr, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        # traced cells stream their records over the result pipe in
        # bounded batches ("tel" messages) instead of buffering them
        # for the final "ok" — the pipe's own blocking send is the
        # backpressure, and FIFO ordering guarantees every batch lands
        # before the result message that commits them
        ship = None
        if task.traced:
            def ship(batch, _conn=conn):
                try:
                    _conn.send(("tel", batch))
                except (BrokenPipeError, OSError):
                    pass        # coordinator gone; the run is over
        try:
            case, _records = _cell_worker(task, ship=ship)
        except Exception:
            conn.send(("err", traceback.format_exc(limit=30)))
            continue
        try:
            conn.send(("ok", case))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Coordinator-side handle for one monitored worker process."""

    __slots__ = ("wid", "proc", "conn", "assigned", "dispatched_at",
                 "deadline", "stderr_path", "stderr_offset")

    def __init__(self, wid: int):
        self.wid = wid
        self.proc = None
        self.conn = None
        #: the in-flight item ``(index, task, attempt, log)`` or None
        self.assigned: Optional[tuple] = None
        self.dispatched_at = 0.0
        self.deadline: Optional[float] = None
        self.stderr_path: Optional[str] = None
        self.stderr_offset = 0


# -- the coordinator ---------------------------------------------------------


def run_fleet(pending: List[Tuple[int, Any]],
              workers: int,
              policy: Optional[FleetPolicy] = None,
              tracer: Any = None,
              on_case: Optional[Callable[[int, ConformanceCase],
                                         None]] = None,
              status: Any = None
              ) -> Tuple[Dict[int, ConformanceCase], Dict[str, Any]]:
    """Run ``pending`` cells (``(index, CellTask)`` pairs) over a
    supervised worker fleet.

    Returns ``(cases, stats)``: ``cases`` maps every input index to a
    classified :class:`ConformanceCase` — completed cells carry their
    live results and schedules exactly as the serial harness produces
    them; poison cells carry an infrastructure outcome (``quarantined``
    / ``timeout`` / ``crashed``) with ``result=None``.  ``stats`` is
    the fleet telemetry dict that rides on
    ``ConformanceReport.fleet_stats``.

    ``on_case(index, case)`` fires as each cell reaches its final
    state, in completion order — the hook for cache stores.
    Already-completed results are retained no matter what later
    workers do: a dying pool can no longer discard the grid.

    With a live ``tracer``, traced cells *stream* their records over
    the worker pipes in bounded batches; a
    :class:`~repro.obs.telemetry.TelemetryMerger` ingests them
    idempotently and commits an attempt's spans and metric deltas onto
    the parent timeline only when that attempt's result is accepted —
    failed attempts are abandoned wholesale, so retries never
    double-count.  That commit is the only way worker records reach
    the parent tracer.  ``status`` (a
    :class:`~repro.obs.telemetry.FleetStatus`) receives live
    scoreboard updates for the ``top`` view.
    """
    policy = policy if policy is not None else FleetPolicy()
    traced = tracer is not None and getattr(tracer, "enabled", False)
    total = len(pending)
    metrics = MetricsRegistry()
    merger = None
    if traced:
        from repro.obs.telemetry import TelemetryMerger

        merger = TelemetryMerger(tracer)
    stats: Dict[str, Any] = {
        "workers": 0, "spawns": 0, "respawns": 0, "dispatches": 0,
        "retries": 0, "timeouts": 0, "crashes": 0, "errors": 0,
        "quarantined": 0, "completed": 0,
    }
    cases: Dict[int, ConformanceCase] = {}
    if not pending:
        return cases, stats
    capture = policy.quarantine_dir is not None
    scratch = tempfile.mkdtemp(prefix="repro-fleet-") if capture \
        else None
    ctx = multiprocessing.get_context("fork")
    workers_n = max(1, min(int(workers), total))
    stats["workers"] = workers_n
    queue = deque((i, task, 1, []) for i, task in pending)
    delayed: list = []          # heap of (due, seq, item)
    seq = itertools.count()

    def fleet_event(name: str, track: str = "fleet",
                    **args: Any) -> None:
        if traced:
            tracer.event(name, category="fleet", track=track, **args)

    def spawn(w: _Worker, respawn: bool = False) -> None:
        if capture:
            w.stderr_path = os.path.join(scratch,
                                         f"worker-{w.wid}.stderr")
        parent, child = ctx.Pipe()
        w.proc = ctx.Process(
            target=_worker_main,
            args=(child, policy.chaos, w.stderr_path),
            name=f"repro-fleet-w{w.wid}", daemon=True)
        w.proc.start()
        child.close()
        w.conn = parent
        stats["respawns" if respawn else "spawns"] += 1
        fleet_event("fleet.spawn", track=f"fleet.w{w.wid}",
                    worker=w.wid, pid=w.proc.pid, respawn=respawn)

    def reap(w: _Worker, kill: bool = False) -> Optional[int]:
        """Join (killing first if asked) and return the exit code."""
        if kill:
            w.proc.kill()
        w.proc.join(timeout=2.0)
        if w.proc.exitcode is None:         # pragma: no cover
            w.proc.kill()
            w.proc.join(timeout=2.0)
        try:
            w.conn.close()
        except OSError:                     # pragma: no cover
            pass
        return w.proc.exitcode

    def stderr_slice(w: _Worker) -> str:
        if w.stderr_path is None:
            return ""
        try:
            with open(w.stderr_path, "r", encoding="utf-8",
                      errors="replace") as fh:
                fh.seek(w.stderr_offset)
                return fh.read()
        except OSError:
            return ""

    def cell_salt(task: Any) -> str:
        return f"{task.scenario}|{task.plan}|{task.seed}"

    def dispatch(w: _Worker, item: tuple, now: float) -> None:
        i, task, attempt, log = item
        w.assigned = item
        w.dispatched_at = now
        w.deadline = (now + policy.cell_timeout_s
                      if policy.cell_timeout_s is not None else None)
        if capture:
            try:
                w.stderr_offset = os.path.getsize(w.stderr_path)
            except OSError:
                w.stderr_offset = 0
        stats["dispatches"] += 1
        if status is not None:
            status.on_dispatch()
        fleet_event("fleet.dispatch", track=f"fleet.w{w.wid}",
                    worker=w.wid, plan=task.plan, seed=task.seed,
                    attempt=attempt)
        try:
            w.conn.send((task, attempt))
        except (BrokenPipeError, OSError):
            worker_died(w, "send failed: worker pipe closed")

    def complete(w: _Worker, case: ConformanceCase) -> None:
        i, task, attempt, log = w.assigned
        w.assigned = None
        w.deadline = None
        case.attempts = attempt
        cases[i] = case
        stats["completed"] += 1
        metrics.histogram("fleet.attempts").record(attempt)
        if merger is not None:
            merger.commit(cell_salt(task), attempt,
                          track_suffix=f"@{task.plan}×{task.seed}")
        if status is not None:
            status.on_settled()
            status.on_complete(case.outcome, case.elapsed_s)
        if on_case is not None:
            on_case(i, case)

    def attempt_failed(w: Optional[_Worker], item: tuple, kind: str,
                       detail: str, stderr_text: str = "") -> None:
        i, task, attempt, log = item
        elapsed = (time.monotonic() - w.dispatched_at
                   if w is not None else 0.0)
        log.append({
            "attempt": attempt, "failure": kind, "detail": detail,
            "elapsed_s": round(elapsed, 6), "stderr": stderr_text,
        })
        counter = {"timeout": "timeouts", "crashed": "crashes",
                   "error": "errors"}[kind]
        stats[counter] += 1
        if merger is not None:
            # retract the failed attempt's streamed telemetry: its
            # partial spans and metric deltas never reach the parent
            merger.abandon(cell_salt(task), attempt)
        if status is not None:
            status.on_settled()
            status.on_attempt_failed(kind)
        fleet_event(f"fleet.{kind if kind != 'error' else 'crash'}",
                    track=f"fleet.w{w.wid}" if w is not None
                    else "fleet",
                    plan=task.plan, seed=task.seed, attempt=attempt,
                    detail=detail[:200])
        if attempt >= policy.max_attempts():
            quarantine(i, task, log, kind)
            return
        delay = policy.backoff_s(attempt, salt=cell_salt(task))
        stats["retries"] += 1
        if status is not None:
            status.on_retry()
        metrics.histogram("fleet.backoff_ms").record(delay * 1000.0)
        fleet_event("fleet.retry", plan=task.plan, seed=task.seed,
                    attempt=attempt + 1, backoff_s=round(delay, 6))
        heapq.heappush(delayed, (time.monotonic() + delay, next(seq),
                                 (i, task, attempt + 1, log)))

    def quarantine(i: int, task: Any, log: list, kind: str) -> None:
        bundle = None
        if capture:
            bundle = _write_bundle(
                pathlib.Path(policy.quarantine_dir), task, log,
                policy, kind)
        history = ", ".join(e["failure"] for e in log)
        detail = (f"{len(log)} attempt(s) failed: {history}")
        outcome = "quarantined" if bundle is not None \
            else _FAILURE_OUTCOME[kind]
        if bundle is not None:
            detail += f"; bundle: {bundle}"
        else:
            detail += "; no quarantine dir configured"
        case = ConformanceCase(
            plan=task.plan, seed=task.seed, outcome=outcome,
            result=None, detail=detail,
            elapsed_s=sum(e["elapsed_s"] for e in log),
            attempts=len(log))
        cases[i] = case
        stats["quarantined"] += 1
        if status is not None:
            status.on_complete(outcome, case.elapsed_s)
        fleet_event("fleet.quarantine", plan=task.plan,
                    seed=task.seed, attempts=len(log), failure=kind,
                    bundle=str(bundle) if bundle else None)
        if on_case is not None:
            on_case(i, case)

    def worker_died(w: _Worker, why: str = "") -> None:
        code = reap(w)
        if code is not None and code < 0:
            died = f"killed by signal {-code}"
            try:
                died += f" ({signal.Signals(-code).name})"
            except ValueError:              # pragma: no cover
                pass
        else:
            died = f"exited with code {code}"
        if why:
            died = f"{why}; {died}"
        item, w.assigned, w.deadline = w.assigned, None, None
        text = stderr_slice(w)
        spawn(w, respawn=True)
        if item is not None:
            attempt_failed(w, item, "crashed",
                           f"worker {died}", text)

    def worker_timed_out(w: _Worker) -> None:
        reap(w, kill=True)
        item, w.assigned, w.deadline = w.assigned, None, None
        text = stderr_slice(w)
        spawn(w, respawn=True)
        attempt_failed(
            w, item, "timeout",
            f"exceeded cell deadline {policy.cell_timeout_s}s "
            f"(worker SIGKILLed)", text)

    fleet = [_Worker(wid) for wid in range(workers_n)]
    try:
        for w in fleet:
            spawn(w)
        while len(cases) < total:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, _, item = heapq.heappop(delayed)
                queue.append(item)
            for w in fleet:
                if w.assigned is None and queue:
                    dispatch(w, queue.popleft(), time.monotonic())
            busy = [w for w in fleet if w.assigned is not None]
            if not busy:
                if delayed:
                    due = delayed[0][0] - time.monotonic()
                    if due > 0:
                        time.sleep(min(due, policy.poll_s))
                    continue
                if queue:                   # pragma: no cover
                    continue
                break                       # pragma: no cover
            timeout = policy.poll_s
            deadlines = [w.deadline for w in busy
                         if w.deadline is not None]
            if deadlines:
                timeout = min(timeout,
                              max(0.0, min(deadlines) - now))
            if delayed:
                timeout = min(timeout, max(0.0, delayed[0][0] - now))
            handles = [w.conn for w in busy] \
                + [w.proc.sentinel for w in busy]
            ready = set(mp_connection.wait(handles, timeout=timeout))
            now = time.monotonic()
            for w in busy:
                if w.assigned is None:
                    continue
                if w.conn in ready:
                    try:
                        msg = w.conn.recv()
                    except (EOFError, OSError):
                        worker_died(w, "result pipe broke")
                        continue
                    if msg[0] == "tel":
                        i, task, attempt, _log = w.assigned
                        batch = msg[1]
                        n = len(batch.get("records") or [])
                        stats["stream_batches"] = \
                            stats.get("stream_batches", 0) + 1
                        stats["stream_records"] = \
                            stats.get("stream_records", 0) + n
                        if merger is not None:
                            merger.ingest(cell_salt(task), attempt,
                                          batch)
                        if status is not None:
                            status.on_stream(n)
                        # a streaming worker keeps its pipe ready, so
                        # the elif deadline check below would starve —
                        # enforce it here as well
                        if w.deadline is not None \
                                and now >= w.deadline:
                            worker_timed_out(w)
                    elif msg[0] == "ok":
                        complete(w, msg[1])
                    else:
                        item = w.assigned
                        w.assigned = None
                        w.deadline = None
                        attempt_failed(w, item, "error",
                                       f"cell raised:\n{msg[1]}")
                elif w.proc.sentinel in ready:
                    worker_died(w)
                elif w.deadline is not None and now >= w.deadline:
                    worker_timed_out(w)
    finally:
        for w in fleet:
            if w.proc is None:
                continue
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            reap(w)
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    summary = metrics.summary()
    if summary:
        stats["metrics"] = summary
    if policy.chaos is not None:
        stats["chaos"] = policy.chaos.describe()
    if merger is not None:
        stats["telemetry"] = merger.stats()
    return cases, stats


# -- quarantine bundles ------------------------------------------------------


def _bundle_name(task: Any) -> str:
    raw = f"{task.scenario}-{task.plan}-seed{task.seed}"
    return re.sub(r"[^A-Za-z0-9._-]", "_", raw)


def _write_bundle(qdir: pathlib.Path, task: Any, log: list,
                  policy: FleetPolicy, kind: str) -> pathlib.Path:
    """Write one poison cell's re-executable quarantine bundle.

    Layout: ``<qdir>/<scenario>-<plan>-seed<N>/`` with ``cell.json``
    (task spec, fleet policy, attempt log, final verdict),
    ``attempt-<i>.stderr.txt`` per attempt that captured worker
    stderr, and a ``README.md`` with the replay command.
    """
    bundle = qdir / _bundle_name(task)
    bundle.mkdir(parents=True, exist_ok=True)
    attempts = []
    for entry in log:
        slim = {k: entry[k] for k in ("attempt", "failure", "detail",
                                      "elapsed_s")}
        text = entry.get("stderr", "")
        if text:
            name = f"attempt-{entry['attempt']}.stderr.txt"
            (bundle / name).write_text(text, encoding="utf-8")
            slim["stderr_file"] = name
        attempts.append(slim)
    cell = {
        "version": QUARANTINE_VERSION,
        "kind": "quarantined-cell",
        "task": {
            "scenario": task.scenario, "plan": task.plan,
            "seed": task.seed, "max_steps": task.max_steps,
            "record": task.record,
        },
        "policy": policy.to_dict(),
        "attempts": attempts,
        "final": {"outcome": "quarantined", "failure": kind},
    }
    (bundle / "cell.json").write_text(
        json.dumps(cell, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (bundle / "README.md").write_text(
        f"# Quarantined cell {_bundle_name(task)}\n\n"
        f"This cell failed {len(log)} attempt(s) "
        f"(last failure: {kind}) and was isolated so the rest of the "
        "grid could complete.\n\n"
        "Replay it standalone (re-applies the recorded deadline, "
        "retry and chaos policy, so a genuine failure reproduces):\n\n"
        f"    python -m repro replay {bundle}\n",
        encoding="utf-8")
    return bundle


def replay_quarantined_cell(bundle: str | os.PathLike,
                            tracer: Any = None
                            ) -> Tuple[ConformanceCase, dict, bool]:
    """Re-execute a quarantined cell from its bundle, standalone.

    Rebuilds the :class:`~repro.par.CellTask` and
    :class:`FleetPolicy` recorded in ``cell.json`` (quarantine
    disabled, so the replay does not re-bundle) and runs the single
    cell on a one-worker fleet under the same deadline, retry and
    chaos policy.  Returns ``(case, recorded_final, reproduced)`` —
    ``reproduced`` is true when the replay reaches the same terminal
    failure kind the bundle recorded (or, for a cell that only failed
    through since-fixed infrastructure, false with the now-clean
    outcome in ``case``).
    """
    from repro.par import CellTask

    path = pathlib.Path(bundle)
    if path.is_dir():
        path = path / "cell.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("kind") != "quarantined-cell":
        raise ValueError(
            f"{path} is not a quarantine bundle "
            f"(kind={data.get('kind')!r})")
    spec = data["task"]
    task = CellTask(
        scenario=str(spec["scenario"]), plan=str(spec["plan"]),
        seed=int(spec["seed"]), max_steps=int(spec["max_steps"]),
        record=bool(spec.get("record", True)), traced=False)
    policy = FleetPolicy.from_dict(data["policy"])
    cases, _stats = run_fleet([(0, task)], workers=1, policy=policy,
                              tracer=tracer)
    case = cases[0]
    recorded = dict(data.get("final", {}))
    expected = _FAILURE_OUTCOME.get(recorded.get("failure"),
                                    recorded.get("outcome"))
    reproduced = case.outcome == expected
    return case, recorded, reproduced
