"""Flight recorder: capture a run's nondeterminism as a ``Schedule``.

A network computation is determined by its oracle (which ready agent
steps, which branch each choice takes) plus the fault models' RNG
draws.  This module captures exactly that decision stream — nothing
else — into a compact, JSON-serializable :class:`Schedule`, so any run
(a conformance verdict, a watchdog firing, a flaky grid cell) ships
its own reproduction recipe.  The operational reading of the paper's
§4.6 oracles: a schedule *is* the oracle of one computation, reified,
and — via the §3.3 correspondence — a witness path in the tree of
smooth approximations.

The counterpart modules are :mod:`repro.obs.replay` (re-execute a
schedule bit-for-bit, detect divergence) and :mod:`repro.obs.diff`
(align two runs, delta-debug a failing schedule down to a minimal
one).

This module deliberately imports nothing from :mod:`repro.kahn` or
:mod:`repro.faults` — it is loaded from ``repro.obs.__init__``, which
the runtime itself imports, so everything here duck-types against
agents, oracles and fault plans.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Format version stamped into serialized schedules.
SCHEDULE_VERSION = 1


def stable_digest(payload: Any) -> str:
    """A content hash stable across processes and Python hash seeds.

    ``payload`` must be JSON-serializable (the callers build it from
    channel names, ``repr``'d messages and sorted field lists).  Two
    runs with equal digests made the same externally visible
    computation.
    """
    return canonical_digest(json.dumps(payload, sort_keys=True,
                                       separators=(",", ":")))


def canonical_digest(canonical: str) -> str:
    """:func:`stable_digest` of a payload already written as canonical
    JSON (sorted keys, ``(",", ":")`` separators, ASCII escapes) — for
    callers that assemble that text from fragments."""
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ScheduleExhausted(LookupError):
    """A scripted or replayed decision stream ran out.

    Carries the decision ``kind`` (``"agent"``, ``"choice"``,
    ``"rng"`` or ``"path"``) and the ``index`` of the first missing
    decision, so replay divergence reporting can say precisely where
    the recorded run ended relative to the live one.
    """

    def __init__(self, kind: str, index: int, detail: str = ""):
        self.kind = kind
        self.index = index
        self.detail = detail
        message = (f"schedule exhausted: no {kind} decision at "
                   f"index {index}")
        if detail:
            message += f" ({detail})"
        super().__init__(message)


@dataclass
class Schedule:
    """The recorded nondeterminism of one run.

    Four decision streams, each a list of compact JSON-ready entries:

    * ``agent_picks`` — ``[chosen_name, [ready_names...]]`` per
      scheduler step; the ready set is kept so replay can detect that
      a recorded decision is no longer applicable.
    * ``choice_picks`` — ``[chosen_index, arity, agent_name]`` per
      ``Choose``/``RecvAny`` resolution.
    * ``rng_draws`` — ``[fault_label, method, value]`` per fault-model
      RNG draw, in global draw order.
    * ``path`` — ``[channel_name, message_repr]`` per event of a
      solver witness path (§3.3: a schedule of the search tree).

    ``meta`` carries reproduction context (scenario/plan names, seeds,
    step budgets, the original run's outcome and digest).
    """

    agent_picks: List[list] = field(default_factory=list)
    choice_picks: List[list] = field(default_factory=list)
    rng_draws: List[list] = field(default_factory=list)
    path: List[list] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- size ----------------------------------------------------------------

    def __len__(self) -> int:
        return (len(self.agent_picks) + len(self.choice_picks)
                + len(self.rng_draws) + len(self.path))

    def counts(self) -> Dict[str, int]:
        return {
            "agent_picks": len(self.agent_picks),
            "choice_picks": len(self.choice_picks),
            "rng_draws": len(self.rng_draws),
            "path": len(self.path),
        }

    # -- copying -------------------------------------------------------------

    def copy(self, **overrides: Any) -> "Schedule":
        """A deep-enough copy; ``overrides`` replace whole streams
        (used by :func:`repro.obs.diff.shrink_schedule`)."""
        out = Schedule(
            agent_picks=[list(p) for p in self.agent_picks],
            choice_picks=[list(p) for p in self.choice_picks],
            rng_draws=[list(p) for p in self.rng_draws],
            path=[list(p) for p in self.path],
            meta=dict(self.meta),
        )
        for name, value in overrides.items():
            if not hasattr(out, name):
                raise AttributeError(f"Schedule has no field {name!r}")
            setattr(out, name, value)
        return out

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SCHEDULE_VERSION,
            "meta": dict(self.meta),
            "agent_picks": [list(p) for p in self.agent_picks],
            "choice_picks": [list(p) for p in self.choice_picks],
            "rng_draws": [list(p) for p in self.rng_draws],
            "path": [list(p) for p in self.path],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schedule":
        """Strict loader: requires the ``version`` stamp.

        ``to_dict``/``save`` always write ``version``, so a dict
        without it is a truncated or hand-edited file — refuse it with
        a ``ValueError`` naming the keys that *are* present instead of
        defaulting to the current version and diverging confusingly
        mid-replay.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"schedule is not an object: {type(data).__name__}")
        if "version" not in data:
            raise ValueError(
                "schedule missing required 'version' field "
                f"(found keys: {sorted(data)}); the file may be "
                "truncated or hand-edited")
        version = data["version"]
        if version != SCHEDULE_VERSION:
            raise ValueError(
                f"unsupported schedule version {version!r} "
                f"(this build reads version {SCHEDULE_VERSION})"
            )
        return cls(
            agent_picks=[list(p) for p in data.get("agent_picks", [])],
            choice_picks=[list(p) for p in data.get("choice_picks", [])],
            rng_draws=[list(p) for p in data.get("rng_draws", [])],
            path=[list(p) for p in data.get("path", [])],
            meta=dict(data.get("meta", {})),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=2))
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Schedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def digest(self) -> str:
        """Content hash of the decision streams (meta excluded, so a
        re-recorded identical run hashes identically)."""
        return stable_digest({
            "agent_picks": self.agent_picks,
            "choice_picks": self.choice_picks,
            "rng_draws": self.rng_draws,
            "path": self.path,
        })

    def __repr__(self) -> str:
        c = self.counts()
        parts = [f"{k}={v}" for k, v in c.items() if v]
        return f"Schedule({', '.join(parts) or 'empty'})"


class RecordingOracle:
    """Wrap any oracle; forward its decisions, logging each one.

    Decisions are normalized (``% len(ready)`` / ``% arity``, matching
    what the runtime does with the returned index) before recording,
    so the schedule stores what actually happened.
    """

    def __init__(self, base: Any,
                 schedule: Optional[Schedule] = None):
        self.base = base
        self.schedule = schedule if schedule is not None else Schedule()
        self.schedule.meta.setdefault("oracle", type(base).__name__)
        seed = getattr(base, "seed", None)
        if seed is not None:
            self.schedule.meta.setdefault("oracle_seed", seed)

    def pick_agent(self, ready: list) -> int:
        index = self.base.pick_agent(ready) % len(ready)
        self.schedule.agent_picks.append(
            [ready[index].name, [a.name for a in ready]]
        )
        return index

    def pick_choice(self, agent: Any, arity: int) -> int:
        value = self.base.pick_choice(agent, arity) % arity
        self.schedule.choice_picks.append(
            [value, arity, getattr(agent, "name", "?")]
        )
        return value


class RecordingRandom:
    """Proxy a ``random.Random``, logging every draw a fault makes.

    Only the methods the fault models use (``random``, ``randint``,
    ``randrange``, ``choice``) are recorded; ``choice`` records the
    *index* drawn (via ``randrange``, which consumes the same
    underlying state), so recorded values are always JSON scalars.
    Anything else falls through to the base RNG unrecorded.
    """

    def __init__(self, base: Any, label: str, draws: List[list]):
        self._base = base
        self._label = label
        self._draws = draws

    def _log(self, method: str, value: Any) -> Any:
        self._draws.append([self._label, method, value])
        return value

    def random(self) -> float:
        return self._log("random", self._base.random())

    def randint(self, a: int, b: int) -> int:
        return self._log(f"randint({a},{b})", self._base.randint(a, b))

    def randrange(self, *args: int) -> int:
        method = "randrange(" + ",".join(map(str, args)) + ")"
        return self._log(method, self._base.randrange(*args))

    def choice(self, seq: Any) -> Any:
        index = self._base.randrange(len(seq))
        self._log(f"choice[{len(seq)}]", index)
        return seq[index]

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)


def iter_fault_rngs(plan: Any) -> Iterator[Tuple[str, Any]]:
    """Deterministically enumerate a plan's RNG-bearing fault models.

    Yields ``(label, fault)`` pairs sorted by channel name, descending
    into pipelines by stage index.  The label keys the fault's draws
    in ``Schedule.rng_draws`` so replay can bind each recorded draw
    back to the same model.  ``plan`` is duck-typed
    (:class:`repro.faults.plan.FaultPlan`).
    """
    for channel, fault in sorted(plan.channel_faults.items()):
        yield from _labeled_rngs(channel.name, fault)


def _labeled_rngs(prefix: str, fault: Any) -> Iterator[Tuple[str, Any]]:
    stages = getattr(fault, "faults", None)
    if stages is not None:  # a FaultPipeline: label each stage
        for i, stage in enumerate(stages):
            yield from _labeled_rngs(f"{prefix}/{i}", stage)
        return
    if hasattr(fault, "rng"):
        yield f"{prefix}:{type(fault).__name__}", fault


def record_fault_rng(plan: Any, schedule: Schedule) -> None:
    """Swap every fault model's RNG for a recording proxy.

    After this, each draw the plan makes lands in
    ``schedule.rng_draws`` in global draw order.  The plan must be a
    fresh instance (plans are stateful); call before the run starts.
    """
    for label, fault in iter_fault_rngs(plan):
        fault.rng = RecordingRandom(fault.rng, label,
                                    schedule.rng_draws)
