"""Operational enumeration of smooth solutions (§3.3).

The paper generalizes Kleene iteration to a *tree*: the root is ``⊥``;
a node ``u`` has a son ``v`` iff ``u pre v`` and ``f(v) ⊑ g(u)``.  Every
node of the tree automatically satisfies the smoothness condition (the
path from the root witnesses it), so

* the **finite smooth solutions** are exactly the nodes that also satisfy
  the limit condition ``f(s) = g(s)``, and
* the **infinite smooth solutions** are the lubs of infinite paths whose
  limit condition holds in the limit.

The solver explores this tree breadth-first to a depth bound.  One-step
extensions are proposed by a *candidate generator* — by default every
``(channel, message)`` pair from the channels' finite alphabets; for
channels with infinite alphabets (the naturals on ``d`` in §2.3) the
caller supplies a generator, typically derived from ``g(u)`` itself
(an output can only extend the trace if the right side already allows
it, so the elements of ``g(u)`` bound the useful candidates).
"""

from __future__ import annotations

import heapq
import json
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import DEFAULT_DEPTH, Description
from repro.core.search import (
    STRATEGIES,
    QueryResult,
    component_lengths,
    parse_predicate,
    rhs_distance,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import solver_profile
from repro.obs.recorder import Schedule, canonical_digest
from repro.obs.replay import ReplayDivergence
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.seq.finite import FiniteSeq
from repro.traces.trace import Trace

#: A candidate generator: finite trace ``u`` ↦ events that may extend it.
CandidateFn = Callable[[Trace], Iterable[Event]]


class CandidateError(RuntimeError):
    """A user-supplied candidate generator raised; names the trace at
    which it failed so the misbehaving case is reproducible."""

    def __init__(self, trace: Trace, original: BaseException):
        super().__init__(
            f"candidate generator failed at trace {trace!r}: "
            f"{type(original).__name__}: {original}"
        )
        self.trace = trace
        self.original = original


def _message_sort_key(channel: Channel, m: object) -> tuple:
    """Deterministic ordering key for alphabet messages.

    Ordering by bare ``repr`` is a trap: objects that inherit
    ``object.__repr__`` render as ``<X object at 0x...>`` — a memory
    address — so the candidate order (and with it every digest and
    cache key downstream) would differ between processes.  Such
    messages are rejected outright; everything else sorts by
    ``(type name, repr)``, which is stable across runs and keeps the
    historical per-type ordering intact.
    """
    if type(m).__repr__ is object.__repr__:
        raise ValueError(
            f"channel {channel.name!r} alphabet member {m!r} has no "
            "deterministic repr (it inherits object.__repr__, which "
            "renders a memory address); give the message type a "
            "stable __repr__ or supply a custom candidate generator")
    return (type(m).__name__, repr(m))


def alphabet_candidates(channels: Iterable[Channel]) -> CandidateFn:
    """The default candidate generator: all events over finite alphabets.

    Raises ``ValueError`` at construction if some channel has no finite
    alphabet — then a custom generator is required — or if some
    alphabet member has no deterministic ``repr`` (candidate order
    must be reproducible across processes; see
    :func:`_message_sort_key`).
    """
    events: list[Event] = []
    for c in sorted(channels):
        if c.alphabet is None:
            raise ValueError(
                f"channel {c.name!r} has no finite alphabet; supply a "
                "custom candidate generator"
            )
        events.extend(
            Event(c, m) for m in sorted(
                c.alphabet, key=lambda m, _c=c: _message_sort_key(_c, m)))

    def candidates(u: Trace) -> Iterable[Event]:
        del u
        return events

    # content identity for the persistent result cache: the generator
    # is fully determined by its event alphabet
    candidates.cache_key = {
        "kind": "alphabet",
        "events": [[e.channel.name, repr(e.message)] for e in events],
    }
    # the published constant alphabet is what makes the generator
    # *compilable*: the solver's compiled hot path runs over exactly
    # these events (per-node generators have no such attribute and
    # keep the solver on the reference path)
    candidates.constant_events = tuple(events)
    return candidates


@dataclass
class SolverResult:
    """Outcome of a bounded tree exploration.

    Attributes:
        finite_solutions: nodes satisfying the limit condition — exact
            smooth solutions (their smoothness is witnessed by the path).
        frontier: traces at the depth bound that still have admissible
            extensions; each is a prefix of zero or more infinite (or
            deeper finite) smooth solutions.
        dead_ends: nodes with no admissible extension and a failing
            limit condition — communication histories after which the
            description is stuck but not quiescent.
        unvisited: nodes parked by a truncation guard before they were
            ever examined — their limit condition was never checked and
            they may or may not have admissible extensions, so they are
            deliberately *not* on ``frontier`` (which promises
            admissible extensions).  They are exactly the seeds a
            resumed exploration continues from; see :meth:`checkpoint`.
        nodes_explored: total tree nodes visited (cumulative across a
            checkpoint/resume chain).
        depth: the exploration bound used.
        truncated: the exploration hit a resource guard (node budget or
            wall-clock budget) before covering the tree to ``depth``;
            the result is a sound but partial under-approximation, and
            unexamined nodes are parked on ``unvisited``.
        truncation_reason: which guard fired, for diagnostics.
        limit_depth: the limit-check depth the exploration used
            (carried for checkpointing; not part of the digest).
        description_name: the explored description's name (carried for
            checkpointing; not part of the digest).
        metrics: per-run metrics summary (nodes, branching, prunes, …)
            when the solver ran with tracing enabled; empty otherwise.
    """

    finite_solutions: list[Trace] = field(default_factory=list)
    frontier: list[Trace] = field(default_factory=list)
    dead_ends: list[Trace] = field(default_factory=list)
    nodes_explored: int = 0
    depth: int = 0
    truncated: bool = False
    truncation_reason: str = ""
    metrics: dict = field(default_factory=dict)
    unvisited: list[Trace] = field(default_factory=list)
    limit_depth: int = 0
    description_name: str = ""
    #: per-site cost attribution (:func:`repro.obs.profile
    #: .solver_profile`'s view of ``metrics``, plus the per-level
    #: series) when the solver ran with tracing enabled; empty
    #: otherwise.  Counters are deterministic, the ns columns are
    #: wall-clock — neither enters the digest or the cache payload.
    profile: dict = field(default_factory=dict)
    #: walk-private resume state: ``{"graph": "states"}`` when the
    #: walk expanded the projection-state graph (see
    #: :meth:`SmoothSolutionSolver.query`), else empty.  Carried into
    #: :meth:`checkpoint` as the checkpoint ``meta`` — outside both
    #: the result digest and the cache payload, so no pinned hash
    #: moves with it.
    strategy_meta: dict = field(default_factory=dict)
    #: the digest of the cache entry written from, or rebuilt into,
    #: this result (a rebuild checks the stored digest equal to
    #: :meth:`digest`); ``None`` when no cache entry was written or
    #: read.  A snapshot of the contents at that moment, not a cache:
    #: :meth:`digest` always hashes the current ones, and
    #: ``dataclasses.replace`` does not carry it over.
    cache_digest: Optional[str] = field(default=None, init=False,
                                        compare=False, repr=False)

    def digest(self) -> str:
        """Stable content hash of the exploration's outcome.

        Covers the solution/frontier/dead-end/unvisited sets
        (order-normalized) and the exploration shape (nodes, depth,
        truncation) — not metrics or wall-clock.  Two explorations
        with equal digests found the same portion of the §3.3 tree, so
        "re-running the solver reproduces the result" is a one-line
        assertion.  Truncation-parked nodes hash under their own
        ``unvisited`` key, *not* under ``frontier``: the frontier
        invariant (admissible extensions exist) was never established
        for them, and resume correctness depends on the distinction.

        The hash is :func:`~repro.obs.recorder.stable_digest` of
        ``{bucket: sorted trace keys, nodes_explored, depth,
        truncated}`` with :func:`_trace_key`'s keys, but the key lists
        are never built: each distinct event's ``(channel name,
        repr(message))`` pair is taken once, a trace becomes the tuple
        of its events' *ranks* among the sorted distinct pairs (equal
        pairs share a rank, so rank tuples sort exactly as the key
        lists do, pair by pair and a prefix first), and the canonical
        JSON is joined from one fragment per pair.  Events are told
        apart by identity, not equality: equal events may still
        ``repr`` differently (``1`` and ``True``).
        """
        traces = {bucket: [_events_of(t) for t in getattr(self, bucket)]
                  for bucket in _BUCKETS}
        events = list(chain.from_iterable(
            chain.from_iterable(traces.values())))
        distinct = dict(zip(map(id, events), events))
        pair_of = {i: (e.channel.name, repr(e.message))
                   for i, e in distinct.items()}
        pairs = sorted(set(pair_of.values()))
        rank = {pair: r for r, pair in enumerate(pairs)}
        # rank every event in one pass, then cut the ranks per trace
        ranks = list(map({i: rank[pair] for i, pair in pair_of.items()}
                         .__getitem__, map(id, events)))
        fragment = [json.dumps(pair, separators=(",", ":"))
                    for pair in pairs].__getitem__
        fields = {"nodes_explored": json.dumps(self.nodes_explored),
                  "depth": json.dumps(self.depth),
                  "truncated": json.dumps(self.truncated)}
        at = 0
        for bucket, items in traces.items():
            cuts = list(accumulate(map(len, items), initial=at))
            keys = sorted(tuple(ranks[a:b])
                          for a, b in zip(cuts, cuts[1:]))
            fields[bucket] = "[" + ",".join([
                "[" + ",".join(map(fragment, key)) + "]"
                for key in keys]) + "]"
            at = cuts[-1]
        return canonical_digest("{" + ",".join(
            f"{json.dumps(name)}:{text}"
            for name, text in sorted(fields.items())) + "}")

    def checkpoint(self) -> "SolverCheckpoint":
        """Serialize this (typically truncated) result as a resumable
        pure-JSON checkpoint.

        The checkpoint carries every classified set plus the unvisited
        seeds as canonical trace keys, and the exploration shape
        (depth, limit depth, node count, description name).  Feed it
        to :meth:`SmoothSolutionSolver.explore` as ``resume_from=`` to
        continue the Kleene chain; a truncate-then-resume pair is
        digest-equal to the straight run.
        """
        from repro.cache.checkpoint import SolverCheckpoint

        return SolverCheckpoint(
            description=self.description_name,
            depth=self.depth,
            limit_depth=self.limit_depth,
            nodes_explored=self.nodes_explored,
            truncation_reason=self.truncation_reason,
            finite_solutions=[_trace_key(t)
                              for t in self.finite_solutions],
            frontier=[_trace_key(t) for t in self.frontier],
            dead_ends=[_trace_key(t) for t in self.dead_ends],
            unvisited=[_trace_key(t) for t in self.unvisited],
            meta=dict(self.strategy_meta),
        )

    def to_payload(self) -> dict:
        """JSON-ready form for the persistent result cache."""
        return {
            "finite_solutions": [_trace_key(t)
                                 for t in self.finite_solutions],
            "frontier": [_trace_key(t) for t in self.frontier],
            "dead_ends": [_trace_key(t) for t in self.dead_ends],
            "unvisited": [_trace_key(t) for t in self.unvisited],
            "nodes_explored": self.nodes_explored,
            "depth": self.depth,
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
            "limit_depth": self.limit_depth,
            "description_name": self.description_name,
            "digest": self.digest(),
        }


def _trace_key(t: Trace) -> list:
    """JSON-ready canonical form of a finite trace."""
    return [[e.channel.name, repr(e.message)] for e in t]


#: The result's trace buckets, as its digest names them.
_BUCKETS = ("finite_solutions", "frontier", "dead_ends", "unvisited")


def _events_of(t: Trace) -> tuple:
    """A known-finite trace's events as a tuple."""
    events = t.events
    return events.items if isinstance(events, FiniteSeq) else tuple(t)


class SmoothSolutionSolver:
    """Bounded breadth-first exploration of the §3.3 tree."""

    def __init__(self, description: Description,
                 candidates: CandidateFn,
                 limit_depth: int = DEFAULT_DEPTH,
                 tracer: Optional[Tracer] = None,
                 cache: Optional[object] = None,
                 compiled: Optional[bool] = None,
                 strategy: str = "bfs",
                 heuristic: str = "rhs-distance"):
        self.description = description
        self.candidates = candidates
        self.limit_depth = limit_depth
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: a :class:`repro.cache.CacheStore` (or None); when set,
        #: :meth:`explore` consults it before searching and stores
        #: completed results after
        self.cache = cache
        #: compiled hot path: ``None`` (default) auto-detects — use
        #: the compiled representation when the description and
        #: candidate generator compile (see :mod:`repro.core
        #: .compiled`), else the reference path.  ``False`` forces the
        #: reference path; ``True`` demands compilation and makes
        #: :meth:`explore` raise if it is unavailable.
        self.compiled = compiled
        #: exploration order: ``"bfs"`` (the reference order) or
        #: ``"best-first"`` (priority frontier ranked by
        #: :func:`~repro.core.search.rhs_distance`).  Strategies
        #: reorder the walk, never the admissibility or limit tests,
        #: so completed runs are digest-identical across strategies.
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; known: "
                f"{', '.join(STRATEGIES)}")
        self.strategy = strategy
        # ``heuristic`` names best-first's one rank; the parameter
        # stays for callers that still pass it
        if heuristic != "rhs-distance":
            raise ValueError(
                f"unknown heuristic {heuristic!r}; best-first ranks "
                "by rhs-distance only")

    @classmethod
    def over_channels(cls, description: Description,
                      channels: Iterable[Channel],
                      limit_depth: int = DEFAULT_DEPTH,
                      tracer: Optional[Tracer] = None,
                      cache: Optional[object] = None,
                      compiled: Optional[bool] = None,
                      strategy: str = "bfs",
                      heuristic: str = "rhs-distance"
                      ) -> "SmoothSolutionSolver":
        return cls(description, alphabet_candidates(channels),
                   limit_depth=limit_depth, tracer=tracer,
                   cache=cache, compiled=compiled, strategy=strategy,
                   heuristic=heuristic)

    # -- tree structure ------------------------------------------------------

    def children(self, u: Trace) -> Iterator[Trace]:
        """Admissible one-step extensions: ``v`` with ``f(v) ⊑ g(u)``."""
        f = self.description.lhs
        gu = self.description.rhs.apply(u)
        for event in self._candidate_events(u, gu):
            v = u.append(event)
            fv = f.apply(v)
            if self.description._leq(fv, gu, self.limit_depth):
                yield v

    def _candidate_events(self, u: Trace,
                          gu: object = None) -> list[Event]:
        """Run the candidate generator, wrapping its failures.

        Generators that publish ``accepts_gu = True`` receive the
        caller's already-computed ``g(u)`` as a second argument — the
        hot-path discipline ("``g`` exactly once per node") extended
        through the generator protocol, so an rhs-guided generator
        does not silently double every ``rhs.apply``.
        """
        try:
            if gu is not None and getattr(self.candidates,
                                          "accepts_gu", False):
                return list(self.candidates(u, gu))
            return list(self.candidates(u))
        except CandidateError:
            raise
        except Exception as exc:
            raise CandidateError(u, exc) from exc

    def is_node(self, u: Trace) -> bool:
        """Is the finite trace ``u`` a node of the tree?

        Equivalent to: the path ``⊥ … u`` exists, i.e. every pre-pair
        along ``u`` satisfies the smoothness condition.
        """
        return self.description.smoothness_holds(
            u, depth=max(u.length(), 1)
        )

    # -- exploration ----------------------------------------------------------

    def explore(self, max_depth: int,
                max_nodes: int = 200_000,
                budget_seconds: Optional[float] = None,
                resume_from: Optional[object] = None,
                _watch: Optional[Callable[[Trace], str]] = None
                ) -> SolverResult:
        """Exploration to ``max_depth`` in the configured strategy's
        order (breadth-first by default).

        Resource guards keep runaway alphabets and hostile candidate
        generators from running unbounded: at most ``max_nodes`` nodes
        are expanded *per call* (so a resumed run gets a fresh
        budget), and an optional ``budget_seconds`` wall-clock budget
        caps the search in time.  When a guard fires the partial
        result is returned with ``truncated=True`` — never-examined
        nodes are parked on ``result.unvisited`` (not the frontier,
        whose invariant they were never checked against) — instead of
        raising; a degraded answer beats no answer for diagnosis.

        ``resume_from`` continues a truncated exploration: pass a
        :class:`~repro.cache.checkpoint.SolverCheckpoint` (or its dict
        / a path to its JSON) produced by
        :meth:`SolverResult.checkpoint`.  Every carried trace is
        replayed as a witness path through the live description (so
        checkpoints stay pure JSON and corrupted ones are caught, and
        the carried ``f(u)`` values are recomputed), then the search
        is re-seeded from the unvisited nodes at their recorded depths.
        Invariant: truncate-then-resume is digest-equal to the
        straight run.

        A candidate generator that raises aborts the search with a
        :class:`CandidateError` naming the trace it choked on.

        With a ``cache`` store attached (and no ``resume_from``), the
        exploration first consults the persistent result cache and
        returns the rebuilt result on a hit; completed (and
        deterministically node-budget-truncated) results are stored
        back.  Wall-clock-truncated results are never cached — where
        the clock fires is not a function of the inputs — and neither
        is a walk whose candidate generator publishes no
        ``cache_key`` (the alphabet and rhs-guided generators do):
        nothing else would tell two such generators apart.  A watched
        walk (a ``_watch`` hook: a :meth:`query`, a safety or an
        induction check) neither reads nor writes the cache: a hit
        would skip every node the watch must see, an early exit is
        not a function of the key, and a state-graph walk holds one
        trace per projection state, not the tree's nodes.

        With a tracer attached the exploration additionally emits
        ``solver.*`` spans/events (per-level spans, prune / accept /
        dead-end / truncate events, ``cache.hit``/``cache.miss``),
        counts every hot site and walk event in one metrics registry,
        and fills ``result.metrics`` with its summary and
        ``result.profile`` with :func:`~repro.obs.profile
        .solver_profile`'s view of it.

        Hot-path discipline: per node ``u`` the right side ``g(u)`` is
        evaluated once (shared between the limit condition and every
        candidate's admissibility test), the left side ``f(u)`` is
        carried over from the parent's admissibility scan (each node
        was once a candidate), and the limit condition is checked
        exactly once.  The frontier-extendability probe at the depth
        bound short-circuits at the first admissible candidate instead
        of re-running the full scan.  No evaluation is shared between
        tree nodes, even between nodes with equal per-channel
        projections; only :meth:`query`'s walk over projection states
        expands each state once.

        When the description and candidate generator lie in the
        compilable finite fragment (see :mod:`repro.core.compiled`),
        the same walk runs over channel slots, per-channel message
        tuples and event tuples, with ``g`` re-evaluated
        incrementally from the parent's value — an order of magnitude
        faster, and bit-identical at this API boundary: results, digests,
        checkpoints and cache payloads match the reference path
        exactly (pinned by ``tests/core/test_compiled_solver.py``).
        The ``compiled`` constructor flag selects the engine
        explicitly.
        """
        deadline = (None if budget_seconds is None
                    else time.monotonic() + budget_seconds)
        tracer = self.tracer
        tracing = tracer.enabled
        metrics = MetricsRegistry() if tracing else None
        cache_key = None
        if self.cache is not None and resume_from is None \
                and _watch is None \
                and getattr(self.candidates, "cache_key", None) \
                is not None:
            from repro.cache.keys import solver_cache_key

            cache_key = solver_cache_key(
                self.description, self.candidates, max_depth,
                self.limit_depth, max_nodes, budget_seconds)
            if self.strategy != "bfs":
                # completed runs are strategy-independent, but a
                # node-budget truncation parks a strategy-specific
                # set — the key must tell the entries apart.  Plain
                # BFS keeps the historical key, and best-first still
                # names its rank, so warm caches stay warm.
                cache_key = dict(cache_key,
                                 strategy=self.strategy,
                                 heuristic="rhs-distance")
            hit = _timed(metrics, "cache.get",
                         self.cache.get, "solver", cache_key)
            if hit is not None:
                rebuilt = self._result_from_payload(hit)
                if rebuilt is not None:
                    if tracing:
                        tracer.event(
                            "cache.hit", category="cache",
                            track="solver",
                            key=self.cache.key_digest(cache_key)[:16],
                            nodes_skipped=rebuilt.nodes_explored)
                        rebuilt.metrics = metrics.summary()
                        rebuilt.profile = solver_profile(rebuilt.metrics)
                    return rebuilt
            if tracing:
                tracer.event(
                    "cache.miss", category="cache", track="solver",
                    key=self.cache.key_digest(cache_key)[:16])
        result = SolverResult(
            depth=max_depth, limit_depth=self.limit_depth,
            description_name=getattr(self.description, "name", ""))
        run = _Run(max_depth, max_nodes, budget_seconds, deadline,
                   resume_from, _watch, metrics,
                   [] if tracing else None, cache_key)
        if self.compiled is not False:
            from repro.core.compiled import compile_description

            compiled = _timed(metrics, "compile.build",
                              compile_description, self.description,
                              self.candidates)
            if compiled is not None:
                return self._explore_compiled(compiled, result, run)
            if self.compiled is True:
                raise ValueError(
                    "compiled=True, but this description/candidate "
                    "pair is outside the compilable fragment (see "
                    "repro.core.compiled for the preconditions)")
        return self._walk(_ReferenceEngine(self), result, run)

    def _explore_compiled(self, compiled, result: SolverResult,
                          run: "_Run") -> SolverResult:
        """The compiled-engine entry: the walk over flat-tuple nodes (see
        :class:`_CompiledEngine`), restarted on the reference engine
        if a compiled closure leaves the finite fragment mid-run."""
        from repro.core.compiled import CompiledEvalError

        try:
            return self._walk(_CompiledEngine(compiled), result, run)
        except CompiledEvalError as exc:
            # possible only for exotic ops that slipped past the
            # compile-time probe: restart cleanly on the
            # always-correct reference path
            if self.tracer.enabled:
                self.tracer.event(
                    "solver.compiled_fallback", category="solver",
                    track="solver", reason=str(exc))
            fallback = SmoothSolutionSolver(
                self.description, self.candidates,
                limit_depth=self.limit_depth, tracer=self.tracer,
                cache=self.cache, compiled=False,
                strategy=self.strategy)
            return fallback.explore(
                run.max_depth, max_nodes=run.max_nodes,
                budget_seconds=run.budget_seconds,
                resume_from=run.resume_from, _watch=run.watch)

    def _walk(self, engine, result: SolverResult,
              run: "_Run") -> SolverResult:
        """Seed ``engine``, run the walk over it inside the
        ``solver.explore`` span, and finish the run.

        Cost attribution and the projection-state graph wrap the
        engine here (:class:`_ProfiledEngine`,
        :class:`_StateGraphEngine`), so the walk carries no code for
        them.  A watch publishing ``state_graph = True`` (see
        :meth:`query`) asks for the state graph; the result then holds
        one trace per projection state and says so in
        ``strategy_meta["graph"]``, which its checkpoint carries.
        """
        tracer = self.tracer
        states = _state_graph(run)
        if run.metrics is not None:
            engine = _ProfiledEngine(engine, run.metrics, tracer)
        if states:
            engine = _StateGraphEngine(engine, run.metrics)
            result.strategy_meta["graph"] = "states"
        checkpoint, seeds = self._seeds(engine, result, run)
        with tracer.span("solver.explore", category="solver",
                         track="solver", depth=run.max_depth,
                         max_nodes=run.max_nodes,
                         resumed=run.resume_from is not None,
                         limit_depth=self.limit_depth) as root:
            session = self._explore_ordered(engine, result, seeds, run)
            result.nodes_explored = session + (
                0 if checkpoint is None else checkpoint.nodes_explored)
            root.annotate(nodes=result.nodes_explored,
                          solutions=len(result.finite_solutions),
                          truncated=result.truncated)
        return self._finish_run(result, session, run)

    def _seeds(self, engine, result: SolverResult,
               run: "_Run") -> tuple:
        """The walk's starting nodes as ``(depth, node, f(node))``,
        shallowest first, with the checkpoint they came from (or
        ``None``).

        A fresh run starts at the root ``⊥``.  A resumed one replays
        every carried trace as a witness path (each step must be an
        admissible extension), so a checkpoint that does not describe
        this description's §3.3 tree raises
        :class:`~repro.obs.replay.ReplayDivergence` instead of
        silently seeding garbage.  The classified traces go straight
        into ``result``; the unvisited ones become the seeds, at their
        depth (= trace length), with their ``f`` values recomputed —
        the price of keeping checkpoints pure JSON.
        """
        if run.resume_from is None:
            node, fu = _timed(run.metrics, "lhs.apply.root",
                              engine.seed, Trace.empty())
            return None, [(0, node, fu)]
        checkpoint = self._coerce_checkpoint(run.resume_from)
        self._validate_checkpoint(checkpoint, run.max_depth,
                                  _state_graph(run))
        for bucket, keys in (
                (result.finite_solutions, checkpoint.finite_solutions),
                (result.frontier, checkpoint.frontier),
                (result.dead_ends, checkpoint.dead_ends)):
            bucket.extend(self._walk_path(key) for key in keys)
        seeds = []
        for key in checkpoint.unvisited:
            u = self._walk_path(key)
            seeds.append((u.length(), *engine.seed(u)))
        seeds.sort(key=lambda seed: seed[0])
        return checkpoint, seeds

    def _finish_run(self, result: SolverResult, session: int,
                    run: "_Run") -> SolverResult:
        """The exploration epilogue: cache write-back (when the result
        is a pure function of the key), then the run's metrics and
        profile."""
        tracer = self.tracer
        if run.cache_key is not None and self._cacheable(result):
            payload = result.to_payload()
            result.cache_digest = payload["digest"]
            _timed(run.metrics, "cache.put", self.cache.put, "solver",
                   run.cache_key, payload)
            if tracer.enabled:
                tracer.event(
                    "cache.write", category="cache", track="solver",
                    key=self.cache.key_digest(run.cache_key)[:16])
        if tracer.enabled:
            metrics = run.metrics
            metrics.counter("solver.nodes_expanded").inc(session)
            metrics.counter("solver.finite_solutions").inc(
                len(result.finite_solutions))
            metrics.counter("solver.dead_ends").inc(
                len(result.dead_ends))
            metrics.gauge("solver.frontier_size").set(
                len(result.frontier))
            result.metrics = metrics.summary()
            result.profile = solver_profile(result.metrics, run.levels)
        return result

    @staticmethod
    def _cacheable(result: SolverResult) -> bool:
        """Is this unwatched result a pure function of the cache key?
        Complete and node-budget-truncated explorations are (the
        traversal is deterministic); wall-clock truncations are not —
        where the clock fires depends on the machine, not the
        inputs."""
        return not (result.truncated
                    and "wall-clock" in result.truncation_reason)

    def _park(self, result: SolverResult, reason: str,
              traces: Iterable[Trace]) -> None:
        """Mark ``result`` partial and park never-examined nodes.

        Parked nodes go on ``result.unvisited``, never the frontier:
        the frontier's documented invariant is "still has admissible
        extensions", which was never checked for these nodes (nor was
        their limit condition).  Keeping the buckets apart is what
        makes resume sound — unvisited nodes are re-seeded and fully
        classified, frontier nodes are carried over as-is.
        """
        result.truncated = True
        result.truncation_reason = reason
        result.unvisited.extend(traces)
        if self.tracer.enabled:
            self.tracer.event(
                "solver.truncate", category="solver", track="solver",
                reason=reason, parked=len(result.unvisited))

    # -- strategy layer -------------------------------------------------------

    def _projection_factored(self) -> bool:
        """Do both sides provably factor through the per-channel
        projections (the paper's ``b(t)``)?  The compilable expression
        fragment guarantees it; subclassed descriptions and opaque
        lambdas do not.  Then ``g``, the limit verdict and (with a
        constant candidate alphabet) the admissible extensions of a
        node are functions of its projection state."""
        from repro.core.compiled import _leaf_channels

        return (type(self.description) is Description
                and _leaf_channels(self.description.lhs) is not None
                and _leaf_channels(self.description.rhs) is not None)

    def _explore_ordered(self, engine, result: SolverResult,
                         seeds: list, run: "_Run") -> int:
        """The §3.3 walk, over either engine; returns the number of
        nodes it explored.

        The tree is fixed by admissibility, so the strategy only
        decides which frontier node is popped next.  For BFS the
        frontier is a FIFO and ``g(u)`` is evaluated when ``u`` is
        popped.  Best-first needs ``g`` to place a node at its
        :func:`~repro.core.search.rhs_distance` rank, so the frontier
        is a heap of ``(rank, seq, …)`` entries evaluated at push, the
        monotone ``seq`` breaking ties FIFO; every pushed node is
        popped on a completed run, so the one-``g``-per-node
        discipline holds wherever the budget does not fire first.

        Resumed seeds wait in ``pending`` until the FIFO reaches the
        level before theirs, so they queue ahead of that depth's fresh
        children — the straight run's order.  A budget that fires
        parks every node not yet popped, at any depth, on
        ``result.unvisited``.  With a tracer, a FIFO walk also
        narrates its BFS levels (see :class:`_LevelLog`).

        ``watch`` is the question hook: called with each finite
        solution as it is classified (with every node if it publishes
        ``every_node = True``); a truthy return value early-exits the
        search with that string as the truncation reason, parking the
        remaining frontier as ``unvisited`` (the result stays a sound,
        resumable under-approximation).
        """
        tracer = self.tracer
        tracing = tracer.enabled
        max_depth, max_nodes = run.max_depth, run.max_nodes
        deadline, watch = run.deadline, run.watch
        every_node = getattr(watch, "every_node", False)
        fifo = self.strategy == "bfs"
        g, limit_fn, edges = engine.g, engine.limit, engine.edges
        probe, trace_of, lens = engine.probe, engine.trace, engine.lens
        frontier = deque() if fifo else []
        pending: dict = {}
        seq = 0

        def push(depth, node, fu):
            nonlocal seq
            gu = g(node)
            heapq.heappush(frontier, (rhs_distance(lens(fu), lens(gu)),
                                      seq, depth, node, fu, gu))
            seq += 1

        def park(reason: str) -> None:
            if fifo:
                nodes = [node for node, _fu in frontier]
                nodes += [node for d in sorted(pending)
                          for node, _fu in pending[d]]
            else:
                nodes = [heapq.heappop(frontier)[3]
                         for _ in range(len(frontier))]
            self._park(result, reason, map(trace_of, nodes))

        for depth, node, fu in seeds:
            if fifo:
                pending.setdefault(depth, []).append((node, fu))
            else:
                push(depth, node, fu)
        levels = (_LevelLog(tracer, run.metrics, run.levels, result)
                  if fifo and tracing else None)
        session = depth = left = 0
        while True:
            if fifo:
                if not left:
                    # the level is done: the next one is everything
                    # queued behind it, else the shallowest pending
                    if levels is not None:
                        levels.end(session, len(frontier))
                    if frontier:
                        depth += 1
                    elif pending:
                        depth = min(pending)
                        frontier.extend(pending.pop(depth))
                    else:
                        break
                    left = len(frontier)
                    frontier.extend(pending.pop(depth + 1, ()))
                    if levels is not None:
                        levels.start(depth, left, session)
            elif frontier:
                depth = frontier[0][2]
            else:
                break
            if session >= max_nodes or (
                    deadline is not None and time.monotonic() > deadline):
                park(_budget_reason(session, run, depth))
                break
            session += 1
            if fifo:
                left -= 1
                node, fu = frontier.popleft()
                gu = g(node)
            else:
                _rank, _seq, depth, node, fu, gu = heapq.heappop(frontier)
            limit = limit_fn(node, fu, gu)
            kids = edges(node, fu, gu) if depth < max_depth else None
            trace = trace_of(node) if limit or every_node else None
            if limit:
                result.finite_solutions.append(trace)
                if tracing:
                    tracer.event(
                        "solver.accept", category="solver",
                        track="solver", node=repr(trace), depth=depth)
            if kids is None:
                # at the bound: frontier if extendable
                if probe(node, fu, gu)[0]:
                    result.frontier.append(trace or trace_of(node))
                elif not limit:
                    result.dead_ends.append(trace or trace_of(node))
            elif kids:
                if fifo:
                    frontier.extend(kids)
                else:
                    for child, fv in kids:
                        push(depth + 1, child, fv)
            elif not limit:
                trace = trace or trace_of(node)
                result.dead_ends.append(trace)
                if tracing:
                    tracer.event(
                        "solver.dead_end", category="solver",
                        track="solver", node=repr(trace), depth=depth)
            if (limit or every_node) and watch is not None:
                stop = watch(trace)
                if stop:
                    park(stop)
                    break
        if tracing:
            if levels is not None:
                levels.end(session, len(frontier) - left)
            label = f"solver.strategy.{self.strategy}"
            # every pushed node was popped or parked
            run.metrics.counter(label + ".pushed").inc(
                session + len(result.unvisited))
            run.metrics.counter(label + ".popped").inc(session)
        return session

    # -- checkpoint / resume --------------------------------------------------

    @staticmethod
    def _coerce_checkpoint(resume_from: object):
        """Accept a SolverCheckpoint, its dict form, or a JSON path."""
        from repro.cache.checkpoint import SolverCheckpoint

        if isinstance(resume_from, SolverCheckpoint):
            return resume_from
        if isinstance(resume_from, dict):
            return SolverCheckpoint.from_dict(resume_from)
        if isinstance(resume_from, (str, bytes)) or hasattr(
                resume_from, "__fspath__"):
            return SolverCheckpoint.load(str(resume_from))
        raise TypeError(
            "resume_from must be a SolverCheckpoint, its dict form, "
            f"or a path to its JSON (got {type(resume_from).__name__})")

    def _validate_checkpoint(self, checkpoint, max_depth: int,
                             states: bool = False) -> None:
        """A checkpoint only resumes the exploration it snapshot.

        ``states`` says the resuming walk is a projection-state-graph
        query.  Such a walk may resume any checkpoint a BFS or
        best-first walk parked: its ``seen`` set starts empty and
        every state not yet expanded is reachable from a parked node.
        A tree walk may not resume a state-graph checkpoint, whose
        buckets hold one trace per state, not every tree node."""
        if checkpoint.depth != max_depth:
            raise ValueError(
                f"checkpoint was taken at depth {checkpoint.depth}, "
                f"cannot resume at depth {max_depth}")
        if checkpoint.limit_depth != self.limit_depth:
            raise ValueError(
                f"checkpoint used limit_depth "
                f"{checkpoint.limit_depth}, this solver uses "
                f"{self.limit_depth}")
        mine = getattr(self.description, "name", "")
        if checkpoint.description and mine and \
                checkpoint.description != mine:
            raise ValueError(
                f"checkpoint is of description "
                f"{checkpoint.description!r}, this solver explores "
                f"{mine!r}")
        if checkpoint.meta.get("strategy") == "iterative-deepening":
            raise ValueError(
                "checkpoint was parked by an iterative-deepening "
                "exploration, which this version no longer runs; its "
                "parked nodes include classified ones, so it cannot "
                "be resumed")
        if checkpoint.meta.get("graph") == "states" and not states:
            raise ValueError(
                "checkpoint was parked by a query over the "
                "projection-state graph (one trace per state, not the "
                "whole §3.3 tree); only such a query may resume it")

    def _result_from_payload(self, payload: dict
                             ) -> Optional[SolverResult]:
        """Rebuild a cached :class:`SolverResult`, or ``None`` when
        the payload cannot be resolved against the live candidate
        generator (then the caller treats the entry as a miss).

        Rebuilding matches each stored event key against the candidate
        events by ``(channel name, message repr)`` — no admissibility
        re-checks (that would re-run the work the cache is skipping) —
        and then verifies the rebuilt result's digest against the
        stored one, so a drifted generator or an ambiguous ``repr``
        degrades to a miss, never to a wrong answer; the verified
        digest rides on the result as ``cache_digest``.  A constant
        alphabet matches every step alike, so it is keyed once and
        each trace is built in one step.
        """
        rebuild = self._rebuild_trace
        events = getattr(self.candidates, "constant_events", None)
        if events is not None:
            # channel name -> message repr -> event
            by_key: dict = {}
            for event in events:
                # the first candidate wins, as in the per-step match
                by_key.setdefault(event.channel.name, {}).setdefault(
                    repr(event.message), event)

            def rebuild(key: list) -> Trace:
                if not key:
                    return Trace.empty()
                return Trace(FiniteSeq.from_tuple(
                    tuple(by_key[name][message] for name, message in key)))

        try:
            result = SolverResult(
                finite_solutions=[
                    rebuild(k) for k in payload["finite_solutions"]],
                frontier=[rebuild(k) for k in payload["frontier"]],
                dead_ends=[rebuild(k) for k in payload["dead_ends"]],
                unvisited=[rebuild(k)
                           for k in payload.get("unvisited", [])],
                nodes_explored=int(payload["nodes_explored"]),
                depth=int(payload["depth"]),
                truncated=bool(payload["truncated"]),
                truncation_reason=str(
                    payload.get("truncation_reason", "")),
                limit_depth=int(payload.get("limit_depth", 0)),
                description_name=str(
                    payload.get("description_name", "")),
            )
        except (KeyError, TypeError, ValueError, LookupError):
            return None
        digest = result.digest()
        if digest != payload.get("digest"):
            return None
        result.cache_digest = digest
        return result

    def _rebuild_trace(self, key: list) -> Trace:
        """A stored trace key back into a live :class:`Trace` by
        matching candidate events (no admissibility checks); raises
        ``LookupError`` when some step has no matching candidate."""
        u = Trace.empty()
        for channel_name, message_repr in key:
            matched = None
            for event in self._candidate_events(u):
                if event.channel.name == channel_name and \
                        repr(event.message) == message_repr:
                    matched = event
                    break
            if matched is None:
                raise LookupError(
                    f"no candidate event matches "
                    f"({channel_name}, {message_repr}) at {u!r}")
            u = u.append(matched)
        return u

    # -- witness paths (flight-recorder view of §3.3) -----------------------

    def witness_schedule(self, trace: Trace) -> Schedule:
        """Encode a finite trace as a witness path of the §3.3 tree.

        A node of the tree *is* its path from ``⊥`` — the decision
        sequence of the search, exactly as an operational run is its
        oracle decision sequence.  The returned
        :class:`~repro.obs.recorder.Schedule` stores that path in its
        ``path`` stream; :meth:`replay_witness` re-walks it, checking
        each extension's admissibility, so a solver result can ship
        machine-checkable evidence for every solution it claims.
        """
        schedule = Schedule()
        schedule.path = [[e.channel.name, repr(e.message)]
                         for e in trace]
        schedule.meta["kind"] = "solver-path"
        schedule.meta["description"] = getattr(
            self.description, "name", "")
        schedule.meta["limit_holds"] = bool(
            self.description.limit_holds(trace, self.limit_depth))
        return schedule

    def replay_witness(self, schedule: Schedule) -> Trace:
        """Re-walk a witness path, verifying every step is a tree edge.

        Each recorded event must be an admissible one-step extension
        (``f(v) ⊑ g(u)``) of the trace built so far; the first
        recorded event with no matching admissible extension raises
        :class:`~repro.obs.replay.ReplayDivergence` with the path
        index and the live candidate set.  Returns the reconstructed
        node (whose membership in the tree is thereby witnessed).
        """
        return self._walk_path(schedule.path)

    def _walk_path(self, path: list) -> Trace:
        """Re-walk a raw JSON path (``[[channel, message_repr], …]``),
        verifying every step is a tree edge — the engine behind both
        :meth:`replay_witness` and checkpoint resume."""
        u = Trace.empty()
        for index, (channel_name, message_repr) in enumerate(path):
            matched = None
            live = []
            for v in self.children(u):
                last = v.item(v.length() - 1)
                key = [last.channel.name, repr(last.message)]
                live.append(key)
                if key == [channel_name, message_repr]:
                    matched = v
                    break
            if matched is None:
                raise ReplayDivergence(
                    "path", index,
                    "recorded event is not an admissible extension",
                    recorded=[channel_name, message_repr],
                    actual=live)
            u = matched
        return u

    # -- queries --------------------------------------------------------------

    def query(self, predicate, max_depth: int, mode: str = "exists",
              max_nodes: int = 200_000,
              budget_seconds: Optional[float] = None,
              resume_from: Optional[object] = None) -> QueryResult:
        """Ask a question about the finite smooth solutions instead of
        enumerating them.

        ``mode="exists"``: does some finite smooth solution within
        ``max_depth`` satisfy ``predicate``?  ``mode="all"``: do they
        all?  The exploration short-circuits the moment the question
        is settled — at the first satisfying solution (``exists``) or
        the first violating one (``all``) — so with the
        solution-seeking best-first strategy the answer typically
        costs a fraction of the full enumeration's node budget.  On
        complete runs the answer provably agrees with
        enumerate-then-filter: the watch only reorders *when* the
        search stops, never which nodes are solutions (pinned by
        ``tests/core/test_query.py``).

        ``predicate`` is a ``Trace -> bool`` callable or the textual
        form :func:`repro.core.search.parse_predicate` understands.
        Returns a :class:`~repro.core.search.QueryResult`; ``holds``
        is ``None`` when a resource guard fired before the question
        was settled.  A positive ``exists`` / negative ``all`` answer
        ships the settling trace plus its replayable
        :meth:`witness_schedule` certificate.

        The search walks the projection-state graph instead of the
        tree (see :class:`_StateGraphEngine`), expanding each
        per-channel projection state once, when the answer cannot
        tell the two apart: the predicate is textual (every clause
        of the grammar reads per-channel projections only; a
        callable may read event order, so it keeps the tree walk),
        the description is :meth:`_projection_factored` and the
        candidate generator publishes ``constant_events``.  Wherever
        the tree walk settles the question, the state graph settles
        it with the same answer and witness; ``nodes_explored`` then
        counts states and ``meta["graph"]`` is ``"states"`` (else
        ``"tree"``).  A query neither reads nor writes the result
        cache: walking the state graph is faster than reading a stored
        tree result back (EXPERIMENTS.md, S33).  Only a state-graph
        query resumes its checkpoint.
        """
        states = (isinstance(predicate, str)
                  and self._projection_factored()
                  and getattr(self.candidates, "constant_events", None)
                  is not None)
        if isinstance(predicate, str):
            predicate = parse_predicate(predicate)
        if mode not in ("exists", "all"):
            raise ValueError(
                f"unknown query mode {mode!r}; known: exists, all")
        source = (getattr(predicate, "source", None)
                  or getattr(predicate, "__name__", None)
                  or repr(predicate))
        found: list[Trace] = []

        if mode == "exists":
            def watch(trace: Trace) -> str:
                if predicate(trace):
                    found.append(trace)
                    return "query: witness found (exists)"
                return ""
        else:
            def watch(trace: Trace) -> str:
                if not predicate(trace):
                    found.append(trace)
                    return "query: counterexample found (all)"
                return ""
        watch.state_graph = states

        result = self.explore(max_depth, max_nodes=max_nodes,
                              budget_seconds=budget_seconds,
                              resume_from=resume_from, _watch=watch)
        witness = found[0] if found else None
        if witness is None:
            # a resumed checkpoint's carried solutions never met the
            # watch: settle from the enumerated solutions
            for trace in result.finite_solutions:
                if predicate(trace) == (mode == "exists"):
                    witness = trace
                    break
        if witness is not None:
            holds: Optional[bool] = (mode == "exists")
        elif result.truncated:
            holds = None
        else:
            holds = (mode == "all")
        certificate = (self.witness_schedule(witness)
                       if witness is not None else None)
        return QueryResult(
            mode=mode, predicate=source, holds=holds,
            witness=witness, certificate=certificate,
            nodes_explored=result.nodes_explored,
            strategy=self.strategy, result=result,
            meta={"short_circuited":
                  result.truncation_reason.startswith("query"),
                  "graph": result.strategy_meta.get("graph", "tree")},
        )


class _Run(NamedTuple):
    """One :meth:`SmoothSolutionSolver.explore` call's bounds and
    instruments, as the walk sees them."""

    max_depth: int
    max_nodes: int
    budget_seconds: Optional[float]
    deadline: Optional[float]
    resume_from: Optional[object]
    watch: Optional[Callable[[Trace], str]]
    metrics: Optional[MetricsRegistry]
    #: the traced FIFO walk's per-level series (see :class:`_LevelLog`)
    levels: Optional[list]
    cache_key: Optional[dict]


def _state_graph(run: _Run) -> bool:
    """Does this run walk the projection-state graph (see
    :class:`_StateGraphEngine`)?"""
    return getattr(run.watch, "state_graph", False)


def _budget_reason(session: int, run: _Run, depth: int) -> str:
    """Which resource guard stopped the walk before a node at
    ``depth``."""
    if session >= run.max_nodes:
        return f"node budget ({run.max_nodes}) exhausted at depth {depth}"
    return (f"wall-clock budget ({run.budget_seconds}s) exhausted "
            f"at depth {depth}")


def _timed(metrics, site: str, fn: Callable, *args):
    """``fn(*args)``, its wall time attributed to ``site`` when a
    metrics registry is attached."""
    if metrics is None:
        return fn(*args)
    t0 = time.perf_counter_ns()
    out = fn(*args)
    _charge(metrics, site, time.perf_counter_ns() - t0)
    return out


def _charge(metrics: MetricsRegistry, site: str, ns: int,
            calls: int = 1) -> None:
    """Count ``calls`` evaluations at ``site`` taking ``ns`` in all."""
    metrics.counter(f"solver.site.{site}.calls").inc(calls)
    metrics.counter(f"solver.site.{site}.ns").inc(ns)


class _LevelLog:
    """The BFS levels of a traced FIFO walk: one ``solver.level`` span
    and one entry of the run's per-level series per level.  An entry
    holds the level's depth, width and wall time, and what happened
    in it (candidates proposed and pruned, nodes expanded, solutions
    accepted, dead ends) as the difference between the run's counts
    at the level's start and at its end."""

    __slots__ = ("tracer", "metrics", "levels", "result", "span",
                 "depth", "width", "base", "t0")

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry,
                 levels: list, result: SolverResult) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.levels = levels
        self.result = result
        self.span = None

    def _counts(self, session: int) -> dict:
        metrics, result = self.metrics, self.result
        return {"proposed": metrics.count("solver.candidates_proposed"),
                "pruned": metrics.count("solver.candidates_pruned"),
                "expanded": session,
                "accepted": len(result.finite_solutions),
                "dead_ends": len(result.dead_ends)}

    def start(self, depth: int, width: int, session: int) -> None:
        self.span = self.tracer.span(
            "solver.level", category="solver", track="solver",
            depth=depth, width=width)
        self.span.__enter__()
        self.depth, self.width = depth, width
        self.base = self._counts(session)
        self.t0 = time.perf_counter_ns()

    def end(self, session: int, next_width: int) -> None:
        """Close the open level, if any; ``next_width`` nodes are
        queued for the next one."""
        if self.span is None:
            return
        entry = {"depth": self.depth, "width": self.width,
                 "ns": time.perf_counter_ns() - self.t0}
        entry.update((name, n - self.base[name])
                     for name, n in self._counts(session).items())
        self.levels.append(entry)
        self.metrics.gauge("solver.level_width").set(next_width)
        self.span.__exit__(None, None, None)
        self.span = None


class _ReferenceEngine:
    """The walk's view of the reference representation.

    Nodes are live :class:`Trace` objects; values are whatever the
    description's sides produce.  Both engines answer the same calls:
    ``seed`` (a trace as a node, with its ``f``), ``g``, ``limit``,
    ``edges`` (the admissible children as ``(child, f(child))``
    pairs, built once; pruned candidates go to ``pruned`` when a list
    is passed), ``probe`` (the short-circuit frontier test, with the
    number of candidates it tried), ``trace``, ``env_key`` (the
    state graph's key) and the ranking feature ``lens``.  Cost
    attribution and the state graph wrap an engine
    (:class:`_ProfiledEngine`, :class:`_StateGraphEngine`).
    """

    __slots__ = ("solver", "description")

    def __init__(self, solver: "SmoothSolutionSolver") -> None:
        self.solver = solver
        self.description = solver.description

    def seed(self, trace: Trace) -> tuple:
        return trace, self.description.lhs.apply(trace)

    def g(self, node: Trace):
        return self.description.rhs.apply(node)

    def limit(self, node: Trace, fu, gu) -> bool:
        return self.description.limit_report(
            node, self.solver.limit_depth,
            lhs_value=fu, rhs_value=gu).holds

    def edges(self, node: Trace, fu, gu,
              pruned: Optional[list] = None) -> list:
        description = self.description
        f = description.lhs
        depth = self.solver.limit_depth
        kids = []
        for event in self.solver._candidate_events(node, gu):
            v = node.append(event)
            fv = f.apply(v)
            if description._leq(fv, gu, depth):
                kids.append((v, fv))
            elif pruned is not None:
                pruned.append(event)
        return kids

    def probe(self, node: Trace, fu, gu) -> tuple:
        description = self.description
        f = description.lhs
        tried = 0
        for event in self.solver._candidate_events(node, gu):
            tried += 1
            if description._leq(f.apply(node.append(event)), gu,
                                self.solver.limit_depth):
                return True, tried
        return False, tried

    @staticmethod
    def trace(node: Trace) -> Trace:
        return node

    @staticmethod
    def env_key(node: Trace):
        """The per-channel projection of the trace — the paper's
        ``b(t)`` — as a hashable key: the sorted ``(channel name,
        messages)`` pairs of the channels it uses; ``None`` when some
        message is unhashable (the state graph then lets that node
        through)."""
        per: dict = {}
        for e in node:
            per.setdefault(e.channel.name, []).append(e.message)
        key = tuple((name, tuple(messages))
                    for name, messages in sorted(per.items()))
        try:
            hash(key)
        except TypeError:
            return None
        return key

    lens = staticmethod(component_lengths)


class _CompiledEngine:
    """The walk's view of :mod:`repro.core.compiled`'s representation
    (same calls as :class:`_ReferenceEngine`).

    A node is ``(events, env, parent g, cid)``:

    * ``events`` — the node's trace as a flat tuple of the candidate
      alphabet's own :class:`Event` objects (each child appends its
      candidate's), so :meth:`trace` wraps it as it stands;
    * ``env`` — the per-channel message environment, which *is* the
      per-channel projection ``b(t)``, so it doubles as the state
      graph's key;
    * ``parent g`` and ``cid`` — what ``g`` needs to be re-evaluated
      incrementally: the parent's value and the channel the node
      appended, whose ``rhs.after`` closure reuses every component
      that does not read it.  Seeds have no parent and take the full
      evaluation.

    Values are the compiled sides' flat tuples, ``f(v) ⊑ g(u)`` is a
    compiled prefix test, and the limit condition is plain equality
    (both values are finite).  A classified node's trace holds the
    same Event objects the reference engine appends, so results,
    digests, checkpoints and cache payloads are bit-identical;
    feature values land on the reference engine's integers, which
    keeps even truncated best-first runs identical across engines.
    """

    __slots__ = ("env_of", "lhs", "leq", "lhs_after", "g_after",
                 "seed_cid", "acts", "product")

    def __init__(self, compiled) -> None:
        rhs = compiled.rhs
        self.env_of = compiled.env_of
        self.lhs = compiled.lhs
        self.leq = compiled.leq
        self.lhs_after = compiled.lhs.after
        # one slot past the per-channel closures: a seed's full g
        self.g_after = rhs.after + (lambda env, _parent: rhs.eval(env),)
        self.seed_cid = len(rhs.after)
        self.acts = compiled.actions
        # both sides are products or neither (compile_description)
        self.product = rhs.is_product

    def seed(self, trace: Trace) -> tuple:
        events = tuple(trace)
        env = self.env_of(events)
        return (events, env, None, self.seed_cid), self.lhs.eval(env)

    def g(self, node):
        return self.g_after[node[3]](node[1], node[2])

    @staticmethod
    def limit(node, fu, gu) -> bool:
        return fu == gu

    def edges(self, node, fu, gu,
              pruned: Optional[list] = None) -> list:
        events, env = node[0], node[1]
        leq, lhs_after = self.leq, self.lhs_after
        kids = []
        for cid, msg, event in self.acts:
            env_v = env[:cid] + (env[cid] + (msg,),) + env[cid + 1:]
            fv = lhs_after[cid](env_v, fu)
            if leq(fv, gu):
                kids.append(((events + (event,), env_v, gu, cid), fv))
            elif pruned is not None:
                pruned.append(event)
        return kids

    def probe(self, node, fu, gu) -> tuple:
        env = node[1]
        leq, lhs_after = self.leq, self.lhs_after
        tried = 0
        for cid, msg, _event in self.acts:
            tried += 1
            if leq(lhs_after[cid](
                    env[:cid] + (env[cid] + (msg,),) + env[cid + 1:],
                    fu), gu):
                return True, tried
        return False, tried

    @staticmethod
    def trace(node) -> Trace:
        events = node[0]
        if not events:
            return Trace.empty()
        return Trace(FiniteSeq.from_tuple(events))

    @staticmethod
    def env_key(node):
        return node[1]

    def lens(self, value) -> tuple:
        return tuple(map(len, value)) if self.product else (len(value),)


class _ProfiledEngine:
    """Per-site cost attribution around an engine (tracing only).

    Times the evaluation sites — ``rhs.apply``, ``limit_report``, the
    ``lhs.apply.expand`` candidate scan and the ``lhs.apply.probe``
    frontier test — into the run's ``solver.site.*`` counters, with
    call counts equal to the evaluation ground truth pinned by
    ``tests/core/test_solver_memo.py``, and narrates each scan: one
    ``solver.prune`` event per inadmissible candidate, the
    proposed/pruned counters and the branching histogram.
    """

    __slots__ = ("inner", "metrics", "tracer")

    def __init__(self, inner, metrics: MetricsRegistry,
                 tracer: Tracer) -> None:
        self.inner = inner
        self.metrics = metrics
        self.tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def g(self, node):
        return _timed(self.metrics, "rhs.apply", self.inner.g, node)

    def limit(self, node, fu, gu) -> bool:
        return _timed(self.metrics, "limit_report", self.inner.limit,
                      node, fu, gu)

    def edges(self, node, fu, gu) -> list:
        pruned: list = []
        t0 = time.perf_counter_ns()
        kids = self.inner.edges(node, fu, gu, pruned)
        ns = time.perf_counter_ns() - t0
        proposed = len(kids) + len(pruned)
        if pruned:
            at = repr(self.inner.trace(node))
            for event in pruned:
                self.tracer.event(
                    "solver.prune", category="solver", track="solver",
                    node=at, candidate=repr(event),
                    reason="f(v) ⋢ g(u)")
        metrics = self.metrics
        metrics.counter("solver.candidates_proposed").inc(proposed)
        metrics.counter("solver.candidates_pruned").inc(len(pruned))
        metrics.histogram("solver.branching").record(len(kids))
        _charge(metrics, "lhs.apply.expand", ns, proposed)
        return kids

    def probe(self, node, fu, gu) -> tuple:
        t0 = time.perf_counter_ns()
        found = self.inner.probe(node, fu, gu)
        _charge(self.metrics, "lhs.apply.probe",
                time.perf_counter_ns() - t0, found[1])
        return found


class _StateGraphEngine:
    """The projection-state graph around an engine (``query`` only).

    When ``g``, the limit verdict and the admissible extensions of a
    node depend on its per-channel projection alone (the paper's
    ``b(t)``, the engine's ``env_key``), the §3.3 tree is the
    unfolding of a graph of projection states.  This wrapper remembers
    the key of every node it hands out — seeds and admitted children
    — and drops an admitted child whose state it has handed out
    already, so each state is expanded once, by the first node the
    walk's order reaches it with.  That node's parent was itself the
    first of its state, so its trace is a tree path that
    :meth:`SmoothSolutionSolver.replay_witness` replays, and the walk
    pops the first nodes of the tree walk's states in the tree walk's
    order.  A keyless node
    (``env_key`` is ``None``) always passes.  Traced runs count the
    dropped children as ``solver.states.revisits``.
    """

    __slots__ = ("inner", "key", "seen", "metrics")

    def __init__(self, inner, metrics: Optional[MetricsRegistry]) -> None:
        self.inner = inner
        self.key = inner.env_key
        self.seen: set = set()
        self.metrics = metrics

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def seed(self, trace: Trace) -> tuple:
        node, fu = self.inner.seed(trace)
        key = self.key(node)
        if key is not None:
            self.seen.add(key)
        return node, fu

    def edges(self, node, fu, gu) -> list:
        kids = self.inner.edges(node, fu, gu)
        key_of, seen = self.key, self.seen
        fresh = []
        for kid in kids:
            key = key_of(kid[0])
            if key is None:
                fresh.append(kid)
            elif key not in seen:
                seen.add(key)
                fresh.append(kid)
        if len(fresh) == len(kids):
            return fresh
        if self.metrics is not None:
            self.metrics.counter("solver.states.revisits").inc(
                len(kids) - len(fresh))
        return fresh or _Revisited()


class _Revisited(list):
    """The edges of a node whose every child reached a state the walk
    had already handed out: nothing to push, but the node has
    admissible extensions, so it is no dead end."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return True


def solve(description: Description, channels: Iterable[Channel],
          max_depth: int,
          limit_depth: int = DEFAULT_DEPTH,
          tracer: Optional[Tracer] = None,
          cache: Optional[object] = None,
          compiled: Optional[bool] = None,
          strategy: str = "bfs") -> SolverResult:
    """One-call convenience: explore over the channels' alphabets.

    With ``cache`` (a :class:`repro.cache.CacheStore`), the
    exploration consults the persistent result store first and stores
    its result back — a repeated ``solve`` of the same description /
    alphabet / budgets is a disk read, digest-identical to the
    computed one.  ``compiled`` selects the exploration engine (see
    :class:`SmoothSolutionSolver`): ``None`` auto-detects, ``False``
    forces the reference path, ``True`` demands the compiled one.
    ``strategy`` selects the exploration order (see
    :mod:`repro.core.search`); every strategy finds the same solution
    set wherever it completes.  Every node takes one ``g`` and every
    candidate one ``f``; no evaluation is shared between nodes.
    """
    solver = SmoothSolutionSolver.over_channels(
        description, channels, limit_depth=limit_depth, tracer=tracer,
        cache=cache, compiled=compiled, strategy=strategy)
    return solver.explore(max_depth)


def solve_query(description: Description,
                channels: Iterable[Channel],
                predicate, max_depth: int, mode: str = "exists",
                limit_depth: int = DEFAULT_DEPTH,
                max_nodes: int = 200_000,
                budget_seconds: Optional[float] = None,
                tracer: Optional[Tracer] = None,
                compiled: Optional[bool] = None,
                strategy: str = "best-first") -> "QueryResult":
    """One-call query: "does a finite smooth solution matching
    ``predicate`` exist within ``max_depth``?" (``mode="exists"``) or
    "do all of them match?" (``mode="all"``) — short-circuiting at the
    first witness / counterexample instead of enumerating the full
    solution set.  See :meth:`SmoothSolutionSolver.query`.  Defaults
    to best-first exploration, which pops solution-shaped nodes first
    — the order the EXT-SEARCH benchmark pins as expanding measurably
    fewer nodes than ``solve``.  A textual predicate over a
    projection-factored description is answered on the
    projection-state graph, one node per per-channel projection
    state.  It takes no result cache: a query neither reads nor
    writes one.
    """
    solver = SmoothSolutionSolver.over_channels(
        description, channels, limit_depth=limit_depth, tracer=tracer,
        compiled=compiled, strategy=strategy)
    return solver.query(predicate, max_depth, mode=mode,
                        max_nodes=max_nodes,
                        budget_seconds=budget_seconds)


def rhs_guided_candidates(channels: Iterable[Channel],
                          description: Description,
                          probe_depth: int = 32) -> CandidateFn:
    """Candidates drawn from what the right side currently allows.

    For a node ``u`` the admissible extensions satisfy ``f(v) ⊑ g(u)``;
    when ``f`` observes single channels, any new event's message must
    already appear in the corresponding component of ``g(u)``.  This
    generator proposes, per channel, the messages occurring in ``g(u)``
    (flattened across tuple components) — a finite set even when the
    channel alphabet is infinite.  It may over-approximate (harmless:
    inadmissible candidates are pruned by the ``f(v) ⊑ g(u)`` test) but
    never misses an admissible output event of the §2.3 kind.
    """
    channel_list = sorted(channels)

    def candidates(u: Trace, gu: object = None) -> Iterable[Event]:
        # ``explore`` computed g(u) for this exact node already (the
        # one-g-per-node discipline); only standalone callers pay for
        # a fresh evaluation
        if gu is None:
            gu = description.rhs.apply(u)
        messages = _flatten_messages(gu, probe_depth)
        for c in channel_list:
            for m in messages:
                if c.admits(m):
                    yield Event(c, m)

    candidates.accepts_gu = True
    candidates.cache_key = {
        "kind": "rhs-guided",
        "channels": [c.name for c in channel_list],
        "probe_depth": probe_depth,
        "description": getattr(description, "name", ""),
    }
    return candidates


def _flatten_messages(value: object, probe_depth: int) -> list:
    """Collect message values occurring in a codomain value."""
    from repro.seq.finite import Seq

    out: list = []
    if isinstance(value, tuple):
        for v in value:
            out.extend(_flatten_messages(v, probe_depth))
        return _dedup(out)
    if isinstance(value, Seq):
        out.extend(value.take(probe_depth).items)
        return _dedup(out)
    if isinstance(value, Trace):
        out.extend(
            e.message for e in value.take(probe_depth)
        )
        return _dedup(out)
    out.append(value)
    return _dedup(out)


def _dedup(items: list) -> list:
    """Order-preserving dedup on ``(type, value)`` identity.

    Plain hash equality would collapse ``True``/``1``/``1.0`` into one
    candidate message (they are equal and hash alike), silently
    shrinking the proposed event set for mixed-type alphabets; keying
    on the concrete type keeps distinct messages distinct.
    """
    seen = set()
    result = []
    for x in items:
        try:
            key = (type(x), x)
            if key in seen:
                continue
            seen.add(key)
        except TypeError:
            if any(type(y) is type(x) and y == x for y in result):
                continue
        result.append(x)
    return result
