"""The traced run's instrumentation, kept in the benchmark's own files.

:class:`LayerTracer` wraps each layer's public call in a span of the
program's own :class:`repro.obs.Tracer`; calls made once per Kahn
step (the fault pipeline, the flight recorder's logging) would cost
more in span bookkeeping than they do themselves, so they are timed
by a plain clock pair and charged to the innermost open span or
timed call as an inner layer.  :func:`self_times` turns the spans
into per-request self times per layer and finds time charged twice.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Self time of a ``request`` span: the benchmark's own work between
#: the layer calls it makes.
GAP = "bench.gap"
#: ``info`` key counting spans opened inside a timed call: their time
#: is charged twice.
SPAN_IN_TIMED = "bench.span_in_timed"


class LayerTracer:
    """Install, while active, span wrappers around the layer calls."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._inner_stack: list[dict] = []
        self._timed_depth = 0
        self._patches: list[tuple] = []
        #: facts seen by the wrappers during the current request
        self.info: dict = {}

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, on_call=None):
        tracer = self.tracer
        stack = self._inner_stack

        def wrapper(*args, **kwargs):
            if self._timed_depth:
                # the enclosing timed call's clock pair includes this
                # span, which its parent span subtracts as a child too
                self._count(SPAN_IN_TIMED)
            inner: dict = {}
            stack.append(inner)
            try:
                with tracer.span(name, category="bench", track="bench",
                                 inner=inner):
                    out = fn(*args, **kwargs)
            finally:
                stack.pop()
            if on_call is not None:
                on_call(args, out)
            return out

        return wrapper

    def _timed(self, layer: str, fn, on_call=None):
        clock = time.perf_counter_ns
        stack = self._inner_stack

        def wrapper(*args, **kwargs):
            # a timed call made inside this one is charged to its own
            # layer and taken out of this one's time
            nested: dict = {}
            stack.append(nested)
            self._timed_depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self._timed_depth -= 1
            inner = stack[-1]
            for name, ns in nested.items():
                inner[name] = inner.get(name, 0) + ns
            inner[layer] = inner.get(layer, 0) + dt - sum(nested.values())
            if on_call is not None:
                on_call(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, wrap) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def _count(self, key: str, n: int = 1) -> None:
        self.info[key] = self.info.get(key, 0) + n

    # -- installation ----------------------------------------------------------

    def install(self, workload: str) -> None:
        if workload in ("solve", "query"):
            self._install_solver()
        else:
            self._install_grid()

    def _install_solver(self) -> None:
        from repro.core import compiled, solver

        cls = solver.SmoothSolutionSolver

        def saw_engine(_args, out):
            self.info["engine"] = ("reference" if out is None
                                   else "compiled")

        self._patch(cls, "explore",
                    lambda f: self._span("core.solver.explore", f))
        self._patch(compiled, "compile_description",
                    lambda f: self._span("core.compiled.compile", f,
                                         saw_engine))
        self._patch(cls, "_explore_compiled",
                    lambda f: self._span("core.compiled.bfs", f))
        self._patch(cls, "_explore_ordered",
                    lambda f: self._span("core.search.ordered", f))
        self._patch(cls, "query",
                    lambda f: self._span("core.search.query", f))
        self._patch(solver, "parse_predicate",
                    lambda f: self._span("core.search.parse", f))
        self._patch(cls, "replay_witness",
                    lambda f: self._span("core.search.replay", f))
        self._patch(solver.SolverResult, "digest",
                    lambda f: self._span("core.solver.digest", f))

    def _install_grid(self) -> None:
        from repro.core import description
        from repro.faults import harness, plan, supervision
        from repro.kahn import runtime
        from repro.obs import recorder

        def saw_send(args, out):
            if out != [args[2]]:
                self._count("faults.injected")

        def saw_check(args, _out):
            self._count("check.events", args[1].length())

        self._patch(harness, "run_conformance",
                    lambda f: self._span("faults.harness", f))
        self._patch(harness, "run_supervised",
                    lambda f: self._span("faults.supervised", f))
        self._patch(supervision.SupervisedRuntime, "run",
                    lambda f: self._span("kahn.run", f))
        self._patch(plan.FaultPlan, "on_send",
                    lambda f: self._timed("faults.plan", f, saw_send))
        for attr in ("pick_agent", "pick_choice"):
            self._patch(recorder.RecordingOracle, attr,
                        lambda f: self._timed("obs.recorder", f))
        self._patch(recorder.RecordingRandom, "_log",
                    lambda f: self._timed("obs.recorder", f))
        self._patch(harness, "record_fault_rng",
                    lambda f: self._timed("obs.recorder", f))
        self._patch(runtime.RunResult, "digest",
                    lambda f: self._span("obs.recorder.digest", f))
        self._patch(description.Description, "is_smooth_solution",
                    lambda f: self._span("core.description.check", f,
                                         saw_check))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per request -----------------------------------------------------------

    @contextmanager
    def request(self, req_id: int, workload: str, cls: str):
        """The span around one request; ``info`` restarts empty."""
        self.info = {}
        inner: dict = {}
        self._inner_stack.append(inner)
        try:
            with self.tracer.span("request", category="bench",
                                  track="bench", id=req_id,
                                  workload=workload, cls=cls, inner=inner):
                yield
        finally:
            self._inner_stack.pop()

    def build(self):
        return self.tracer.span("build", category="bench", track="bench",
                                inner={})


def self_times(records) -> tuple[dict, list]:
    """Per request: ``(request ns, {layer: self ns}, {span: ns})``,
    keyed by request id, and the spans whose self time is negative.

    A span's self time is its duration minus its child spans' and its
    inner layers' time; a ``request`` span's self time is
    :data:`GAP`.  The self times of a request's spans and inner layers
    add up to its span by construction.  Time charged to two layers at
    once shows as a negative self time, so each such span is returned
    as ``(request id, span name, self ns)``.  The last map holds each
    span name's whole duration.
    """
    spans = sorted((r for r in records
                    if r.kind == "span" and r.category == "bench"),
                   key=lambda r: (r.start_ns, -r.dur_ns))
    child_ns: dict[int, int] = {}
    root_of: dict[int, object] = {}
    stack: list = []
    for s in spans:
        while stack and stack[-1].start_ns + stack[-1].dur_ns <= s.start_ns:
            stack.pop()
        if stack:
            parent = stack[-1]
            child_ns[id(parent)] = child_ns.get(id(parent), 0) + s.dur_ns
            root_of[id(s)] = root_of[id(parent)]
        else:
            root_of[id(s)] = s
        stack.append(s)
    out: dict = {}
    negative = []
    for s in spans:
        root = root_of[id(s)]
        if root.name != "request":
            continue
        _dur, layers, whole = out.setdefault(
            root.args["id"], (root.dur_ns, {}, {}))
        inner = s.args.get("inner", {})
        own = s.dur_ns - child_ns.get(id(s), 0) - sum(inner.values())
        if own < 0:
            negative.append((root.args["id"], s.name, own))
        name = GAP if s is root else s.name
        layers[name] = layers.get(name, 0) + own
        whole[name] = whole.get(name, 0) + s.dur_ns
        for layer, ns in inner.items():
            layers[layer] = layers.get(layer, 0) + ns
    return out, negative
