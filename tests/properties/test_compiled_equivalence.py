"""Property tests pinning the compiled hot path to the reference.

Randomized and exhaustive evidence backs the engine swap in
:mod:`repro.core.compiled`:

* the *environment* is the per-channel projection — on random finite
  traces ``env_of(t)[cid]`` is ``t.sequence_on(ch)`` as a tuple, and
  ``_extend`` is the one-step ``env_of``;
* the *order theory* collapses correctly — on finite sequences the
  compiled prefix test agrees with ``seq_leq``, and ``seq_eq_upto``
  is plain equality at every depth ≤ 8;
* the compiled closures are the definitions they replace — every
  tuple face equals its operation, and the generated product
  closures (``after`` per channel, the componentwise prefix test)
  equal the per-component rules at arities 3 and 4;
* the one-pass run-trace check gives the reference verdict —
  ``is_smooth_solution`` equals ``check(...).is_smooth`` on random
  finite traces of every compilable spec the grid and the §4 catalog
  use, and on equal messages of different kinds (``1``/``True``,
  ``0.0``/``-0.0``); inputs the walk declines are answered by
  ``check``;
* the two engines are one walk — on the catalog's implication,
  random-bit sequence and fair merge, both strategies, complete and
  node-budget-truncated, they give equal
  digests, checkpoints, cache payloads and per-site call counts.
"""

import functools
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.compiled import (
    CompiledSide,
    _extend,
    _pack,
    _product_leq,
    _tuple_leq,
    compile_description,
    decide_smooth_solution,
)
from repro.core.description import Description, combine
from repro.core.solver import SmoothSolutionSolver, alphabet_candidates
from repro.functions.base import LambdaFn, OpFn, chan, const_seq
from repro.functions.seq_fns import even_of, odd_of, prepend_of, scale_of
from repro.obs import RingBufferSink, Tracer
from repro.processes.merge import dfm_descriptions
from repro.seq.finite import FiniteSeq
from repro.seq.lazy import LazySeq
from repro.seq.ordering import SEQ_CPO, seq_eq_upto, seq_leq
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})

EVENTS = [Event(B, 0), Event(B, 2), Event(C, 1), Event(C, 3),
          Event(D, 0), Event(D, 1), Event(D, 2), Event(D, 3)]

traces = st.lists(st.sampled_from(EVENTS), max_size=7).map(Trace.finite)

messages = st.one_of(st.integers(-3, 3), st.sampled_from(["T", "F"]))
seqs = st.lists(messages, max_size=8).map(tuple)
bits = st.lists(st.sampled_from(["T", "F"]), max_size=8).map(tuple)


@functools.lru_cache(maxsize=None)
def compiled_dfm():
    """dfm compiled against :data:`EVENTS`: a slot for each of b, c
    and d."""
    spec = combine(dfm_descriptions(B, C, D), name="dfm")
    compiled = compile_description(spec, alphabet_candidates([B, C, D]))
    assert compiled is not None
    assert [event for _cid, _msg, event in compiled.actions] == EVENTS
    return compiled


class TestEnvironment:
    @given(traces)
    def test_env_matches_per_channel_projections(self, t):
        compiled = compiled_dfm()
        env = compiled.env_of(t)
        for ch in (B, C, D):
            assert env[compiled.slots[ch]] == tuple(t.sequence_on(ch))

    @given(traces, st.sampled_from(EVENTS))
    def test_extend_is_one_step_env_of(self, t, e):
        compiled = compiled_dfm()
        extended = _extend(compiled.env_of(t), compiled.slots[e.channel],
                           e.message)
        assert extended == compiled.env_of(t.append(e))


class TestPackedOrderCollapse:
    @given(seqs, seqs)
    def test_leq_agrees_with_seq_leq(self, a, b):
        assert _tuple_leq(a, b) == \
            seq_leq(FiniteSeq(a), FiniteSeq(b))

    @given(seqs, seqs, st.integers(0, 8))
    def test_eq_upto_collapses_to_equality(self, a, b, depth):
        # both-finite ``=_depth`` is exact equality regardless of
        # depth — the collapse that turns the solver's limit check
        # into a tuple compare
        assert seq_eq_upto(FiniteSeq(a), FiniteSeq(b), depth) == \
            (a == b)


class TestPack:
    def test_pack_refuses_values_not_known_finite(self):
        # the probe's and the generic op wrapper's packer: a lazy
        # value, or a product with one, has no compiled form
        lazy = LazySeq(iter(range(3)))
        assert _pack(FiniteSeq((1, 2))) == (1, 2)
        assert _pack((FiniteSeq((1,)), FiniteSeq(()))) == ((1,), ())
        assert _pack(lazy) is None
        assert _pack((FiniteSeq((1,)), lazy)) is None
        assert _pack(7) is None


class TestCompiledFaceAgreement:
    """Every tuple face equals its operation on random finite input."""

    @given(st.lists(st.integers(-4, 9), max_size=8).map(tuple))
    def test_numeric_faces(self, t):
        from repro.functions.seq_fns import (
            brock_f,
            even_filter,
            odd_filter,
        )

        for op in (even_filter, odd_filter, brock_f):
            assert op.tuple_face(t) == _pack(op(FiniteSeq(t)))

    @given(st.lists(st.sampled_from(["T", "F"]), max_size=8)
           .map(tuple))
    def test_boolean_faces(self, t):
        from repro.functions.seq_fns import (
            count_ticks,
            false_filter,
            true_filter,
            until_first_f,
        )

        for op in (true_filter, false_filter, until_first_f,
                   count_ticks):
            assert op.tuple_face(t) == _pack(op(FiniteSeq(t)))

    @given(st.lists(st.integers(-4, 9), max_size=8).map(tuple))
    @settings(max_examples=40)
    def test_parameterized_faces(self, t):
        from repro.functions.seq_fns import (
            affine_of,
            prepend_block_of,
            prepend_of,
            scale_of,
            tag_of,
            take_of,
        )
        from repro.functions.base import chan

        fns = [scale_of(3, chan(D)), affine_of(2, 1, chan(D)),
               prepend_of(7, chan(D)),
               prepend_block_of((1, 2), chan(D)),
               tag_of(0, chan(D)), take_of(2, chan(D))]
        for fn in fns:
            face = fn.op.tuple_face
            assert face(t) == _pack(fn.op(FiniteSeq(t)))

    @given(bits, bits)
    @example((), ())
    @example((), ("T", "F"))
    @example(("F", "T", "T"), ("T",))
    def test_logic_faces(self, a, b):
        from repro.functions.logic import and_map, r_map

        assert r_map.tuple_face(a) == _pack(r_map(FiniteSeq(a)))
        # AND's output stops at the shorter argument, on either side
        for x, y in ((a, b), (b, a)):
            assert and_map.tuple_face(x, y) == \
                _pack(and_map(FiniteSeq(x), FiniteSeq(y)))


# ---------------------------------------------------------------------------
# Product closures at arities 3 and 4
# ---------------------------------------------------------------------------

#: channel count of the synthetic environments below
N_CHANNELS = 3
flat = st.lists(messages, max_size=4).map(tuple)
envs = st.lists(flat, min_size=N_CHANNELS,
                max_size=N_CHANNELS).map(tuple)


def component(i: int):
    """A component closure reading environment slot ``i``."""
    return lambda env: (i,) + env[i]


class TestProductClosures:
    """The generated per-channel ``after`` closures and prefix test
    against their per-component definitions."""

    @given(st.sampled_from([3, 4]), st.data())
    def test_after_agrees_with_per_component_rule(self, arity, data):
        slots = [data.draw(st.integers(0, N_CHANNELS - 1))
                 for _ in range(arity)]
        reads = tuple(
            frozenset(data.draw(st.sets(
                st.integers(0, N_CHANNELS - 1), max_size=2))) | {slot}
            for slot in slots)
        evals = tuple(component(slot) for slot in slots)
        side = CompiledSide(evals, reads, True)
        side.bind(N_CHANNELS)
        env = data.draw(envs)
        parent = tuple(data.draw(flat) for _ in range(arity))
        for cid in range(N_CHANNELS):
            want = tuple(e(env) if cid in r else p
                         for e, r, p in zip(evals, reads, parent))
            assert side.after[cid](env, parent) == want
        assert side.eval(env) == tuple(e(env) for e in evals)

    @given(st.sampled_from([3, 4]), st.data())
    def test_leq_agrees_with_componentwise_seq_leq(self, arity, data):
        a = tuple(data.draw(seqs) for _ in range(arity))
        # each component of b extends a's, or is drawn afresh
        b = tuple(data.draw(st.one_of(
            seqs, seqs.map(lambda tail, x=x: x + tail))) for x in a)
        want = all(seq_leq(FiniteSeq(x), FiniteSeq(y))
                   for x, y in zip(a, b))
        assert _product_leq(arity)(a, b) is want

    @pytest.mark.parametrize("arity", [3, 4])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_compiled_after_agrees_with_full_evaluation(self, arity,
                                                        data):
        # a real system of `arity` descriptions: walking random
        # traces, each side's after closure on the parent's value
        # equals the side evaluated afresh
        specs = [Description(even_of(chan(D)), chan(B)),
                 Description(odd_of(chan(D)), chan(C)),
                 Description(scale_of(2, chan(C)), chan(D)),
                 Description(chan(B), prepend_of(0, chan(D)))]
        description = combine(specs[:arity], name=f"arity-{arity}")
        compiled = compile_description(
            description, alphabet_candidates([B, C, D]))
        assert compiled is not None
        for side in (compiled.lhs, compiled.rhs):
            assert len(side.evals) == arity
        env = compiled.root_env
        values = [compiled.lhs.eval(env), compiled.rhs.eval(env)]
        for event in data.draw(st.lists(st.sampled_from(EVENTS),
                                        max_size=6)):
            cid = compiled.slots[event.channel]
            env = _extend(env, cid, event.message)
            for k, side in enumerate((compiled.lhs, compiled.rhs)):
                values[k] = side.after[cid](env, values[k])
                assert values[k] == side.eval(env)


# ---------------------------------------------------------------------------
# The one-pass run-trace check against Description.check
# ---------------------------------------------------------------------------

#: a channel none of the specs below reads
X = Channel("x", alphabet={0, 1})


@functools.lru_cache(maxsize=None)
def smooth_specs() -> dict:
    """Name -> ``(description, events, smooth solutions)``.

    ``events`` spans the spec's channels plus :data:`X`; the smooth
    solutions (depth ≤ 4, over the channels the description reads)
    seed the mutated traces, which random lists alone would rarely
    make smooth.
    """
    from repro.anomaly.brock_ackermann import (
        channels,
        combined_description,
    )
    from repro.par import get_scenario
    from repro.processes import implication, merge, random_bit

    specs = [(p.name, p.description(), p.channels)
             for p in (merge.make_dfm(), merge.make_fair_merge(),
                       implication.make(), random_bit.make_sequence())]
    for name in ("dfm", "alternating_bit"):
        scenario = get_scenario(name)
        specs.append((f"grid-{name}", scenario.spec, scenario.channels))
    b, c = channels()
    specs.append(("brock-ackermann", combined_description(b, c), [b, c]))
    out = {}
    for name, description, spec_channels in specs:
        ordered = sorted(spec_channels, key=lambda ch: ch.name) + [X]
        events = [Event(ch, m) for ch in ordered
                  for m in sorted(ch.alphabet, key=repr)]
        read = [ch for ch in ordered if ch in description.support()]
        solutions = SmoothSolutionSolver.over_channels(
            description, read).explore(4).finite_solutions
        out[name] = (description, events,
                     [list(t) for t in solutions])
    return out


@st.composite
def spec_traces(draw, events, solutions):
    """A random event list, or a smooth solution after up to three
    edits: a cut (limit-only failures), a swap of neighbours
    (smoothness-only failures) or an inserted event."""
    if not solutions or draw(st.booleans()):
        return Trace.finite(
            draw(st.lists(st.sampled_from(events), max_size=8)))
    t = list(draw(st.sampled_from(solutions)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("cut", "swap", "insert")))
        i = draw(st.integers(0, len(t)))
        if kind == "cut":
            t = t[:i]
        elif kind == "swap" and i + 1 < len(t):
            t[i], t[i + 1] = t[i + 1], t[i]
        elif kind == "insert":
            t.insert(i, draw(st.sampled_from(events)))
    return Trace.finite(t)


SPEC_NAMES = ["dfm", "FairMerge", "Implication", "RandomBitSequence",
              "grid-dfm", "grid-alternating_bit", "brock-ackermann"]


def dfm_spec() -> Description:
    return Description(even_of(chan(D)), chan(B), name="even(d) ⟵ b")


class TestSmoothCheckAgreement:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_walk_agrees_with_check(self, name, data):
        description, events, solutions = smooth_specs()[name]
        t = data.draw(spec_traces(events, solutions))
        depth = data.draw(st.integers(0, t.length() + 2))
        want = description.check(t, depth).is_smooth
        assert decide_smooth_solution(description, t, depth) is want
        assert description.is_smooth_solution(t, depth) is want

    def test_every_failure_mode_is_covered(self):
        # all dfm traces of up to four events over five events (one
        # on the unread channel x), at every depth 0..|t|+2: the
        # verdicts agree, and each way of failing occurs
        description, _events, _solutions = smooth_specs()["dfm"]
        b, c, d = sorted(description.support(), key=lambda ch: ch.name)
        events = [Event(b, 0), Event(c, 1), Event(d, 0), Event(d, 1),
                  Event(X, 0)]
        seen = set()
        for n in range(5):
            for combo in itertools.product(events, repeat=n):
                t = Trace.finite(combo)
                complete = description.check(t, n)
                for depth in range(n + 3):
                    verdict = description.check(t, depth)
                    assert decide_smooth_solution(
                        description, t, depth) is verdict.is_smooth
                    assert description.is_smooth_solution(
                        t, depth) is verdict.is_smooth
                    seen.add((verdict.limit.holds,
                              not verdict.violations))
                    if verdict.is_smooth and not complete.is_smooth:
                        seen.add("violation beyond depth")
        assert seen == {(True, True), (False, True), (True, False),
                        (False, False), "violation beyond depth"}

    @pytest.mark.parametrize("first,second", [(1, True), (0.0, -0.0)])
    def test_equal_messages_keep_their_own_slots(self, first, second):
        # (u, first) and (u, second) are equal events, but an op that
        # keeps only ``second``'s exact kind tells them apart: each
        # event is checked with its own message
        def keep(s):
            return FiniteSeq(tuple(
                m for m in s.items
                if type(m) is type(second) and repr(m) == repr(second)))

        u = Channel("u")
        spec = Description(OpFn("keep", keep, [chan(u)]),
                           const_seq(FiniteSeq((second,))), name="keep")
        t = Trace.from_pairs([(u, first), (u, second)])
        want = spec.check(t, 4).is_smooth
        assert want is True
        assert decide_smooth_solution(spec, t, 4) is want
        assert spec.is_smooth_solution(t, 4) is want


class TestSmoothCheckFallback:
    """Inputs the walk declines are answered by ``check``."""

    @staticmethod
    def answered_by_check(monkeypatch, description, t, depth=6):
        want = description.check(t, depth).is_smooth
        assert decide_smooth_solution(description, t, depth) is None
        calls = []
        reference = Description.check

        def spy(self, trace, depth):
            calls.append(trace)
            return reference(self, trace, depth)

        monkeypatch.setattr(Description, "check", spy)
        assert description.is_smooth_solution(t, depth) is want
        assert calls == [t]
        return want

    def test_lazy_trace(self, monkeypatch):
        t = Trace.cycle_pairs([(B, 0), (D, 0)])
        assert self.answered_by_check(monkeypatch, dfm_spec(), t)

    def test_description_subclass(self, monkeypatch):
        class Sub(Description):
            pass

        spec = Sub(even_of(chan(D)), chan(B), name="sub")
        t = Trace.from_pairs([(B, 0), (D, 0)])
        assert self.answered_by_check(monkeypatch, spec, t)

    def test_lambda_fn_side(self, monkeypatch):
        spec = Description(
            LambdaFn("opaque", lambda t: t.sequence_on(D),
                     codomain=SEQ_CPO),
            chan(B), name="opaque")
        t = Trace.from_pairs([(D, 0), (B, 0)])
        assert not self.answered_by_check(monkeypatch, spec, t)

    def test_unhashable_message(self, monkeypatch):
        u = Channel("u")
        spec = Description(chan(u), const_seq(FiniteSeq(([0],))),
                           name="u ⟵ [0]")
        t = Trace.from_pairs([(u, [0])])
        assert self.answered_by_check(monkeypatch, spec, t)

    def test_probe_disagreement(self, monkeypatch):
        # a lying face fails the compile-time probe on (d,0), one of
        # the trace's own events; the op is shared module state, so
        # monkeypatch restores it
        lifted = odd_of(chan(D))
        monkeypatch.setattr(lifted.op, "tuple_face", lambda t: t)
        spec = Description(lifted, chan(C), name="liar")
        t = Trace.from_pairs([(C, 1), (D, 0), (D, 1)])
        assert self.answered_by_check(monkeypatch, spec, t)

    def test_non_finite_value_mid_walk(self, monkeypatch):
        # an op without a face that is finite on the probe's depth-≤1
        # traces and lazy from two messages on: the walk meets it at
        # the second event and declines
        def late_lazy(s):
            if len(s) < 2:
                return s
            return LazySeq(iter(s.items))

        spec = Description(OpFn("late", late_lazy, [chan(D)]),
                           const_seq(FiniteSeq((0, 1))), name="late")
        t = Trace.from_pairs([(D, 0), (D, 1)])
        self.answered_by_check(monkeypatch, spec, t)


# ---------------------------------------------------------------------------
# Engine parity over the catalog
# ---------------------------------------------------------------------------

#: catalog process -> (factory module, factory name, depth)
CATALOG = {
    "implication": ("implication", "make", 5),
    "random_bit_sequence": ("random_bit", "make_sequence", 7),
    "fair_merge": ("merge", "make_fair_merge", 3),
}


def catalog_run(name, compiled, strategy, max_nodes):
    """One traced exploration of a catalog process: the result's
    digest, checkpoint and payload JSON, and its per-site calls."""
    from repro import processes

    module, factory, depth = CATALOG[name]
    proto = getattr(getattr(processes, module), factory)().solver()
    solver = SmoothSolutionSolver(
        proto.description, proto.candidates,
        limit_depth=proto.limit_depth, compiled=compiled,
        strategy=strategy,
        tracer=Tracer([RingBufferSink(capacity=100_000)]))
    result = solver.explore(depth, max_nodes=max_nodes)
    calls = {key: value for key, value in result.metrics.items()
             if key.startswith("solver.site.") and key.endswith(".calls")
             and not key.startswith("solver.site.compile.")}
    return (result.digest(), result.checkpoint().to_json(),
            json.dumps(result.to_payload()), calls)


class TestEngineParityMatrix:
    @pytest.mark.parametrize("max_nodes", [200_000, 37])
    @pytest.mark.parametrize("strategy", ["bfs", "best-first"])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_engines_agree(self, name, strategy, max_nodes):
        from repro import processes

        module, factory, _depth = CATALOG[name]
        proto = getattr(getattr(processes, module), factory)().solver()
        assert compile_description(proto.description,
                                   proto.candidates) is not None
        reference = catalog_run(name, False, strategy, max_nodes)
        compiled = catalog_run(name, True, strategy, max_nodes)
        assert reference[3]["solver.site.limit_report.calls"] > 0
        assert compiled == reference
