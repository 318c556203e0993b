"""The compile-time probe runs once per (structure, alphabet).

:func:`repro.core.compiled._compile` remembers a probe pass under
exactly what the probe reads (see the module docstring): each test
here starts from an empty memo and counts the probes, so it holds in
any test order.
"""

from collections import OrderedDict

import pytest

import repro.core.compiled as compiled_mod
from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.compiled import (
    _PROBE_MEMO_SIZE,
    _probe_key,
    compile_description,
    decide_smooth_solution,
)
from repro.core.description import Description
from repro.core.solver import SmoothSolutionSolver, alphabet_candidates
from repro.functions.base import OpFn, chan, const_seq
from repro.functions.seq_fns import even_filter, even_of, scale_of
from repro.processes import merge
from repro.seq.finite import FiniteSeq
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
D = Channel("d", alphabet={0, 1, 2, 3})


@pytest.fixture
def probes(monkeypatch):
    """An empty memo, and the list of descriptions probed."""
    monkeypatch.setattr(compiled_mod, "_PROBE_PASSES", OrderedDict())
    seen = []
    probe = compiled_mod._probe_agrees

    def counting(compiled):
        seen.append(compiled.description)
        return probe(compiled)

    monkeypatch.setattr(compiled_mod, "_probe_agrees", counting)
    return seen


def constant_alphabet(*events):
    def candidates(t):
        return events

    candidates.constant_events = events
    return candidates


def even_spec():
    return Description(even_of(chan(D)), chan(B), name="even(d) ⟵ b")


def lies_on(value):
    """An identity op whose face drops ``value`` (by type and repr),
    so the probe passes exactly when ``value`` never reaches it."""
    def keep(s):
        return s

    bad = (type(value), repr(value))
    keep.tuple_face = lambda t: tuple(
        x for x in t if (type(x), repr(x)) != bad)
    return keep


class TestProbeOncePerNetwork:
    def test_second_catalog_build_skips_the_probe(self, probes):
        first, second = merge.make_dfm(), merge.make_dfm()
        assert compile_description(
            first.description(), first.solver().candidates) is not None
        assert len(probes) == 1
        proto = second.solver()
        compiled = compile_description(proto.description,
                                       proto.candidates)
        assert compiled is not None and len(probes) == 1
        own = proto.candidates.constant_events
        assert len(compiled.actions) == len(own)
        assert all(event is want for (_cid, _msg, event), want
                   in zip(compiled.actions, own))
        com = SmoothSolutionSolver(
            proto.description, proto.candidates,
            limit_depth=proto.limit_depth, compiled=True).explore(4)
        ref = SmoothSolutionSolver(
            proto.description, proto.candidates,
            limit_depth=proto.limit_depth, compiled=False).explore(4)
        assert com.digest() == ref.digest()
        assert len(probes) == 1

    def test_lying_face_after_a_pass_refuses_the_solver(
            self, probes, monkeypatch):
        cand = alphabet_candidates([B, D])
        assert compile_description(even_spec(), cand) is not None
        monkeypatch.setattr(even_filter, "tuple_face", lambda t: t)
        assert compile_description(even_spec(), cand) is None
        with pytest.raises(ValueError, match="compilable fragment"):
            SmoothSolutionSolver(even_spec(), cand,
                                 compiled=True).explore(2)
        auto = SmoothSolutionSolver(even_spec(), cand).explore(3)
        ref = SmoothSolutionSolver(even_spec(), cand,
                                   compiled=False).explore(3)
        assert auto.digest() == ref.digest()

    def test_lying_face_after_a_pass_refuses_the_trace_check(
            self, probes, monkeypatch):
        # the face lies on odd messages: (d, 1) is one of the
        # trace's own events
        t = Trace.from_pairs([(B, 0), (D, 1), (D, 0)])
        want = even_spec().check(t, 6).is_smooth
        assert decide_smooth_solution(even_spec(), t, 6) is want
        monkeypatch.setattr(even_filter, "tuple_face", lambda t: t)
        assert decide_smooth_solution(even_spec(), t, 6) is None
        checked = []
        reference = Description.check

        def spy(self, trace, depth):
            checked.append(trace)
            return reference(self, trace, depth)

        monkeypatch.setattr(Description, "check", spy)
        assert even_spec().is_smooth_solution(t, 6) is want
        assert checked == [t]

    def test_deleting_a_face_changes_the_key(self, probes):
        lifted = scale_of(2, chan(D))
        cand = alphabet_candidates([B, D])

        def spec():
            return Description(lifted, chan(B), name="2d ⟵ b")

        compiled = compile_description(spec(), cand)
        assert compiled is not None
        key = _probe_key(compiled, [])
        assert compile_description(spec(), cand) is not None
        assert len(probes) == 1
        del lifted.op.tuple_face  # the generic box/unbox wrapper
        assert _probe_key(compiled, []) != key
        assert compile_description(spec(), cand) is not None
        assert len(probes) == 2

    def test_same_name_different_op_probes_again(self, probes):
        # a name identifies code, not behaviour: an op named like
        # even's is keyed by what it is
        cand = alphabet_candidates([B, D])
        assert compile_description(even_spec(), cand) is not None
        liar = OpFn(even_of(chan(D)).name, lies_on(1), [chan(D)])
        spec = Description(liar, chan(B), name="even(d) ⟵ b")
        assert liar.expr_key() == even_spec().lhs.expr_key()
        assert compile_description(spec, cand) is None
        assert len(probes) == 2


class TestKeyedValues:
    @pytest.mark.parametrize("good,bad", [(1, True), (0.0, -0.0)])
    def test_equal_messages_probe_separately(self, probes, good, bad):
        op = lies_on(bad)

        def compile_over(message):
            b = Channel("b", alphabet={message})
            spec = Description(OpFn("keep", op, [chan(b)]),
                               const_seq(FiniteSeq(())), name="keep")
            return compile_description(spec, alphabet_candidates([b]))

        assert compile_over(good) is not None
        assert compile_over(good) is not None
        assert len(probes) == 1
        assert compile_over(bad) is None
        assert len(probes) == 2

    @pytest.mark.parametrize("good,bad", [(1, True), (0.0, -0.0)])
    def test_equal_constants_probe_separately(self, probes, good, bad):
        op = lies_on(bad)
        b = Channel("b", alphabet={0})

        def compile_with(item):
            spec = Description(
                chan(b), OpFn("keep", op,
                              [const_seq(FiniteSeq((item,)))]),
                name="b ⟵ keep(c)")
            return compile_description(spec, alphabet_candidates([b]))

        assert compile_with(good) is not None
        assert compile_with(good) is not None
        assert len(probes) == 1
        assert compile_with(bad) is None
        assert len(probes) == 2

    @pytest.mark.parametrize("message", [
        frozenset({1}), float("nan"), (1, frozenset({2})),
    ])
    def test_unkeyed_message_probes_every_call(self, probes, message):
        u = Channel("u")
        spec = Description(chan(u), const_seq(FiniteSeq(())),
                           name="u ⟵ ε")
        candidates = constant_alphabet(Event(u, message))
        for calls in (1, 2, 3):
            assert compile_description(spec, candidates) is not None
            assert len(probes) == calls
        assert not compiled_mod._PROBE_PASSES

    def test_unkeyed_constant_probes_every_call(self, probes):
        u = Channel("u", alphabet={0})
        spec = Description(chan(u),
                           const_seq(FiniteSeq((frozenset({0}),))),
                           name="u ⟵ {0}")
        for calls in (1, 2):
            assert compile_description(
                spec, alphabet_candidates([u])) is not None
            assert len(probes) == calls

    def test_unhashable_message_still_refuses(self, probes):
        u = Channel("u")
        spec = Description(chan(u), const_seq(FiniteSeq(([0],))),
                           name="u ⟵ [0]")
        candidates = constant_alphabet(Event(u, [0]))
        assert compile_description(spec, candidates) is None
        assert compile_description(spec, candidates) is None
        assert probes == []


class TestBoundedMemo:
    def test_memo_keeps_at_most_the_cap(self, probes):
        u = Channel("u", alphabet={0})
        cand = alphabet_candidates([u])

        def spec(i):
            return Description(chan(u), const_seq(FiniteSeq((i,))),
                               name=f"u ⟵ {i}")

        n = _PROBE_MEMO_SIZE + 5
        for i in range(n):
            assert compile_description(spec(i), cand) is not None
        assert len(compiled_mod._PROBE_PASSES) == _PROBE_MEMO_SIZE
        assert len(probes) == n
        # least recently used goes first: the newest still hits, the
        # oldest probes again
        assert compile_description(spec(n - 1), cand) is not None
        assert len(probes) == n
        assert compile_description(spec(0), cand) is not None
        assert len(probes) == n + 1
        assert len(compiled_mod._PROBE_PASSES) == _PROBE_MEMO_SIZE

    def test_threads_share_the_memo(self, probes):
        # more threads than cores, switching as often as the
        # interpreter allows: no compile fails or raises, and the
        # memo stays within its cap
        import sys
        import threading

        u = Channel("u", alphabet={0})
        cand = alphabet_candidates([u])
        compiled, errors = [], []

        def worker(offset):
            try:
                for i in range(100):
                    k = (i + offset) % (2 * _PROBE_MEMO_SIZE)
                    spec = Description(chan(u),
                                       const_seq(FiniteSeq((k,))),
                                       name=f"u ⟵ {k}")
                    compiled.append(compile_description(spec, cand))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(compiled) == 400
        assert all(c is not None for c in compiled)
        assert len(compiled_mod._PROBE_PASSES) <= _PROBE_MEMO_SIZE
