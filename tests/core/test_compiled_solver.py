"""The compiled engine is bit-identical to the reference loop.

The tentpole claim of :mod:`repro.core.compiled`: channel slots,
per-channel message tuples and incremental evaluation change *where
the time goes*, never *what comes out*.  Every observable artifact —
result digests, truncation reasons, checkpoints, resume results,
cache keys and cross-engine cache hits — is asserted equal between
the two engines, and everything outside the compilable fragment must
fall back to the reference path automatically.
"""

import pytest

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.compiled import compile_description
from repro.core.description import Description, combine
from repro.core.solver import (
    SmoothSolutionSolver,
    alphabet_candidates,
    rhs_guided_candidates,
)
from repro.functions.base import LambdaFn, chan, const_seq
from repro.functions.seq_fns import even_of, scale_of
from repro.processes.merge import dfm_descriptions
from repro.seq.finite import FiniteSeq
from repro.seq.ordering import SEQ_CPO
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def solver(compiled, **kw):
    return SmoothSolutionSolver(dfm(), alphabet_candidates([B, C, D]),
                                compiled=compiled, **kw)


class TestDigestParity:
    @pytest.mark.parametrize("depth", range(0, 6))
    def test_dfm_digest_equal_at_every_depth(self, depth):
        ref = solver(False).explore(depth)
        com = solver(True).explore(depth)
        assert com.digest() == ref.digest()
        assert com.nodes_explored == ref.nodes_explored
        assert [repr(t) for t in com.finite_solutions] == \
            [repr(t) for t in ref.finite_solutions]
        assert [repr(t) for t in com.frontier] == \
            [repr(t) for t in ref.frontier]

    def test_single_description_spec(self):
        out = Channel("out", alphabet={"a", "b"})
        spec = Description(chan(out),
                           const_seq(FiniteSeq(("a", "b"))),
                           name="const-out")
        cand = alphabet_candidates([out])
        ref = SmoothSolutionSolver(spec, cand,
                                   compiled=False).explore(4)
        com = SmoothSolutionSolver(spec, cand,
                                   compiled=True).explore(4)
        assert com.digest() == ref.digest()

    def test_face_free_op_compiles_via_generic_wrapper(self):
        # an OpFn without a tuple_face goes through box/unbox —
        # slower, still compiled, still identical
        lifted = scale_of(2, chan(D))
        del lifted.op.tuple_face
        spec = Description(lifted, chan(B), name="boxed")
        cand = alphabet_candidates([B, D])
        assert compile_description(spec, cand) is not None
        ref = SmoothSolutionSolver(spec, cand,
                                   compiled=False).explore(3)
        com = SmoothSolutionSolver(spec, cand,
                                   compiled=True).explore(3)
        assert com.digest() == ref.digest()


class TestTruncationParity:
    @pytest.mark.parametrize("max_nodes", [1, 3, 10, 50, 128, 300])
    def test_node_budget_truncation_digest_equal(self, max_nodes):
        ref = solver(False).explore(4, max_nodes=max_nodes)
        com = solver(True).explore(4, max_nodes=max_nodes)
        assert com.digest() == ref.digest()
        assert com.truncated == ref.truncated
        assert com.truncation_reason == ref.truncation_reason


class TestCheckpointResumeParity:
    @pytest.mark.parametrize("first,second", [
        (False, False), (False, True), (True, False), (True, True),
    ])
    def test_truncate_resume_across_engine_mixes(self, first, second):
        full = solver(False).explore(4)
        part = solver(first).explore(4, max_nodes=100)
        assert part.truncated
        resumed = solver(second).explore(
            4, resume_from=part.checkpoint())
        assert resumed.digest() == full.digest()
        assert resumed.nodes_explored == full.nodes_explored

    def test_complete_checkpoint_resumes_to_itself(self):
        full = solver(True).explore(3)
        resumed = solver(True).explore(
            3, resume_from=full.checkpoint())
        assert resumed.digest() == full.digest()

    def test_checkpoint_json_round_trip(self, tmp_path):
        part = solver(True).explore(4, max_nodes=64)
        path = tmp_path / "ckpt.json"
        part.checkpoint().save(path)
        resumed = solver(False).explore(4, resume_from=str(path))
        assert resumed.digest() == solver(False).explore(4).digest()


class TestCacheParity:
    def test_cache_key_identical_across_engines(self):
        from repro.cache.keys import solver_cache_key

        spec = dfm()
        cand = alphabet_candidates([B, C, D])
        # the key is a function of the inputs only — engine choice
        # must not leak into it, or engines would not share entries
        k1 = solver_cache_key(spec, cand, 4, 64, 200_000, None)
        k2 = solver_cache_key(spec, cand, 4, 64, 200_000, None)
        assert k1 == k2

    def test_cross_engine_cache_hit(self, tmp_path):
        from repro.cache.store import CacheStore

        cache = CacheStore(tmp_path)
        first = solver(True, cache=cache).explore(4)
        counts = cache.counters()
        hit = solver(False, cache=cache).explore(4)
        assert cache.counters()["hit"] == counts["hit"] + 1
        assert hit.digest() == first.digest()

    def test_hit_rebuilds_the_walked_traces(self, tmp_path):
        # a constant alphabet rebuilds each cached trace in one step,
        # from the alphabet's own Event objects
        from repro.cache.store import CacheStore

        cache = CacheStore(tmp_path)
        walked = solver(False, cache=cache).explore(4)
        cand = alphabet_candidates([B, C, D])
        hit = SmoothSolutionSolver(dfm(), cand, cache=cache).explore(4)
        assert cache.counters()["hit"] == 1
        assert hit.digest() == walked.digest()
        rebuilt = hit.finite_solutions + hit.frontier + hit.dead_ends
        assert rebuilt == (walked.finite_solutions + walked.frontier
                           + walked.dead_ends)
        alphabet = {id(e) for e in cand.constant_events}
        assert all(id(e) in alphabet for t in rebuilt for e in t)
        assert hit.finite_solutions[0] is Trace.empty()

    def test_hit_carries_its_verified_digest(self, tmp_path):
        # a snapshot for the caller that prints it, never a cache:
        # digest() hashes what the result holds now
        import dataclasses

        from repro.cache.store import CacheStore

        cache = CacheStore(tmp_path)
        walked = solver(True, cache=cache).explore(3)
        hit = solver(True, cache=cache).explore(3)
        assert cache.counters()["hit"] == 1
        assert walked.cache_digest == walked.digest()
        assert hit.cache_digest == walked.digest() == hit.digest()
        assert dataclasses.replace(hit).cache_digest is None
        hit.finite_solutions.pop()
        assert hit.digest() != hit.cache_digest

    def test_per_node_generator_hit_matches_step_by_step(self, tmp_path):
        # without a constant alphabet each step is matched against the
        # generator's proposals at the trace built so far
        from repro.cache.store import CacheStore

        spec = dfm()
        cand = rhs_guided_candidates([B, C, D], spec)
        cache = CacheStore(tmp_path)
        walked = SmoothSolutionSolver(spec, cand, cache=cache).explore(4)
        hit = SmoothSolutionSolver(spec, cand, cache=cache).explore(4)
        assert cache.counters()["hit"] == 1
        assert hit.digest() == walked.digest()
        assert hit.to_payload() == walked.to_payload()


class TestFragmentGating:
    def test_instrumented_description_stays_on_reference(self):
        # exact-type gating: a Description subclass must not compile,
        # so the memoization-count tests keep seeing their calls
        class Sub(Description):
            pass

        spec = Sub(even_of(chan(D)), chan(B), name="sub")
        assert compile_description(
            spec, alphabet_candidates([B, D])) is None

    def test_lambda_fn_side_stays_on_reference(self):
        spec = Description(
            LambdaFn("opaque", lambda t: t.sequence_on(D),
                     codomain=SEQ_CPO),
            chan(B), name="opaque")
        assert compile_description(
            spec, alphabet_candidates([B, D])) is None

    def test_rhs_guided_candidates_stay_on_reference(self):
        # no constant_events alphabet -> nothing to compile against
        spec = dfm()
        cand = rhs_guided_candidates([B, C, D], spec)
        assert compile_description(spec, cand) is None
        com = SmoothSolutionSolver(spec, cand, compiled=None)
        ref = SmoothSolutionSolver(spec, cand, compiled=False)
        assert com.explore(3).digest() == ref.explore(3).digest()

    def test_compiled_true_raises_outside_fragment(self):
        spec = dfm()
        cand = rhs_guided_candidates([B, C, D], spec)
        s = SmoothSolutionSolver(spec, cand, compiled=True)
        with pytest.raises(ValueError, match="compilable fragment"):
            s.explore(3)

    def test_probe_rejects_a_lying_face(self):
        # a face that disagrees with its op is caught at compile
        # time by the single-event probe, not silently trusted;
        # even_filter is shared module state, so restore it
        lifted = even_of(chan(D))
        original = lifted.op.tuple_face
        lifted.op.tuple_face = lambda t: t  # wrong on purpose
        try:
            spec = Description(lifted, chan(B), name="liar")
            assert compile_description(
                spec, alphabet_candidates([B, D])) is None
        finally:
            lifted.op.tuple_face = original

    def test_auto_detection_defaults_on_for_dfm(self):
        assert compile_description(
            dfm(), alphabet_candidates([B, C, D])) is not None


class TestCompiledRepresentation:
    def test_unhashable_message_stays_on_reference(self):
        # environments are hashed as state-graph keys, so a
        # constant alphabet with an unhashable message must not compile
        u = Channel("u")
        spec = Description(chan(u), const_seq(FiniteSeq(([0],))),
                           name="u ⟵ [0]")

        def candidates(t):
            return [Event(u, [0])]

        candidates.constant_events = (Event(u, [0]),)
        assert compile_description(spec, candidates) is None
        auto = SmoothSolutionSolver(spec, candidates).explore(2)
        ref = SmoothSolutionSolver(spec, candidates,
                                   compiled=False).explore(2)
        assert auto.digest() == ref.digest()

    def test_slots_hold_each_events_own_message(self):
        # 1 == True, so anything keyed by message would merge them;
        # actions and the environment hold each event's own object
        b = Channel("b", alphabet={1})
        c = Channel("c", alphabet={True})
        events = [Event(b, 1), Event(c, True)]
        spec = Description(chan(b), chan(c), name="b ⟵ c")

        def candidates(t):
            return events

        candidates.constant_events = tuple(events)
        compiled = compile_description(spec, candidates)
        assert compiled is not None
        for (cid, message, event), want in zip(compiled.actions,
                                               events):
            assert event is want and message is want.message
            assert cid == compiled.slots[want.channel]
        env = compiled.env_of(events)
        assert env[compiled.slots[b]][0] is events[0].message
        assert env[compiled.slots[c]][0] is True

    def test_root_trace_is_canonical_bottom(self):
        result = solver(True).explore(0)
        assert result.finite_solutions[0] is Trace.empty()


class TestOrderParity:
    """Digests sort their sets, so these pin what they cannot: the
    order of every result list, which ``repro solve`` prints and
    checkpoints serialize."""

    @pytest.mark.parametrize("depth", range(0, 6))
    def test_payload_lists_equal_across_engines(self, depth):
        assert solver(None).explore(depth).to_payload() == \
            solver(False).explore(depth).to_payload()

    @pytest.mark.parametrize("max_nodes", [7, 30, 100, 333])
    def test_truncated_payload_and_checkpoint_equal(self, max_nodes):
        ref = solver(False).explore(5, max_nodes=max_nodes)
        com = solver(None).explore(5, max_nodes=max_nodes)
        assert ref.truncated
        assert com.to_payload() == ref.to_payload()
        assert com.checkpoint().to_dict() == ref.checkpoint().to_dict()
