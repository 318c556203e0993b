"""The result digest and payloads against the key lists they encode.

``SolverResult.digest()`` writes the canonical JSON of its payload
from one fragment per distinct event; it never builds the
``[[channel name, repr(message)], …]`` trace keys.  The oracle here
is that list form, rebuilt in this file as the digest was first
defined: the digest must equal ``stable_digest`` of it, and
``to_payload()`` and ``checkpoint()`` must serialize to the same JSON
as payloads built from the lists.

The cases aim at the places a fragment-built digest can go wrong:
channel names whose JSON strings sort differently from the strings
themselves, messages whose ``repr`` needs JSON escapes, equal events
that ``repr`` differently, the empty trace, every bucket, and results
whose traces mix Event objects from different solvers.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.checkpoint import SolverCheckpoint
from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.solver import SmoothSolutionSolver, SolverResult
from repro.obs.recorder import stable_digest
from repro.processes import merge
from repro.traces.trace import Trace

BUCKETS = ("finite_solutions", "frontier", "dead_ends", "unvisited")


def key(trace):
    return [[e.channel.name, repr(e.message)] for e in trace]


def oracle_digest(result):
    payload = {b: sorted(key(t) for t in getattr(result, b))
               for b in BUCKETS}
    payload.update(nodes_explored=result.nodes_explored,
                   depth=result.depth, truncated=result.truncated)
    return stable_digest(payload)


def oracle_payload(result):
    payload = {b: [key(t) for t in getattr(result, b)] for b in BUCKETS}
    payload.update(
        nodes_explored=result.nodes_explored, depth=result.depth,
        truncated=result.truncated,
        truncation_reason=result.truncation_reason,
        limit_depth=result.limit_depth,
        description_name=result.description_name,
        digest=oracle_digest(result))
    return payload


def oracle_checkpoint(result):
    return SolverCheckpoint(
        description=result.description_name, depth=result.depth,
        limit_depth=result.limit_depth,
        nodes_explored=result.nodes_explored,
        truncation_reason=result.truncation_reason,
        meta=dict(result.strategy_meta),
        **{b: [key(t) for t in getattr(result, b)] for b in BUCKETS})


def assert_matches_oracle(result):
    assert result.digest() == oracle_digest(result)
    # insertion order too: the cache writes the payload as it stands
    assert json.dumps(result.to_payload()) == \
        json.dumps(oracle_payload(result))
    assert result.checkpoint().to_json() == \
        oracle_checkpoint(result).to_json()


# -- hand-built results -------------------------------------------------------

A, A_SP = Channel("a"), Channel("a ")
B, B_BANG = Channel("b"), Channel("b!")
NAMED = [Event(ch, m) for ch in (A, A_SP, B, B_BANG) for m in (0, 1)]

MESSAGES = ['say "hi"', "back\\slash", "two\nlines", "tab\there",
            "naïve", "∀x", "\U0001d11e", ("q\"", 1), b"\x00\xff",
            1, True, 1.0, None]
Q = Channel("q")
ESCAPED = [Event(Q, m) for m in MESSAGES]


def result_of(buckets, nodes=7, depth=3, truncated=False):
    result = SolverResult(nodes_explored=nodes, depth=depth,
                          truncated=truncated,
                          truncation_reason="node budget (7)"
                          if truncated else "",
                          limit_depth=5, description_name="hand-built")
    for bucket, traces in buckets.items():
        getattr(result, bucket).extend(Trace.finite(t) for t in traces)
    return result


class TestKeyOrder:
    def test_names_whose_json_order_differs(self):
        traces = [[e] for e in NAMED] + [[NAMED[0], NAMED[6]],
                                         [NAMED[2], NAMED[4]]]
        keys = [key(Trace.finite(t)) for t in traces]
        # the trap: sorting the JSON strings is not sorting the lists
        assert sorted(keys) != sorted(
            keys, key=lambda k: json.dumps(k, separators=(",", ":")))
        for bucket in BUCKETS:
            assert_matches_oracle(result_of({bucket: traces}))

    def test_prefix_sorts_first(self):
        a0, a1 = NAMED[0], NAMED[1]
        traces = [[a0, a1, a0], [a0], [a0, a1], [a1], []]
        assert_matches_oracle(result_of({"frontier": traces}))


class TestEscapes:
    def test_messages_needing_json_escapes(self):
        traces = [[e] for e in ESCAPED] + [ESCAPED[::-1], ESCAPED[:4]]
        assert_matches_oracle(result_of({"finite_solutions": traces}))

    def test_equal_events_with_different_reprs(self):
        # 1 == True == 1.0, but each repr is its own key
        one, true, real = (Event(Q, m) for m in (1, True, 1.0))
        assert one == true == real
        traces = [[true], [one], [real], [one, true], [true, one]]
        assert_matches_oracle(result_of({"dead_ends": traces}))


class TestBuckets:
    def test_empty_result(self):
        assert_matches_oracle(result_of({}, nodes=0, depth=0))

    def test_empty_trace_in_every_bucket(self):
        assert_matches_oracle(result_of({b: [[]] for b in BUCKETS}))

    def test_all_four_buckets_truncated(self):
        result = result_of({
            "finite_solutions": [[], [NAMED[0]]],
            "frontier": [[NAMED[1], ESCAPED[0]]],
            "dead_ends": [[ESCAPED[2]], [ESCAPED[2]]],
            "unvisited": [[NAMED[3], NAMED[5]], [NAMED[4]]],
        }, truncated=True)
        assert_matches_oracle(result)

    def test_bucket_order_kept_in_payloads(self):
        traces = [[NAMED[5]], [NAMED[0]], [NAMED[3]]]
        payload = result_of({"frontier": traces}).to_payload()
        assert payload["frontier"] == [key(Trace.finite(t))
                                       for t in traces]


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({
    b: st.lists(st.lists(st.sampled_from(NAMED + ESCAPED), max_size=5),
                max_size=6) for b in BUCKETS}),
    st.integers(0, 10_000), st.integers(0, 12), st.booleans())
def test_random_results_match_the_oracle(buckets, nodes, depth,
                                         truncated):
    assert_matches_oracle(result_of(buckets, nodes, depth, truncated))


# -- solver results -----------------------------------------------------------

def fresh_event_candidates(events):
    """A candidate generator that builds new Event objects on every
    call: equal name and repr, never the same object."""
    def candidates(u):
        return [Event(e.channel, e.message) for e in events]
    return candidates


class TestSolverResults:
    @pytest.mark.parametrize("compiled", [False, None])
    def test_truncated_result_with_unvisited(self, compiled):
        dfm = merge.make_dfm()
        proto = dfm.solver()
        part = SmoothSolutionSolver(
            proto.description, proto.candidates,
            compiled=compiled).explore(2, max_nodes=40)
        assert part.truncated and part.unvisited and part.frontier
        assert_matches_oracle(part)

    def test_resumed_run_with_rebuilt_events(self):
        dfm = merge.make_dfm()
        proto = dfm.solver()
        alphabet = proto.candidates.constant_events
        full = proto.explore(4)
        part = proto.explore(4, max_nodes=37)
        resumer = SmoothSolutionSolver(
            proto.description, fresh_event_candidates(alphabet))
        resumed = resumer.explore(4, resume_from=part.checkpoint())
        assert resumed.digest() == full.digest()
        assert_matches_oracle(resumed)
        # rebuilt events beside the alphabet's own: equal name and
        # repr, other objects
        resumed.frontier.extend(full.frontier[:50])
        resumed.unvisited.extend(part.unvisited)
        ids = {id(e) for t in resumed.frontier for e in t}
        assert not ids <= {id(e) for e in alphabet}
        assert ids & {id(e) for e in alphabet}
        assert_matches_oracle(resumed)
