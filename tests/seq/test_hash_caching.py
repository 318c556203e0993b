"""Cached hashes on ``FiniteSeq``/``Trace`` — compute once, pickle never.

The solver keys traces in dicts and sets, so every node's hash used
to be recomputed on each lookup.  Both classes now
memoize ``__hash__`` in a ``_hash`` slot; these tests pin that the
memo (a) actually short-circuits element hashing, (b) survives the
frozen-``__setattr__`` guard, and (c) never travels through pickle —
a cached hash from another process is wrong under Python's per-process
hash randomization.
"""

import pickle

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.seq.finite import FiniteSeq
from repro.traces.trace import Trace

B = Channel("b")


class CountingMessage:
    """A message whose ``__hash__`` calls are observable."""

    hash_calls = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        type(self).hash_calls += 1
        return hash(("counting", self.value))

    def __eq__(self, other):
        return (isinstance(other, CountingMessage)
                and self.value == other.value)

    def __repr__(self):
        return f"CountingMessage({self.value!r})"


class TestFiniteSeqHashCache:
    def test_second_hash_does_no_element_work(self):
        CountingMessage.hash_calls = 0
        s = FiniteSeq(tuple(CountingMessage(i) for i in range(5)))
        h1 = hash(s)
        first_pass = CountingMessage.hash_calls
        assert first_pass >= 5
        h2 = hash(s)
        assert h2 == h1
        assert CountingMessage.hash_calls == first_pass

    def test_take_full_length_shares_the_cache(self):
        CountingMessage.hash_calls = 0
        s = FiniteSeq(tuple(CountingMessage(i) for i in range(4)))
        hash(s)
        calls = CountingMessage.hash_calls
        # take(n >= len) returns self, so its hash is already cached
        assert hash(s.take(10)) == hash(s)
        assert CountingMessage.hash_calls == calls

    def test_frozen_guard_still_rejects_mutation(self):
        s = FiniteSeq((1, 2))
        hash(s)
        try:
            s.items = (3,)
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("FiniteSeq should stay frozen")

    def test_pickle_drops_the_cached_hash(self):
        s = FiniteSeq((1, 2, 3))
        hash(s)
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        assert clone._hash is None
        assert hash(clone) == hash(s)  # same process: same result

    def test_from_tuple_equals_constructor(self):
        assert FiniteSeq.from_tuple((1, 2)) == FiniteSeq((1, 2))
        assert hash(FiniteSeq.from_tuple((1, 2))) == \
            hash(FiniteSeq((1, 2)))


class TestTraceHashCache:
    def _trace(self, n=4):
        return Trace.finite(
            [Event(B, CountingMessage(i)) for i in range(n)])

    def test_second_hash_does_no_element_work(self):
        t = self._trace()
        CountingMessage.hash_calls = 0
        h1 = hash(t)
        first_pass = CountingMessage.hash_calls
        assert first_pass >= 4
        assert hash(t) == h1
        assert CountingMessage.hash_calls == first_pass

    def test_equal_traces_equal_hashes(self):
        assert hash(self._trace()) == hash(self._trace())

    def test_name_does_not_enter_the_hash(self):
        a = Trace.finite([Event(B, 1)], name="a")
        b = Trace.finite([Event(B, 1)], name="b")
        assert a == b
        assert hash(a) == hash(b)

    def test_pickle_drops_the_cached_hash(self):
        t = Trace.finite([Event(B, 1), Event(B, 2)], name="t")
        hash(t)
        clone = pickle.loads(pickle.dumps(t))
        assert clone == t
        assert clone.name == t.name
        assert clone._hash is None
        assert hash(clone) == hash(t)

    def test_digest_unchanged_by_hash_caching(self):
        # the canonical JSON key (what digests are built from) sees
        # events only, never the memo slot
        from repro.core.solver import _trace_key

        t = self._trace()
        before = _trace_key(t)
        hash(t)
        assert _trace_key(t) == before
