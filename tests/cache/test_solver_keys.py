"""The solver result cache keys a walk by its candidate generator's
published ``cache_key``: a generator without one never shares an
entry, because nothing tells two such generators apart."""

from repro.cache.store import CacheStore
from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import Description
from repro.core.solver import SmoothSolutionSolver
from repro.functions import chan

B = Channel("b", alphabet={0, 1})
C = Channel("c", alphabet={0, 1})


def make_gen(messages):
    """Closures from one factory: same module and qualname, different
    events, and no ``cache_key``."""
    events = [Event(ch, m) for ch in (B, C) for m in messages]

    def gen(u):
        return events

    return gen


def test_opaque_generators_share_no_cache_entry(tmp_path):
    spec = Description(chan(C), chan(B))
    store = CacheStore(tmp_path)
    narrow = SmoothSolutionSolver(spec, make_gen([0]),
                                  cache=store).explore(3)
    assert (narrow.nodes_explored, len(narrow.finite_solutions)) == (7, 2)
    wide = SmoothSolutionSolver(spec, make_gen([0, 1]),
                                cache=store).explore(3)
    # the wider generator walks its own tree instead of being served
    # the narrow one's result
    assert (wide.nodes_explored, len(wide.finite_solutions)) == (25, 3)
    assert store.counters() == {"hit": 0, "miss": 0, "write": 0,
                                "evict": 0}
