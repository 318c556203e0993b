"""[PERF] Cost curves of the core operations.

Not a paper artifact — an implementation characterization, so adopters
know what scales how:

* smooth-solution checking is O(|t|) applications of both sides over
  prefixes (each application O(|t|)) — quadratic in trace length;
* projection and channel extraction are linear;
* description combination is O(1) (pairing, no normalization).
"""

import pytest
from conftest import banner, row

from repro.channels import Channel
from repro.core import combine
from repro.functions import chan, even_of
from repro.processes.merge import dfm_descriptions
from repro.traces import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def periodic_solution(length: int) -> Trace:
    block = [(B, 0), (D, 0), (C, 1), (D, 1)]
    events = [block[i % 4] for i in range(length)]
    # truncate to a multiple of the block for quiescence
    cut = length - (length % 4)
    return Trace.from_pairs(events[:cut])


@pytest.mark.parametrize("length", [8, 32, 128])
def test_smooth_check_cost(benchmark, length):
    desc = dfm()
    t = periodic_solution(length)
    ok = benchmark(lambda: desc.is_smooth_solution(
        t, depth=t.length()
    ))
    banner("PERF", f"smooth-solution check, |t| = {t.length()}")
    row("is smooth", ok)
    assert ok


@pytest.mark.parametrize("length", [64, 256, 1024])
def test_projection_cost(benchmark, length):
    t = periodic_solution(length)
    proj = benchmark(lambda: t.project({D}).length())
    banner("PERF", f"projection, |t| = {t.length()}")
    row("events on d", proj)
    assert proj == t.length() // 2


@pytest.mark.parametrize("length", [64, 256, 1024])
def test_channel_sequence_cost(benchmark, length):
    t = periodic_solution(length)
    fn = even_of(chan(D))
    out = benchmark(lambda: len(fn.apply(t)))
    banner("PERF", f"even(d) extraction, |t| = {t.length()}")
    row("length", out)
    assert out == t.length() // 4
