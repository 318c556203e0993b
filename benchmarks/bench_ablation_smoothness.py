"""[ABL] Ablation: what does the smoothness condition buy?

The paper's design choice is to add smoothness on top of the limit
condition.  This ablation quantifies it:

* **limit-only vs smooth** — over all traces of bounded length, how
  many equation solutions are spurious (no computation realizes them)?
  Without smoothness the Brock–Ackermann network has 2 'behaviours';
  with it, 1 — and the gap grows with trace length for dfm-style
  descriptions.
* **depth sensitivity** — bounded limit checking on lazy traces: the
  verdicts for the §2.3 sequences are stable across checking depths
  (i.e. the chosen default depth is not doing the work).
"""

import itertools

import pytest
from conftest import banner, row

from repro.anomaly import (
    candidate_sequences,
    channels,
    combined_description,
    eliminated_system,
    solves_equations,
    trace_of_output,
)
from repro.channels import Channel, Event
from repro.core import combine
from repro.processes.deterministic import doubling_descriptions
from repro.processes.merge import dfm_descriptions
from repro.seq import misra_x, misra_z
from repro.traces import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


@pytest.mark.parametrize("length", [2, 4])
def test_limit_only_overcounts(benchmark, length):
    desc = dfm()
    events = [Event(B, 0), Event(B, 2), Event(C, 1), Event(C, 3),
              Event(D, 0), Event(D, 1), Event(D, 2), Event(D, 3)]

    def census():
        limit_only = 0
        smooth = 0
        for combo in itertools.product(events, repeat=length):
            t = Trace.finite(combo)
            if desc.limit_holds(t):
                limit_only += 1
                if desc.smoothness_holds(t):
                    smooth += 1
        return limit_only, smooth

    limit_only, smooth = benchmark(census)
    banner("ABL", f"dfm, traces of length {length}: "
                  "equation solutions vs smooth solutions")
    row("limit condition only", limit_only)
    row("limit + smoothness", smooth)
    row("spurious (no computation)", limit_only - smooth)
    # odd lengths have no solutions at all (outputs must balance
    # inputs), so the even lengths carry the comparison
    assert smooth <= limit_only
    if length >= 4:
        assert smooth < limit_only  # smoothness does real work


def test_brock_ackermann_ablation(benchmark):
    b, c = channels()
    system = eliminated_system(b, c)
    desc = combined_description(b, c)

    def census():
        solutions = [
            s for s in candidate_sequences()
            if solves_equations(c, s, system)
        ]
        smooth = [
            s for s in solutions
            if desc.is_smooth_solution(trace_of_output(c, s))
        ]
        return len(solutions), len(smooth)

    n_solutions, n_smooth = benchmark(census)
    banner("ABL", "Brock–Ackermann: behaviours admitted by each "
                  "semantics")
    row("history-insensitive (limit only)", n_solutions)
    row("with smoothness", n_smooth)
    assert (n_solutions, n_smooth) == (2, 1)


@pytest.mark.parametrize("depth", [16, 32, 64])
def test_depth_sensitivity(benchmark, depth):
    d = Channel("d")
    desc = combine(doubling_descriptions(d), name="fig3")

    def d_trace(seq):
        def gen():
            i = 0
            while True:
                try:
                    yield Event(d, seq.item(i))
                except IndexError:
                    return
                i += 1

        return Trace.lazy(gen())

    def verdicts():
        x = desc.check(d_trace(misra_x()), depth=depth)
        z = desc.check(d_trace(misra_z()), depth=depth)
        return x.is_smooth, z.is_solution, z.is_smooth

    x_smooth, z_solution, z_smooth = benchmark(verdicts)
    banner("ABL", f"§2.3 verdicts at checking depth {depth}")
    row("x smooth", x_smooth)
    row("z solves / smooth", f"{z_solution} / {z_smooth}")
    assert x_smooth and z_solution and not z_smooth
