"""[COV] Oracle-sampling coverage: computations found vs seeds spent.

The paper quantifies over *all* computations; the operational side of
this reproduction samples them through seeded oracles.  This bench
charts the coverage curve — distinct quiescent traces discovered as the
seed budget grows — for the dfm network, and checks it saturates at the
exact denotational count (the solver's finite smooth solutions with the
same input contents), closing the loop between the two semantics.
"""

import pytest
from conftest import banner, row

from repro.channels import Channel
from repro.core import combine, solve
from repro.kahn.agents import dfm_agent, source_agent
from repro.kahn.quiescence import collect_traces
from repro.processes.merge import dfm_descriptions
from repro.seq import fseq

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def network():
    return {
        "env-b": source_agent(B, [0, 2]),
        "env-c": source_agent(C, [1]),
        "dfm": dfm_agent(B, C, D),
    }


def denotational_count():
    """Smooth solutions whose inputs are exactly ⟨0 2⟩ on b, ⟨1⟩ on c."""
    result = solve(dfm(), [B, C, D], max_depth=6)
    return len([
        t for t in result.finite_solutions
        if t.messages_on(B) == fseq(0, 2)
        and t.messages_on(C) == fseq(1)
    ])


@pytest.mark.parametrize("seeds", [5, 20, 80])
def test_coverage_curve(benchmark, seeds):
    def sample():
        got = collect_traces(network, [B, C, D], range(seeds),
                             max_steps=80)
        return len(got.distinct_quiescent())

    distinct = benchmark(sample)
    banner("COV", f"distinct quiescent traces after {seeds} seeds")
    row("distinct computations", distinct)
    assert distinct >= 1


def test_saturation_matches_denotational(benchmark):
    expected = denotational_count()

    def sample():
        got = collect_traces(network, [B, C, D], range(800),
                             max_steps=80)
        return len(got.distinct_quiescent())

    distinct = benchmark(sample)
    banner("COV", "sampling saturates at the denotational count")
    row("solver count (inputs fixed)", expected)
    row("operational distinct traces", distinct)
    assert distinct == expected


def test_exhaustive_equality(benchmark):
    """The exact closing of the loop: enumerate *every* schedule and
    compare trace sets elementwise with the solver's."""
    from repro.kahn.explore import exhaustive_quiescent_traces

    def both_sides():
        operational = exhaustive_quiescent_traces(
            network, [B, C, D], max_steps=60,
        )
        denotational = {
            t for t in solve(dfm(), [B, C, D],
                             max_depth=6).finite_solutions
            if t.messages_on(B) == fseq(0, 2)
            and t.messages_on(C) == fseq(1)
        }
        return operational, denotational

    operational, denotational = benchmark(both_sides)
    banner("COV", "exhaustive schedules: computations = smooth "
                  "solutions (set equality)")
    row("operational traces", len(operational))
    row("denotational solutions", len(denotational))
    row("sets equal", operational == denotational)
    assert operational == denotational
