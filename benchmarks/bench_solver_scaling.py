"""[S33] §3.3: the smooth-solution tree search — growth behaviour.

The generalization of Kleene iteration from a chain to a tree has a
cost: the tree's width is governed by how much nondeterminism the
description leaves open.  These benches measure the growth for three
archetypes:

* CHAOS — maximal branching (every event admissible everywhere);
* dfm — input events always admissible, outputs only when justified;
* Ticks — a single path (deterministic): the tree *is* the Kleene chain.
"""

import pytest
from conftest import banner, row

from repro.channels import Channel
from repro.core import Description, SmoothSolutionSolver, combine
from repro.functions import chan, prepend_of
from repro.functions.base import const_seq
from repro.processes.merge import dfm_descriptions
from repro.seq import fseq

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})
T = Channel("t", alphabet={"T"})


def chaos_solver():
    k = const_seq(fseq())
    return SmoothSolutionSolver.over_channels(
        Description(k, k, name="K ⟵ K"), [B]
    )


def dfm_solver():
    desc = combine(dfm_descriptions(B, C, D), name="dfm")
    return SmoothSolutionSolver.over_channels(desc, [B, C, D])


def ticks_solver():
    return SmoothSolutionSolver.over_channels(
        Description(chan(T), prepend_of("T", chan(T))), [T]
    )


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_chaos_growth(benchmark, depth):
    solver = chaos_solver()
    result = benchmark(lambda: solver.explore(depth))
    banner("S33", f"CHAOS tree at depth {depth}: full branching")
    row("nodes", result.nodes_explored)
    row("solutions", len(result.finite_solutions))
    # 2-letter alphabet: complete binary-ish tree
    assert len(result.finite_solutions) == 2 ** (depth + 1) - 1


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_dfm_growth(benchmark, depth):
    solver = dfm_solver()
    result = benchmark(lambda: solver.explore(depth))
    banner("S33", f"dfm tree at depth {depth}: justified outputs only")
    row("nodes", result.nodes_explored)
    row("solutions", len(result.finite_solutions))
    assert result.nodes_explored > 0


@pytest.mark.parametrize("depth", [8, 32, 64])
def test_ticks_is_a_chain(benchmark, depth):
    solver = ticks_solver()
    result = benchmark(lambda: solver.explore(depth))
    banner("S33", f"Ticks tree at depth {depth}: a single path "
                  "(= Kleene chain)")
    row("nodes (expect depth+1)", result.nodes_explored)
    assert result.nodes_explored == depth + 1
    assert len(result.frontier) == 1


def test_branching_comparison(benchmark):
    def widths():
        return {
            "CHAOS": chaos_solver().explore(5).nodes_explored,
            "dfm": dfm_solver().explore(5).nodes_explored,
            "Ticks": ticks_solver().explore(5).nodes_explored,
        }

    result = benchmark(widths)
    banner("S33", "tree width at depth 5, by nondeterminism")
    for name, nodes in result.items():
        row(name, nodes)
    assert result["Ticks"] < result["CHAOS"] < result["dfm"]
