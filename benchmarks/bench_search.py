"""[EXT] Search strategies and the query layer vs full enumeration.

The ROADMAP's "solver that survives depth" item, cashed in: pluggable
exploration order (best-first) and a query API that stops at the first
witness or counterexample instead of enumerating the whole §3.3 tree
(see :mod:`repro.core.search`), walking the graph of the paper's
per-channel projection states where the question allows.

The speedup rows are refused unless the correctness bar holds: every
strategy's solution-set digest equals BFS wherever BFS completes, and
the query answers a question — under the *same node budget* — at a
depth where plain enumeration gives up truncated.
"""

import gc
import os
import time

from conftest import banner, row

from repro.channels.channel import Channel
from repro.core.description import combine
from repro.core.search import parse_predicate
from repro.core.solver import SmoothSolutionSolver
from repro.processes.merge import dfm_descriptions

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})

#: the query must settle in at most this fraction of the enumeration's
#: node count (measured ~0.002 on the CI runner; floor is generous)
MAX_NODE_RATIO = float(os.environ.get("QUERY_MAX_NODE_RATIO", "0.1"))

QUERY_DEPTH = int(os.environ.get("SOLVER_QUERY_DEPTH", "7"))
NODE_BUDGET = 2000
PREDICATE = "on:b >= 2"


def _dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def _solver(**kwargs):
    return SmoothSolutionSolver.over_channels(_dfm(), [B, C, D],
                                              **kwargs)


def _best_of(fn, repeats=5):
    best = float("inf")
    result = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return result, best


def test_strategies_match_bfs_digest():
    """Correctness bar behind every other row: best-first reproduces
    the BFS solution-set digest wherever BFS completes, on both
    engines."""
    depth = 5
    base = _solver().explore(depth)
    assert not base.truncated
    checked = 0
    for compiled in (False, None):
        got = _solver(strategy="best-first",
                      compiled=compiled).explore(depth)
        assert got.digest() == base.digest(), compiled
        assert got.nodes_explored == base.nodes_explored
        checked += 1
    banner("EXT-SEARCH",
           "exploration order never changes the solution set")
    row("equivalence depth", depth)
    row("strategy/engine combos digest-equal", checked)


def test_query_answers_where_enumeration_truncates(benchmark):
    """The acceptance bar: under one shared node budget, ``solve``
    truncates at the benchmark depth while ``query`` settles the
    existence question with a replayable witness — in a small
    fraction of the nodes full enumeration needs."""
    truncated = _solver().explore(QUERY_DEPTH, max_nodes=NODE_BUDGET)
    assert truncated.truncated, (
        f"depth {QUERY_DEPTH} no longer truncates at "
        f"{NODE_BUDGET} nodes; raise SOLVER_QUERY_DEPTH")

    def ask():
        return _solver(strategy="best-first").query(
            PREDICATE, QUERY_DEPTH, max_nodes=NODE_BUDGET)

    answer = benchmark(ask)
    assert answer.holds is True
    assert answer.certificate is not None
    replayed = _solver().replay_witness(answer.certificate)
    assert replayed == answer.witness

    # a completing depth gives the honest ratio/speedup comparison:
    # the same question, answered by pruning vs by enumerating
    full_depth = 6
    full, full_s = _best_of(
        lambda: _solver().explore(full_depth), repeats=3)
    assert not full.truncated
    settled, query_s = _best_of(
        lambda: _solver(strategy="best-first").query(
            PREDICATE, full_depth))
    assert settled.holds is True
    ratio = settled.nodes_explored / full.nodes_explored
    speedup = full_s / query_s if query_s > 0 else 0.0

    banner("EXT-SEARCH",
           "query prunes instead of enumerating (§3.3 witness paths)")
    row("depth", QUERY_DEPTH)
    row("node budget", NODE_BUDGET)
    row("solve truncated at budget", True)
    row("query nodes at budget", answer.nodes_explored)
    row("enumeration nodes (full run)", full.nodes_explored)
    row("query node ratio", round(ratio, 4))
    row("query early-exit speedup", round(speedup, 2))
    row("witness replays", True)
    assert ratio <= MAX_NODE_RATIO, (
        f"query explored {ratio:.1%} of the enumeration's nodes; "
        f"ceiling is {MAX_NODE_RATIO:.0%}")
    assert speedup >= 1.0


def test_state_graph_full_enumeration():
    """A question only a full enumeration settles, asked both ways:
    the tree walk expands every node of dfm's depth-6 tree, the
    projection-state graph each per-channel projection state once.
    Both answer as enumerate-then-filter does.  The rows are
    untracked: the counts are pinned by the tests, and the time ratio
    is one more wall-clock reading."""
    depth, text = 6, "length <= 6"
    predicate = parse_predicate(text)
    tree, tree_s = _best_of(
        lambda: _solver(strategy="best-first").query(
            lambda t: predicate(t), depth, mode="all"), repeats=3)
    graph, graph_s = _best_of(
        lambda: _solver(strategy="best-first").query(
            text, depth, mode="all"), repeats=3)
    expected = all(predicate(t) for t in _solver().explore(
        depth).finite_solutions)
    assert tree.meta["graph"] == "tree"
    assert graph.meta["graph"] == "states"
    assert tree.holds is graph.holds is expected
    assert not tree.meta["short_circuited"]
    assert not graph.meta["short_circuited"]
    assert graph.nodes_explored < tree.nodes_explored
    banner("EXT-SEARCH",
           "a full-enumeration query expands each projection state "
           "once")
    row("question", f"all {text!r}, depth {depth}")
    row("tree nodes (tree walk)", tree.nodes_explored)
    row("projection states explored", graph.nodes_explored)
    row("state-graph ms", round(graph_s * 1e3, 2))
    row("tree-walk ms", round(tree_s * 1e3, 2))
    row("state-graph speedup", round(tree_s / graph_s, 2))
