"""The search-strategy layer: every exploration order, same answers.

Strategies *reorder* the §3.3 exploration — they never change which
nodes are admissible, how a node classifies, or what the solution set
is.  These tests pin that contract deterministically (the hypothesis
sweep lives in ``tests/properties/test_strategy_equivalence.py``):

* best-first matches the BFS digest on both engines, under every
  heuristic;
* a traced best-first walk counts its pushes and pops;
* the satellite bugfixes stay fixed — stable alphabet ordering with a
  loud rejection of repr-less messages, and ``_dedup`` keeping
  ``True``/``1``/``1.0`` apart.
"""

import pytest

from repro.channels.channel import Channel
from repro.core.description import combine
from repro.core.search import get_heuristic, rhs_distance
from repro.core.solver import (
    SmoothSolutionSolver,
    _dedup,
    alphabet_candidates,
)
from repro.processes.merge import dfm_descriptions

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})

STRATEGIES = ("bfs", "best-first")
HEURISTICS = ("depth", "rhs-distance")


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def dfm_solver(**kwargs) -> SmoothSolutionSolver:
    return SmoothSolutionSolver.over_channels(dfm(), [B, C, D],
                                              **kwargs)


class TestCrossStrategyDigests:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("compiled", [False, None])
    def test_digest_equals_bfs_at_every_depth(self, strategy,
                                              compiled):
        for depth in (0, 1, 2, 3, 4):
            base = dfm_solver().explore(depth)
            got = dfm_solver(strategy=strategy,
                             compiled=compiled).explore(depth)
            assert got.digest() == base.digest(), f"depth {depth}"
            assert got.nodes_explored == base.nodes_explored

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_every_heuristic_finds_the_same_solutions(self, heuristic):
        base = dfm_solver().explore(4)
        for compiled in (False, None):
            got = dfm_solver(strategy="best-first",
                             heuristic=heuristic,
                             compiled=compiled).explore(4)
            assert got.digest() == base.digest(), heuristic

    @pytest.mark.parametrize("compiled", [False, None])
    def test_truncated_best_first_identical_across_engines(
            self, compiled):
        # rank features are engine-neutral integers, so even the
        # *parked* sets agree — not just completed runs
        ref = dfm_solver(strategy="best-first",
                         compiled=False).explore(4, max_nodes=60)
        other = dfm_solver(strategy="best-first",
                           compiled=compiled).explore(4, max_nodes=60)
        assert ref.truncated and other.truncated
        assert other.digest() == ref.digest()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            dfm_solver(strategy="depth-first")

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError, match="heuristic"):
            dfm_solver(heuristic="oracle")


class TestStrategyCounters:
    def test_strategy_counters_exposed(self):
        from repro.obs import RingBufferSink, Tracer

        tracer = Tracer([RingBufferSink(capacity=100_000)])
        result = dfm_solver(strategy="best-first",
                            tracer=tracer).explore(3)
        counters = result.profile["counters"]
        assert counters["strategy.best-first.popped"] == \
            result.nodes_explored
        assert counters["strategy.best-first.pushed"] >= \
            result.nodes_explored


class TestDeepeningCheckpointGuard:
    def test_deepening_checkpoint_is_refused(self):
        # earlier versions also walked by iterative deepening, whose
        # checkpoints park nodes already classified; no walk here may
        # resume one, since it would count those nodes twice
        ckpt = dfm_solver().explore(4, max_nodes=50).checkpoint().to_dict()
        ckpt["meta"] = {"strategy": "iterative-deepening",
                        "iteration": 3, "tested": []}
        for strategy in STRATEGIES:
            with pytest.raises(ValueError, match="iterative-deepening"):
                dfm_solver(strategy=strategy).explore(4, resume_from=ckpt)

    def test_bfs_checkpoint_resumable_by_any_strategy(self):
        straight = dfm_solver().explore(4)
        partial = dfm_solver().explore(4, max_nodes=50)
        for strategy in STRATEGIES:
            resumed = dfm_solver(strategy=strategy).explore(
                4, resume_from=partial.checkpoint())
            assert resumed.digest() == straight.digest(), strategy


class TestStableAlphabetOrdering:
    def test_historical_int_order_preserved(self):
        # the (type name, repr) key must not reorder existing
        # all-int alphabets — committed digests depend on it
        candidates = alphabet_candidates([B, C, D])
        messages = [e.message for e in candidates.constant_events
                    if e.channel.name == "d"]
        assert messages == [0, 1, 2, 3]

    def test_repr_less_messages_rejected(self):
        class Token:  # inherits object.__repr__: address-dependent
            pass

        ch = Channel("t", alphabet={Token(), Token()})
        with pytest.raises(ValueError, match="deterministic repr"):
            alphabet_candidates([ch])

    def test_mixed_type_alphabet_orders_by_type_then_repr(self):
        ch = Channel("m", alphabet={2, "a", 1, "b"})
        candidates = alphabet_candidates([ch])
        assert [e.message for e in candidates.constant_events] == \
            [1, 2, "a", "b"]


class TestMessageDedup:
    def test_equal_but_distinct_types_survive(self):
        assert _dedup([True, 1, 1.0]) == [True, 1, 1.0]

    def test_same_type_duplicates_collapse(self):
        assert _dedup([1, 2, 1, 2, 3]) == [1, 2, 3]

    def test_unhashable_fallback_respects_types(self):
        a, b = [1], (1,)

        class L(list):
            pass

        assert _dedup([a, b, L([1]), [1]]) == [a, b, L([1])]


class TestHeuristicFeatures:
    def test_rhs_distance_zero_iff_lengths_match(self):
        assert rhs_distance((2, 3), (2, 3)) == 0
        assert rhs_distance((2,), (2, 3)) == 3
        assert rhs_distance((5,), (2,)) == 3

    def test_heuristic_lookup(self):
        assert get_heuristic("depth").name == "depth"
        with pytest.raises(ValueError, match="unknown heuristic"):
            get_heuristic("nope")
