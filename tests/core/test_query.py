"""The query layer: prune instead of enumerating, agree regardless.

A query's early exit only changes *when* the search stops, never which
nodes are finite smooth solutions — so on every case the enumerating
solver completes, ``exists``/``all`` answers must equal
enumerate-then-filter.  That agreement, the witness certificates, the
node savings the layer exists for, and the textual predicate
mini-language are pinned here.
"""

import pytest

from repro.channels.channel import Channel
from repro.core.description import combine
from repro.core.search import parse_predicate
from repro.core.solver import SmoothSolutionSolver, solve_query
from repro.processes.merge import dfm_descriptions
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def dfm_solver(**kwargs) -> SmoothSolutionSolver:
    return SmoothSolutionSolver.over_channels(dfm(), [B, C, D],
                                              **kwargs)


PREDICATES = ("true", "length >= 2", "on:b >= 1", "on:c == 0",
              "msg:d:3", "length >= 99", "on:b >= 1, on:c >= 1")


class TestAgreesWithEnumerateThenFilter:
    @pytest.mark.parametrize("text", PREDICATES)
    @pytest.mark.parametrize("mode", ["exists", "all"])
    def test_query_equals_filtering_the_enumeration(self, text, mode):
        enumerated = dfm_solver().explore(4)
        assert not enumerated.truncated
        pred = parse_predicate(text)
        matching = [t for t in enumerated.finite_solutions if pred(t)]
        expected = (bool(matching) if mode == "exists"
                    else len(matching)
                    == len(enumerated.finite_solutions))

        for strategy in ("bfs", "best-first"):
            for compiled in (False, None):
                answer = dfm_solver(
                    strategy=strategy,
                    compiled=compiled).query(text, 4, mode=mode)
                assert answer.holds is expected, \
                    (text, mode, strategy, compiled)

    def test_witness_satisfies_the_predicate(self):
        answer = dfm_solver(strategy="best-first").query(
            "on:b >= 1", 4)
        assert answer.holds is True
        assert parse_predicate("on:b >= 1")(answer.witness)

    def test_counterexample_violates_the_predicate(self):
        answer = dfm_solver(strategy="best-first").query(
            "on:b >= 1", 4, mode="all")
        # ε is a smooth solution with no b events
        assert answer.holds is False
        assert not parse_predicate("on:b >= 1")(answer.witness)


class TestCertificates:
    def test_witness_certificate_replays(self):
        solver = dfm_solver(strategy="best-first")
        answer = solver.query("on:b >= 2, length >= 4", 5)
        assert answer.holds is True
        replayed = dfm_solver().replay_witness(answer.certificate)
        assert replayed == answer.witness

    def test_negative_exists_has_no_certificate(self):
        answer = dfm_solver().query("length >= 99", 3)
        assert answer.holds is False
        assert answer.certificate is None
        assert answer.witness is None


class TestPruning:
    def test_exists_expands_fewer_nodes_than_solve(self):
        full = dfm_solver().explore(5)
        answer = dfm_solver(strategy="best-first").query(
            "on:b >= 1", 5)
        assert answer.holds is True
        assert answer.nodes_explored < full.nodes_explored / 10
        assert answer.meta["short_circuited"]

    def test_query_answers_where_solve_truncates(self):
        # the acceptance bar: same node budget, query settles while
        # plain enumeration gives up
        budget = 500
        truncated = dfm_solver().explore(6, max_nodes=budget)
        assert truncated.truncated
        answer = dfm_solver(strategy="best-first").query(
            "on:b >= 2", 6, max_nodes=budget)
        assert answer.holds is True

    def test_unresolved_on_tiny_budget(self):
        answer = dfm_solver(strategy="best-first").query(
            "length >= 99", 5, max_nodes=10)
        assert answer.holds is None
        assert not answer.resolved
        assert answer.witness is None
        assert "unresolved" in answer.describe()

    def test_query_results_never_cached(self, tmp_path):
        from repro.cache.store import CacheStore

        store = CacheStore(tmp_path)
        solver = dfm_solver(strategy="best-first", cache=store)
        answer = solver.query("on:b >= 1", 4)
        assert answer.result.truncation_reason.startswith("query")
        # the early-exited exploration must not poison the store: a
        # fresh solve with the same budgets sees a miss, not a
        # truncated pseudo-result
        fresh = dfm_solver(strategy="best-first",
                           cache=CacheStore(tmp_path)).explore(4)
        assert not fresh.truncated
        assert fresh.digest() == dfm_solver().explore(4).digest()

    def test_query_on_cached_complete_run_still_answers(self,
                                                        tmp_path):
        from repro.cache.store import CacheStore

        store = CacheStore(tmp_path)
        dfm_solver(cache=store).explore(4)  # warm the store
        answer = dfm_solver(cache=CacheStore(tmp_path)).query(
            "on:b >= 1", 4)
        # served from cache: the watch never ran, the answer is
        # settled from the enumerated solutions
        assert answer.holds is True
        assert answer.witness is not None


class TestStateGraph:
    """A textual predicate over a projection-factored description is
    answered on the projection-state graph: each per-channel
    projection state is expanded once (answers, witnesses and state
    counts: ``tests/properties/test_state_graph_query.py``)."""

    @pytest.mark.parametrize("strategy", ["bfs", "best-first"])
    def test_traced_run_counts_revisits(self, strategy):
        from repro.obs import RingBufferSink, Tracer

        tracer = Tracer([RingBufferSink(capacity=100_000)])
        answer = dfm_solver(tracer=tracer, strategy=strategy).query(
            "length <= 4", 4, mode="all")
        counters = answer.result.profile["counters"]
        # every admitted child was pushed once or dropped as a revisit
        admitted = answer.result.metrics["solver.candidates_proposed"] \
            - answer.result.metrics["solver.candidates_pruned"]
        pushed = counters[f"strategy.{strategy}.pushed"]
        assert pushed == answer.nodes_explored
        assert counters["states.revisits"] == admitted - (pushed - 1)
        assert counters["states.revisits"] > 0

    def test_state_graph_query_writes_no_cache_entry(self, tmp_path):
        from repro.cache.store import CacheStore

        store = CacheStore(tmp_path)
        answer = dfm_solver(cache=store).query("length <= 4", 4,
                                               mode="all")
        assert answer.holds is True
        assert not answer.result.truncated
        assert answer.result.strategy_meta == {"graph": "states"}
        assert store.stats()["total_entries"] == 0
        # the store still serves the tree: a later explore misses,
        # enumerates and writes the tree's digest
        fresh = dfm_solver(cache=CacheStore(tmp_path)).explore(4)
        assert fresh.digest() == dfm_solver().explore(4).digest()
        assert CacheStore(tmp_path).stats()["total_entries"] == 1

    def test_cached_tree_answers_as_a_tree(self, tmp_path):
        from repro.cache.store import CacheStore

        store = CacheStore(tmp_path)
        tree = dfm_solver(cache=store).explore(4)
        answer = dfm_solver(cache=CacheStore(tmp_path)).query(
            "length <= 4", 4, mode="all")
        assert answer.holds is True
        assert answer.meta["graph"] == "tree"
        assert answer.nodes_explored == tree.nodes_explored

    def test_checkpoint_resumes_only_as_a_state_graph_query(self):
        straight = dfm_solver().query("length >= 99", 4)
        assert straight.holds is False
        partial = dfm_solver().query("length >= 99", 4, max_nodes=40)
        assert partial.holds is None
        checkpoint = partial.result.checkpoint()
        assert checkpoint.meta == {"graph": "states"}
        with pytest.raises(ValueError, match="projection-state graph"):
            dfm_solver().explore(4, resume_from=checkpoint)
        with pytest.raises(ValueError, match="projection-state graph"):
            dfm_solver().query(lambda t: t.length() >= 99, 4,
                               resume_from=checkpoint)
        resumed = dfm_solver().query("length >= 99", 4,
                                     resume_from=checkpoint)
        assert resumed.holds is straight.holds
        assert resumed.meta["graph"] == "states"

    def test_resumed_state_graph_query_finds_the_witness(self):
        straight = dfm_solver().query("on:b >= 1, on:c >= 1", 4)
        assert straight.holds is True
        partial = dfm_solver().query("on:b >= 1, on:c >= 1", 4,
                                     max_nodes=20)
        assert partial.holds is None
        resumed = dfm_solver().query(
            "on:b >= 1, on:c >= 1", 4,
            resume_from=partial.result.checkpoint())
        assert resumed.holds is True
        assert dfm_solver().replay_witness(resumed.certificate) \
            == resumed.witness

    def test_tree_walk_checkpoint_resumes_as_a_state_graph_query(self):
        partial = dfm_solver().explore(4, max_nodes=40)
        assert partial.truncated
        resumed = dfm_solver().query("length >= 99", 4,
                                     resume_from=partial.checkpoint())
        assert resumed.holds is False
        assert resumed.meta["graph"] == "states"


class TestPredicateLanguage:
    def test_clauses(self):
        t = Trace.from_pairs([(B, 0), (D, 0), (C, 1)])
        cases = [
            ("true", True),
            ("length == 3", True),
            ("length < 3", False),
            ("on:b >= 1", True),
            ("on:c != 0", True),
            ("on:d = 1", True),
            ("msg:d:0", True),
            ("msg:d:7", False),
            ("on:b >= 1, length <= 2", False),
        ]
        for text, expected in cases:
            assert parse_predicate(text)(t) is expected, text

    def test_source_attribute_round_trips(self):
        pred = parse_predicate(" on:b >= 1 ,  length <= 4 ")
        assert pred.source == "on:b >= 1, length <= 4"

    def test_channels_attribute_names_the_mentioned_channels(self):
        pred = parse_predicate("on:b >= 1, msg:d:2, length <= 4, true")
        assert pred.channels == {"b", "d"}

    @pytest.mark.parametrize("junk", [
        "", "   ", "garbage", "length >>= 3", "length <= x",
        "msg:", "msg:d", "on: >= 1",
    ])
    def test_junk_rejected_with_grammar(self, junk):
        with pytest.raises(ValueError, match="clause|predicate"):
            parse_predicate(junk)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            dfm_solver().query("true", 3, mode="some")

    def test_callable_predicates_accepted(self):
        answer = dfm_solver().query(
            lambda t: t.length() == 0, 3)
        assert answer.holds is True
        assert answer.witness == Trace.empty()


class TestModuleLevelHelper:
    def test_solve_query_defaults_to_best_first(self):
        answer = solve_query(dfm(), [B, C, D], "on:b >= 1", 4)
        assert answer.holds is True
        assert answer.strategy == "best-first"
