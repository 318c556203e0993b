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

        for strategy in ("bfs", "best-first", "iterative-deepening"):
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
