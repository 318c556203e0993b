"""Property evidence: exploration order never changes the answer.

Randomized over depth, node budget, strategy, heuristic and engine,
on both registered scenarios:

* wherever BFS completes, best-first produces the identical
  solution-set digest;
* truncate → checkpoint → resume is digest-equal to the straight run
  for every strategy, not just the BFS loop PR 5 pinned;
* queries agree with enumerate-then-filter under every configuration.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import par
from repro.cache.checkpoint import SolverCheckpoint
from repro.core.search import parse_predicate
from repro.core.solver import SmoothSolutionSolver

SCENARIOS = ("alternating_bit", "dfm")


def solver_for(scenario: str, **kwargs) -> SmoothSolutionSolver:
    """The registered scenario's spec over the channels ``solve``
    explores it on."""
    sc = par.get_scenario(scenario)
    return SmoothSolutionSolver.over_channels(
        sc.spec, sc.solve_channels, **kwargs)


configs = st.fixed_dictionaries({
    "strategy": st.sampled_from(("bfs", "best-first")),
    "heuristic": st.sampled_from(("depth", "rhs-distance")),
    "compiled": st.sampled_from((False, None)),
})


class TestSolutionSetDigests:
    @settings(max_examples=25, deadline=None)
    @given(scenario=st.sampled_from(SCENARIOS),
           depth=st.integers(0, 5), config=configs)
    def test_every_strategy_matches_bfs(self, scenario, depth,
                                        config):
        if scenario == "alternating_bit":
            depth = min(depth, 4)  # the service tree is one chain
        base = solver_for(scenario).explore(depth)
        assert not base.truncated
        got = solver_for(scenario, **config).explore(depth)
        assert got.digest() == base.digest()
        assert got.nodes_explored == base.nodes_explored


class TestTruncateThenResumePerStrategy:
    @settings(max_examples=25, deadline=None)
    @given(budget=st.integers(1, 300), config=configs)
    def test_resume_digest_equals_straight_run(self, budget, config):
        straight = solver_for("dfm").explore(4)
        partial = solver_for("dfm", **config).explore(4, max_nodes=budget)
        if not partial.truncated:
            assert partial.digest() == straight.digest()
            return
        ckpt = SolverCheckpoint.from_json(
            partial.checkpoint().to_json())
        resumed = solver_for("dfm", **config).explore(4, resume_from=ckpt)
        assert not resumed.truncated
        assert resumed.digest() == straight.digest()
        assert resumed.nodes_explored == straight.nodes_explored


class TestQueryAgreement:
    @settings(max_examples=25, deadline=None)
    @given(scenario=st.sampled_from(SCENARIOS),
           text=st.sampled_from(
               ("true", "length >= 2", "on:b >= 1", "on:out >= 1",
                "length >= 99")),
           mode=st.sampled_from(("exists", "all")),
           config=configs)
    def test_query_equals_enumerate_then_filter(self, scenario, text,
                                                mode, config):
        depth = 4
        enumerated = solver_for(scenario).explore(depth)
        assert not enumerated.truncated
        pred = parse_predicate(text)
        matching = [t for t in enumerated.finite_solutions
                    if pred(t)]
        expected = (bool(matching) if mode == "exists"
                    else len(matching)
                    == len(enumerated.finite_solutions))
        answer = solver_for(scenario, **config).query(text, depth,
                                                      mode=mode)
        assert answer.holds is expected
