"""Regression tests for the §3.3 solver's hot-path discipline.

The solver once evaluated ``g(u)`` (and the limit condition's side
values) several times per node: once inside ``limit_holds``, once to
expand the children, and once more for the frontier probe at the depth
bound.  These tests pin the fixed behaviour with an *instrumented
description* that counts every ``apply`` — per explored node the right
side must be evaluated exactly once and the limit condition checked
exactly once — and verify against a naive reference explorer (the old
algorithm, spelled out below) that the result digest is unchanged.
"""

from repro.channels.channel import Channel
from repro.core.description import Description, combine
from repro.core.solver import SmoothSolutionSolver, SolverResult
from repro.processes.merge import dfm_descriptions
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


class CountingFn:
    """Delegating wrapper that counts ``apply`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def apply(self, t):
        self.calls += 1
        return self.inner.apply(t)


class CountingDescription(Description):
    """Counts limit-condition checks on top of the side counters."""

    def __init__(self, lhs, rhs, name=""):
        super().__init__(lhs, rhs, name=name)
        self.limit_calls = 0

    def limit_report(self, t, depth=64, lhs_value=None,
                     rhs_value=None):
        self.limit_calls += 1
        return super().limit_report(t, depth, lhs_value=lhs_value,
                                    rhs_value=rhs_value)


def counting_dfm():
    base = combine(dfm_descriptions(B, C, D), name="dfm")
    return CountingDescription(CountingFn(base.lhs),
                               CountingFn(base.rhs), name=base.name)


def naive_explore(solver: SmoothSolutionSolver,
                  max_depth: int) -> SolverResult:
    """The pre-memoization algorithm: ``limit_holds`` and
    ``children`` each re-evaluate the sides per node, and the frontier
    probe at the bound runs ``children`` once more."""
    desc = solver.description
    result = SolverResult(depth=max_depth)
    level = [Trace.empty()]
    explored = 0
    for depth in range(max_depth + 1):
        next_level = []
        for u in level:
            explored += 1
            limit = desc.limit_holds(u, solver.limit_depth)
            kids = (list(solver.children(u))
                    if depth < max_depth else None)
            if limit:
                result.finite_solutions.append(u)
            if kids is None:
                if any(True for _ in solver.children(u)):
                    result.frontier.append(u)
                elif not limit:
                    result.dead_ends.append(u)
                continue
            if not kids and not limit:
                result.dead_ends.append(u)
            next_level.extend(kids)
        level = next_level
        if not level:
            break
    result.nodes_explored = explored
    return result


class TestEvaluationCounts:
    def test_rhs_evaluated_exactly_once_per_node(self):
        desc = counting_dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        result = solver.explore(4)
        assert desc.rhs.calls == result.nodes_explored

    def test_limit_condition_checked_exactly_once_per_node(self):
        desc = counting_dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        result = solver.explore(4)
        assert desc.limit_calls == result.nodes_explored

    def test_limit_check_does_not_reapply_the_sides(self):
        # the limit condition consumes the values the exploration
        # already holds, so side evaluations are independent of how
        # limit_report is implemented
        desc = counting_dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        solver.explore(3)
        lhs_calls, rhs_calls = desc.lhs.calls, desc.rhs.calls
        desc2 = counting_dfm()
        naive = SmoothSolutionSolver.over_channels(desc2, [B, C, D])
        naive_explore(naive, 3)
        assert lhs_calls < desc2.lhs.calls
        assert rhs_calls < desc2.rhs.calls

    def test_lhs_evaluated_once_per_proposed_candidate(self):
        # f(v) is computed when v is proposed and carried to v's own
        # exploration — so lhs calls = 1 (root) + one per candidate
        # proposal below the bound + short-circuited probes at it;
        # never more than the naive per-node recomputation
        desc = counting_dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        result = solver.explore(4)
        assert desc.lhs.calls >= result.nodes_explored  # each was a candidate
        assert desc.rhs.calls == result.nodes_explored


class TestDigestUnchanged:
    def test_matches_naive_reference_at_every_depth(self):
        for depth in (0, 1, 2, 3, 4, 5):
            desc = counting_dfm()
            solver = SmoothSolutionSolver.over_channels(
                desc, [B, C, D])
            fast = solver.explore(depth)
            slow = naive_explore(solver, depth)
            assert fast.digest() == slow.digest(), f"depth {depth}"

    def test_matches_naive_reference_under_node_budget(self):
        desc = counting_dfm()
        solver = SmoothSolutionSolver.over_channels(desc, [B, C, D])
        fast = solver.explore(5, max_nodes=30)
        assert fast.truncated
        # the naive reference has no budget; agreement is on the sets
        # the truncated run did cover
        slow = naive_explore(solver, 5)
        assert set(map(repr, fast.finite_solutions)) <= set(
            map(repr, slow.finite_solutions))


class TestResumeEvaluationCounts:
    """The resume path must not re-do classified work.

    Witness replay (checkpoint loading) re-checks admissibility but
    never the limit condition, so across a truncated run plus its
    resumed continuation every node's limit condition is still checked
    *exactly once* — the same total as the straight run.
    """

    def test_limit_checked_once_per_node_across_resume(self):
        straight_desc = counting_dfm()
        straight = SmoothSolutionSolver.over_channels(
            straight_desc, [B, C, D]).explore(4)

        desc1 = counting_dfm()
        partial = SmoothSolutionSolver.over_channels(
            desc1, [B, C, D]).explore(4, max_nodes=40)
        assert partial.truncated
        desc2 = counting_dfm()
        resumed = SmoothSolutionSolver.over_channels(
            desc2, [B, C, D]).explore(
                4, resume_from=partial.checkpoint())

        assert resumed.digest() == straight.digest()
        total = desc1.limit_calls + desc2.limit_calls
        assert total == straight_desc.limit_calls
        assert total == straight.nodes_explored

    def test_rhs_evaluated_once_per_freshly_explored_node(self):
        # the resumed session evaluates g(u) once per node it actually
        # explores, plus once per carried classified trace it replays
        # as a witness path — never per (node × pass)
        partial_desc = counting_dfm()
        partial = SmoothSolutionSolver.over_channels(
            partial_desc, [B, C, D]).explore(4, max_nodes=40)
        desc = counting_dfm()
        resumed = SmoothSolutionSolver.over_channels(
            desc, [B, C, D]).explore(
                4, resume_from=partial.checkpoint())
        fresh_nodes = resumed.nodes_explored - partial.nodes_explored
        carried = (len(partial.finite_solutions)
                   + len(partial.frontier) + len(partial.dead_ends)
                   + len(partial.unvisited))
        replay_steps = sum(
            t.length() for bucket in (
                partial.finite_solutions, partial.frontier,
                partial.dead_ends, partial.unvisited)
            for t in bucket)
        # witness replay applies g once per step of each carried trace
        # (admissibility re-check) and f per proposed candidate; the
        # exploration itself then applies g once per fresh node
        assert desc.rhs.calls <= fresh_nodes + replay_steps + carried
        assert desc.limit_calls == fresh_nodes

    def test_cache_hit_skips_all_evaluation(self, tmp_path):
        from repro.cache.store import CacheStore

        store = CacheStore(tmp_path)
        warm_desc = counting_dfm()
        cold = SmoothSolutionSolver.over_channels(
            counting_dfm(), [B, C, D], cache=store).explore(4)
        warm = SmoothSolutionSolver.over_channels(
            warm_desc, [B, C, D],
            cache=CacheStore(tmp_path)).explore(4)
        assert warm.digest() == cold.digest()
        # serving from the store rebuilds traces by candidate
        # matching — no side evaluations, no limit checks
        assert warm_desc.limit_calls == 0
        assert warm_desc.rhs.calls == 0


class TestRhsGuidedCandidates:
    """The generator protocol extension of the memo discipline.

    ``rhs_guided_candidates`` needs ``g(u)`` to propose events;
    ``explore`` has already evaluated it for that exact node.  The
    generator publishes ``accepts_gu`` and receives the value, so the
    documented "g exactly once per node" bound holds for rhs-guided
    runs too (it used to double every ``rhs.apply``).
    """

    def guided_solver(self, desc):
        from repro.core.solver import rhs_guided_candidates

        return SmoothSolutionSolver(
            desc, rhs_guided_candidates([B, C, D], desc))

    def test_g_evaluated_exactly_once_per_node(self):
        desc = counting_dfm()
        result = self.guided_solver(desc).explore(3)
        assert desc.rhs.calls == result.nodes_explored

    def test_standalone_calls_still_work_without_gu(self):
        from repro.core.solver import rhs_guided_candidates

        desc = counting_dfm()
        gen = rhs_guided_candidates([B, C, D], desc)
        assert gen.accepts_gu
        before = desc.rhs.calls
        events = list(gen(Trace.empty()))
        assert desc.rhs.calls == before + 1  # computed its own g
        gu = desc.rhs.apply(Trace.empty())
        assert list(gen(Trace.empty(), gu)) == events

    def test_digest_unchanged_by_the_protocol(self):
        desc = counting_dfm()
        threaded = self.guided_solver(desc).explore(3)

        # a legacy-style generator without accepts_gu: same events,
        # own g evaluation per call
        from repro.core.solver import rhs_guided_candidates

        desc2 = counting_dfm()
        inner = rhs_guided_candidates([B, C, D], desc2)

        def legacy(u):
            return inner(u)

        legacy.cache_key = inner.cache_key
        unthreaded = SmoothSolutionSolver(desc2, legacy).explore(3)
        assert threaded.digest() == unthreaded.digest()
        assert desc.rhs.calls < desc2.rhs.calls


class TestLimitReportPrecomputed:
    def test_precomputed_values_match_fresh_evaluation(self):
        desc = counting_dfm()
        t = Trace.from_pairs([(B, 0), (D, 0)])
        fresh = desc.limit_report(t, 16)
        passed = desc.limit_report(
            t, 16, lhs_value=desc.lhs.apply(t),
            rhs_value=desc.rhs.apply(t))
        assert fresh.holds == passed.holds
        assert fresh.exact == passed.exact

    def test_precomputed_values_skip_reevaluation(self):
        desc = counting_dfm()
        t = Trace.from_pairs([(B, 0)])
        fu, gu = desc.lhs.apply(t), desc.rhs.apply(t)
        before = (desc.lhs.calls, desc.rhs.calls)
        desc.limit_report(t, 16, lhs_value=fu, rhs_value=gu)
        assert (desc.lhs.calls, desc.rhs.calls) == before

    def test_lazy_traces_ignore_precomputed_values(self):
        # for a lazy trace "the value of f(t)" is a chain limit, not
        # something a caller can hold — garbage kwargs must not leak in
        desc = counting_dfm()

        def gen():
            yield from Trace.from_pairs([(B, 0), (D, 0)])

        lazy = Trace.lazy(gen())
        report = desc.limit_report(lazy, 16, lhs_value="garbage",
                                   rhs_value="garbage")
        eager = counting_dfm().limit_report(
            Trace.from_pairs([(B, 0), (D, 0)]), 16)
        assert report.holds == eager.holds


class TestOrderMatchesNaiveReference:
    def test_result_lists_in_naive_bfs_order(self):
        buckets = ("finite_solutions", "frontier", "dead_ends",
                   "unvisited")
        for depth in range(0, 6):
            for compiled in (False, None):
                solver = SmoothSolutionSolver.over_channels(
                    combine(dfm_descriptions(B, C, D), name="dfm"),
                    [B, C, D], compiled=compiled)
                fast = solver.explore(depth).to_payload()
                slow = naive_explore(solver, depth).to_payload()
                for bucket in buckets:
                    assert fast[bucket] == slow[bucket], \
                        (depth, compiled, bucket)
