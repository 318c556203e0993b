"""The checkpoint/resume invariant: truncate-then-resume ≡ straight run.

§3.3 reads solutions off a Kleene-iteration tree; a node budget that
fires mid-exploration leaves the unvisited nodes as iteration
*prefixes*.  Resuming from a checkpoint continues the chain, and the
resulting :class:`~repro.core.solver.SolverResult` must be
digest-identical to the run that never truncated — for every budget,
including ones that cut a BFS level in half.
"""

import pytest

from repro import par
from repro.cache.checkpoint import SolverCheckpoint
from repro.core.solver import SmoothSolutionSolver
from repro.processes.alternating_bit import MESSAGES

DFM_DEPTH = 4


def solver_for(scenario: str, **kwargs) -> SmoothSolutionSolver:
    """The registered scenario's spec over the channels ``solve``
    explores it on."""
    sc = par.get_scenario(scenario)
    return SmoothSolutionSolver.over_channels(
        sc.spec, sc.solve_channels, **kwargs)


def dfm_solver(**kwargs) -> SmoothSolutionSolver:
    return solver_for("dfm", **kwargs)


def abp_solver() -> SmoothSolutionSolver:
    return solver_for("alternating_bit")


class TestDfmResume:
    # budgets straddle level boundaries of the dfm tree (levels have
    # 1, 4, 20, ... nodes), so several of these truncate mid-level
    @pytest.mark.parametrize("budget", [1, 3, 5, 7, 10, 25, 60, 200])
    def test_truncate_resume_digest_equals_straight_run(self, budget):
        straight = dfm_solver().explore(DFM_DEPTH)
        assert not straight.truncated

        solver = dfm_solver()
        partial = solver.explore(DFM_DEPTH, max_nodes=budget)
        assert partial.truncated
        ckpt = partial.checkpoint()
        # the checkpoint survives a pure-JSON round trip
        ckpt = SolverCheckpoint.from_json(ckpt.to_json())
        resumed = dfm_solver().explore(DFM_DEPTH, resume_from=ckpt)
        assert not resumed.truncated
        assert resumed.digest() == straight.digest()
        assert resumed.nodes_explored == straight.nodes_explored

    def test_resume_from_saved_file(self, tmp_path):
        straight = dfm_solver().explore(DFM_DEPTH)
        partial = dfm_solver().explore(DFM_DEPTH, max_nodes=10)
        path = tmp_path / "ck.json"
        partial.checkpoint().save(str(path))
        resumed = dfm_solver().explore(DFM_DEPTH,
                                       resume_from=str(path))
        assert resumed.digest() == straight.digest()

    def test_resume_from_dict(self):
        straight = dfm_solver().explore(DFM_DEPTH)
        partial = dfm_solver().explore(DFM_DEPTH, max_nodes=33)
        resumed = dfm_solver().explore(
            DFM_DEPTH, resume_from=partial.checkpoint().to_dict())
        assert resumed.digest() == straight.digest()

    def test_chained_resume_converges(self):
        # resume with the SAME small budget repeatedly: each call gets
        # a fresh per-call budget, so the chain must terminate at the
        # straight run instead of re-truncating forever
        straight = dfm_solver().explore(DFM_DEPTH)
        result = dfm_solver().explore(DFM_DEPTH, max_nodes=100)
        hops = 0
        while result.truncated:
            hops += 1
            assert hops < 50, "chained resume failed to converge"
            result = dfm_solver().explore(
                DFM_DEPTH, max_nodes=100,
                resume_from=result.checkpoint())
        assert result.digest() == straight.digest()
        assert hops >= 2  # the budget actually forced several hops

    def test_exhausted_checkpoint_resumes_to_itself(self):
        straight = dfm_solver().explore(DFM_DEPTH)
        ckpt = straight.checkpoint()
        assert ckpt.exhausted
        resumed = dfm_solver().explore(DFM_DEPTH, resume_from=ckpt)
        assert resumed.digest() == straight.digest()

    def test_checkpoint_is_pure_json(self):
        import json

        partial = dfm_solver().explore(DFM_DEPTH, max_nodes=10)
        text = partial.checkpoint().to_json()
        doc = json.loads(text)
        assert doc["version"] == 1
        # trace keys are [[channel, message-repr], ...] lists
        for bucket in ("finite_solutions", "frontier", "dead_ends",
                       "unvisited"):
            for key in doc[bucket]:
                for step in key:
                    assert len(step) == 2
                    assert all(isinstance(s, str) for s in step)


class TestAlternatingBitResume:
    def depth(self) -> int:
        return len(MESSAGES) + 1

    # the ABP service tree is a single chain (4 nodes to the bound),
    # so every budget below that truncates — budget 2 and 3 resume
    # from a mid-chain prefix
    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_truncate_resume_digest_equals_straight_run(self, budget):
        straight = abp_solver().explore(self.depth())
        assert not straight.truncated

        partial = abp_solver().explore(self.depth(),
                                       max_nodes=budget)
        assert partial.truncated
        ckpt = SolverCheckpoint.from_json(
            partial.checkpoint().to_json())
        resumed = abp_solver().explore(self.depth(),
                                       resume_from=ckpt)
        assert resumed.digest() == straight.digest()


class TestPerStrategyResume:
    """PR 5 pinned truncate-then-resume for the BFS loop; the strategy
    layer extends the invariant to every exploration order."""

    @pytest.mark.parametrize("strategy", ["bfs", "best-first"])
    @pytest.mark.parametrize("budget", [1, 7, 40, 200, 696])
    def test_truncate_resume_digest_equals_straight_run(
            self, strategy, budget):
        straight = dfm_solver().explore(DFM_DEPTH)

        def solver():
            return dfm_solver(strategy=strategy)

        partial = solver().explore(DFM_DEPTH, max_nodes=budget)
        assert partial.truncated
        ckpt = SolverCheckpoint.from_json(
            partial.checkpoint().to_json())
        resumed = solver().explore(DFM_DEPTH, resume_from=ckpt)
        assert not resumed.truncated
        assert resumed.digest() == straight.digest()
        assert resumed.nodes_explored == straight.nodes_explored

    def test_meta_stays_out_of_the_checkpoint_digest(self):
        # two checkpoints of the same parked set must stay
        # digest-comparable even though one carries walk meta
        answer = dfm_solver().query("length >= 99", DFM_DEPTH,
                                    max_nodes=100)
        assert answer.holds is None
        ckpt = answer.result.checkpoint()
        assert ckpt.meta == {"graph": "states"}
        stripped = SolverCheckpoint.from_dict(ckpt.to_dict())
        stripped.meta = {}
        assert stripped.digest() == ckpt.digest()


class TestResumeValidation:
    def test_wrong_depth_rejected(self):
        partial = dfm_solver().explore(DFM_DEPTH, max_nodes=10)
        with pytest.raises(ValueError, match="depth"):
            dfm_solver().explore(DFM_DEPTH + 1,
                                 resume_from=partial.checkpoint())

    def test_wrong_limit_depth_rejected(self):
        partial = dfm_solver().explore(DFM_DEPTH, max_nodes=10)
        other = dfm_solver()
        other.limit_depth = 7
        with pytest.raises(ValueError, match="limit_depth"):
            other.explore(DFM_DEPTH,
                          resume_from=partial.checkpoint())

    def test_wrong_description_rejected(self):
        partial = dfm_solver().explore(DFM_DEPTH, max_nodes=10)
        ckpt = partial.checkpoint()
        ckpt.description = "something-else"
        with pytest.raises(ValueError, match="description"):
            dfm_solver().explore(DFM_DEPTH, resume_from=ckpt)

    def test_alien_trace_keys_rejected(self):
        from repro.obs.replay import ReplayDivergence

        partial = dfm_solver().explore(DFM_DEPTH, max_nodes=10)
        ckpt = partial.checkpoint()
        ckpt.unvisited = [[["d", "0"]]]  # not a tree node: no witness
        with pytest.raises(ReplayDivergence):
            dfm_solver().explore(DFM_DEPTH, resume_from=ckpt)

    def test_bad_resume_type_rejected(self):
        with pytest.raises(TypeError):
            dfm_solver().explore(DFM_DEPTH, resume_from=42)

    def test_missing_version_in_dict_rejected(self):
        partial = dfm_solver().explore(DFM_DEPTH, max_nodes=10)
        data = partial.checkpoint().to_dict()
        del data["version"]
        with pytest.raises(ValueError, match="version"):
            dfm_solver().explore(DFM_DEPTH, resume_from=data)


class TestMultiDepthResume:
    """A best-first checkpoint parks seeds at several depths.  A BFS
    resume that truncates again must park every seed it did not
    reach, at every depth, or the chain converges on a smaller tree
    than the straight run's."""

    @pytest.mark.parametrize("compiled", [False, None])
    def test_bfs_resume_keeps_seeds_at_every_depth(self, compiled):
        depth = 5

        def solver(strategy):
            return dfm_solver(compiled=compiled, strategy=strategy)

        straight = solver("bfs").explore(depth)
        first = solver("best-first").explore(depth, max_nodes=60)
        seed_depths = {t.length() for t in first.unvisited}
        assert len(seed_depths) > 1
        second = solver("bfs").explore(
            depth, max_nodes=5, resume_from=first.checkpoint())
        assert second.truncated
        assert seed_depths <= {t.length() for t in second.unvisited}
        final = solver("bfs").explore(
            depth, resume_from=second.checkpoint())
        assert not final.truncated
        assert final.nodes_explored == straight.nodes_explored
        assert final.digest() == straight.digest()
