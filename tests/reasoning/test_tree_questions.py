"""Safety (§2.3) and induction premises (§8.4) ask the §3.3 tree.

Both checks are node watches on ``SmoothSolutionSolver.explore``.  The
oracle is a plain level-by-level walk over
``SmoothSolutionSolver.children``: on BFS the watches must reproduce
it exactly (counts, counterexample, ordered failure list); on every
other strategy and engine they must give the same
verdicts, the same counts on complete runs and the same failure sets.
"""

import functools

import pytest

from repro.cache import CacheStore
from repro.channels.channel import Channel
from repro.core.compiled import compile_description
from repro.core.description import Description, combine
from repro.core.induction import PremiseFailure, check_premises_on_tree
from repro.core.solver import SmoothSolutionSolver
from repro.functions.base import OpFn, chan
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.processes import fork, implication, lossy, merge, random_bit
from repro.reasoning.checker import check_safety
from repro.reasoning.properties import SafetyProperty, never_message
from repro.seq import concat, fseq, repeat
from repro.traces.trace import Trace


def oracle_safety(solver, prop, max_depth):
    """Every node, level by level: ``(nodes checked, counterexample)``."""
    nodes = 0
    frontier = [Trace.empty()]
    for _ in range(max_depth + 1):
        deeper = []
        for u in frontier:
            nodes += 1
            if not prop(u):
                return nodes, u
            deeper.extend(solver.children(u))
        frontier = deeper
    return nodes, None


def oracle_premises(solver, phi, max_depth):
    """Every edge, level by level: ``(base, failures, edges)``."""
    failures, edges = [], 0
    frontier = [Trace.empty()]
    for _ in range(max_depth):
        deeper = []
        for u in frontier:
            for v in solver.children(u):
                edges += 1
                if phi(u) and not phi(v):
                    failures.append(PremiseFailure(u=u, v=v))
                deeper.append(v)
        frontier = deeper
    return phi(Trace.empty()), failures, edges


#: process → (factory, depth, input channels, output channels, a
#: reachable output event).  The first four compile, fork and lossy
#: stay on the reference engine.
CASES = {
    "dfm": (merge.make_dfm, 3, ("b", "c"), ("d",), ("d", 3)),
    "fair_merge": (merge.make_fair_merge, 3, ("c", "d"), ("e",),
                   ("e", 1)),
    "implication": (implication.make, 5, ("c",), ("d",), ("d", "T")),
    "random_bit_sequence": (random_bit.make_sequence, 7, ("c",),
                            ("b",), ("b", "F")),
    "fork": (fork.make, 3, ("c",), ("d", "e"), ("e", 0)),
    "lossy": (lossy.make, 3, ("c",), ("d",), ("d", 1)),
}


@functools.lru_cache(maxsize=None)
def case(name):
    """The process, its depth, its three questions and their oracle
    answers."""
    make, depth, inputs, outputs, (out, message) = CASES[name]
    process = make()
    ch = {c.name: c for c in process.channels}

    def count(t, names):
        return sum(t.count_on(ch[n]) for n in names)

    holding = SafetyProperty(
        "no more outputs than inputs",
        lambda t: count(t, outputs) <= count(t, inputs))
    violated = never_message(ch[out], message)

    def phi(t):  # "no output yet": fails on the first output edge
        return count(t, outputs) == 0

    reference = SmoothSolutionSolver.over_channels(
        process.description(), process.channels, compiled=False)
    answers = (oracle_safety(reference, holding, depth),
               oracle_safety(reference, violated, depth),
               oracle_premises(reference, phi, depth))
    return process, depth, (holding, violated, phi), answers


ENGINES = {"auto": None, "reference": False, "compiled": True}


class TestParityWithTheReferenceWalk:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_each_case_asks_what_it_claims(self, name):
        _process, _depth, _questions, answers = case(name)
        (_n, holding_cex), (_m, violated_cex), (base, failures, _e) = \
            answers
        assert holding_cex is None
        assert violated_cex is not None
        assert base and failures

    @pytest.mark.parametrize("strategy", ["bfs", "best-first"])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_checks_agree_with_the_reference_walk(self, name, engine,
                                                  strategy):
        process, depth, (holding, violated, phi), answers = case(name)
        solver = SmoothSolutionSolver.over_channels(
            process.description(), process.channels,
            compiled=ENGINES[engine], strategy=strategy)
        if engine == "compiled" and compile_description(
                solver.description, solver.candidates) is None:
            # outside the compiled fragment the checks raise what
            # explore raises
            for check, question in ((check_safety, holding),
                                    (check_premises_on_tree, phi)):
                with pytest.raises(ValueError, match="compiled=True"):
                    check(solver, question, depth)
            return
        (nodes, _), (nodes_to_cex, cex), (base, failures, edges) = answers

        safe = check_safety(solver, holding, depth)
        assert safe.holds is True and safe.nodes_checked == nodes
        assert safe.truncation_reason == ""

        unsafe = check_safety(solver, violated, depth)
        assert unsafe.holds is False
        premises = check_premises_on_tree(solver, phi, depth)
        assert premises.premises_hold is False
        assert premises.base_holds is base
        assert premises.edges_checked == edges
        assert premises.truncation_reason == ""
        if strategy == "bfs":
            assert unsafe.counterexample == cex
            assert unsafe.nodes_checked == nodes_to_cex
            assert premises.step_failures == failures
        else:
            found = unsafe.counterexample
            assert not violated(found) and solver.is_node(found)
            assert found.length() <= depth
            assert set(premises.step_failures) == set(failures)
            assert len(premises.step_failures) == len(failures)


B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm_solver(**kwargs) -> SmoothSolutionSolver:
    desc = combine(merge.dfm_descriptions(B, C, D), name="dfm")
    return SmoothSolutionSolver.over_channels(desc, [B, C, D], **kwargs)


ALWAYS = SafetyProperty("true", lambda t: True)


class TestTheChecksRunOnTheLoop:
    def test_no_check_walks_children(self, monkeypatch):
        def refuse(self, u):
            raise AssertionError("a tree check walked children()")

        monkeypatch.setattr(SmoothSolutionSolver, "children", refuse)
        solver = dfm_solver()
        assert check_safety(solver, ALWAYS, 3).holds is True
        assert check_safety(solver, never_message(D, 3), 3).holds is False
        assert check_premises_on_tree(
            solver, lambda t: True, 3).premises_hold is True

    def test_budget_leaves_the_answer_unknown(self, monkeypatch):
        monkeypatch.setattr(
            SmoothSolutionSolver, "explore",
            functools.partialmethod(SmoothSolutionSolver.explore,
                                    max_nodes=50))
        solver = dfm_solver()
        safety = check_safety(solver, ALWAYS, 4)
        assert safety.holds is None and safety.nodes_checked == 50
        assert "unknown" in str(safety)
        assert "node budget (50)" in str(safety)
        premises = check_premises_on_tree(solver, lambda t: True, 4)
        assert premises.premises_hold is None
        assert premises.edges_checked == 49
        assert "node budget (50)" in premises.truncation_reason
        # a counterexample, a failing edge or a false base inside the
        # budget still answers False
        assert check_safety(solver, never_message(D, 3), 4).holds is False
        assert check_premises_on_tree(
            solver, lambda t: t.count_on(D) == 0, 4).premises_hold is False
        assert check_premises_on_tree(
            solver, lambda t: t.length() > 0, 4).premises_hold is False

    def test_checks_neither_read_nor_write_the_cache(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        solver = dfm_solver(cache=store)
        assert not solver.explore(4).truncated
        before = store.stats()
        report = check_safety(solver, never_message(D, 3), 4)
        assert report.counterexample == Trace.from_pairs([(C, 3), (D, 3)])
        assert report.nodes_checked == 25
        premises = check_premises_on_tree(solver, lambda t: True, 4)
        assert premises.premises_hold is True
        assert premises.edges_checked == 696
        assert store.stats() == before

    def test_compiled_fallback_reports_each_failure_once(self):
        """A compiled walk that leaves the finite fragment mid-run
        restarts on the reference engine; the premise watch must not
        keep the failures it saw before the restart."""
        b = Channel("b", alphabet={0})

        def grow(s):  # finite until two messages arrive on b
            n = s.known_length()
            return concat(s, fseq(0) if n is not None and n < 2
                          else repeat(0))

        spec = Description(chan(b), OpFn("grow", grow, [chan(b)]),
                           name="grow")
        ring = RingBufferSink()
        solver = SmoothSolutionSolver.over_channels(
            spec, [b], tracer=Tracer([ring]))
        report = check_premises_on_tree(
            solver, lambda t: t.length() == 0, 3)
        assert any(r.name == "solver.compiled_fallback" for r in ring)
        assert report.step_failures == [
            PremiseFailure(u=Trace.empty(), v=Trace.from_pairs([(b, 0)]))]
        assert report.edges_checked == 3
