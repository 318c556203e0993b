"""Differential evidence: a query on the projection-state graph answers
as the tree walk does.

When both sides of a description factor through the per-channel
projections ``b(t)`` and the candidate alphabet is constant, ``g``,
the limit verdict and a node's admissible extensions depend on its
projection only, and every textual predicate reads projections only.
``query`` then expands each projection state once (see
``repro.core.solver._StateGraphEngine``).  Over the catalog classes
the benchmark solves (at their benchmark depths) and the two
registered scenarios, on both engines and under ``bfs`` and
``best-first``, this module pins that

* ``holds`` equals enumerate-then-filter on the full tree;
* the witness is the tree walk's: the first finite solution, in the
  tree walk's own order, that settles the question — and it replays;
* a full enumeration expands exactly one node per distinct projection
  among the tree's nodes, and its solutions, frontier and dead ends
  have the tree's sets of projections;

and that every query the graph cannot answer soundly keeps the tree
walk, with the tree's node count.  A node holding an unhashable
message has no state key; the graph lets every such node through, so
its answers stay the tree walk's.
"""

from functools import lru_cache

import pytest

from repro import par, processes
from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import Description
from repro.core.search import parse_predicate
from repro.core.solver import SmoothSolutionSolver, alphabet_candidates
from repro.functions.base import LambdaFn, chan
from repro.traces.trace import Trace

#: name -> (catalog module, factory, depth): the benchmark's ``solve``
#: classes at its depths
CATALOG = {
    "dfm": ("merge", "make_dfm", 4),
    "fair_merge": ("merge", "make_fair_merge", 4),
    "implication": ("implication", "make", 6),
    "random_bit_sequence": ("random_bit", "make_sequence", 9),
    "fork": ("fork", "make", 3),
    "lossy": ("lossy", "make", 4),
    "finite_ticks": ("finite_ticks", "make", 6),
    "fair_random": ("fair_random", "make", 8),
}
REGISTRY = {"registry:dfm": "dfm",
            "registry:alternating_bit": "alternating_bit"}
REGISTRY_DEPTH = 4
CASES = tuple(CATALOG) + tuple(REGISTRY)

ENGINES = {"auto": None, "reference": False}
STRATEGIES = ("bfs", "best-first")

#: distinct projection states within the depth bound
PINNED_STATES = {"dfm": 787, "implication": 313,
                 "random_bit_sequence": 114, "fork": 96}


@lru_cache(maxsize=None)
def case(name: str) -> tuple:
    """``(description, channels, depth)`` of a matrix case."""
    if name in REGISTRY:
        sc = par.get_scenario(REGISTRY[name])
        return sc.spec, tuple(sc.solve_channels), REGISTRY_DEPTH
    module, factory, depth = CATALOG[name]
    process = getattr(getattr(processes, module), factory)()
    return process.description(), tuple(process.channels), depth


def solver_for(name: str, **kwargs) -> SmoothSolutionSolver:
    description, channels, _depth = case(name)
    return SmoothSolutionSolver.over_channels(description, channels,
                                              **kwargs)


def predicates(name: str) -> tuple:
    """A length clause, a count clause, a message clause and a
    conjunction over the case's own channels (the last by name: no
    case's last channel carries a message whose repr has a comma,
    which would split the clause)."""
    _description, channels, depth = case(name)
    ordered = sorted(channels, key=lambda c: c.name)
    first, last = ordered[0], ordered[-1]
    message = sorted(map(repr, last.alphabet))[0]
    return (f"length >= {depth // 2}",
            f"on:{first.name} >= 1",
            f"msg:{last.name}:{message}",
            f"on:{last.name} >= 1, length <= {depth - 1}")


def projection_items(trace: Trace) -> list:
    """The trace's per-channel projection ``b(t)`` as ``(channel name,
    messages)`` pairs."""
    per: dict = {}
    for event in trace:
        per.setdefault(event.channel.name, []).append(event.message)
    return [(name, tuple(ms)) for name, ms in per.items()]


def projection(trace: Trace) -> frozenset:
    """The trace's per-channel projection ``b(t)``."""
    return frozenset(projection_items(trace))


@lru_cache(maxsize=None)
def tree_walk(name: str, compiled, strategy: str):
    """The full tree walk's result; its finite solutions are in the
    order the walk classified them."""
    result = solver_for(name, compiled=compiled,
                        strategy=strategy).explore(case(name)[2])
    assert not result.truncated
    return result


@lru_cache(maxsize=None)
def tree_nodes(name: str) -> tuple:
    """Every node of the §3.3 tree within the depth bound, level by
    level through the public ``children`` relation."""
    solver = solver_for(name, compiled=False)
    level = [Trace.empty()]
    nodes = list(level)
    for _ in range(case(name)[2]):
        level = [v for u in level for v in solver.children(u)]
        nodes += level
    return tuple(nodes)


def tree_answer(solutions: tuple, text: str, mode: str) -> tuple:
    """``(holds, witness)`` by enumerate-then-filter.  The tree walk's
    watch sees the solutions in this order and stops at the first one
    that settles the question, so that one is its witness."""
    pred = parse_predicate(text)
    want = mode == "exists"
    for trace in solutions:
        if pred(trace) == want:
            return want, trace
    return not want, None


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", CASES)
def test_answers_and_witnesses_match_the_tree_walk(name, engine,
                                                   strategy):
    compiled = ENGINES[engine]
    solutions = tree_walk(name, compiled, strategy).finite_solutions
    depth = case(name)[2]
    for text in predicates(name):
        for mode in ("exists", "all"):
            holds, witness = tree_answer(solutions, text, mode)
            solver = solver_for(name, compiled=compiled,
                                strategy=strategy)
            answer = solver.query(text, depth, mode=mode)
            label = (name, engine, strategy, text, mode)
            assert answer.meta["graph"] == "states", label
            assert answer.holds is holds, label
            assert answer.witness == witness, label
            if witness is not None:
                assert solver.replay_witness(answer.certificate) \
                    == witness, label


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", CASES)
def test_full_enumeration_expands_each_state_once(name, engine,
                                                  strategy):
    answer = solver_for(name, compiled=ENGINES[engine],
                        strategy=strategy).query(
        "length >= 99", case(name)[2])
    assert answer.holds is False
    assert not answer.result.truncated
    states = {projection(t) for t in tree_nodes(name)}
    assert answer.nodes_explored == len(states)
    tree = tree_walk(name, None, "bfs")
    for bucket in ("finite_solutions", "frontier", "dead_ends"):
        assert {projection(t) for t in getattr(answer.result, bucket)} \
            == {projection(t) for t in getattr(tree, bucket)}, bucket


@pytest.mark.parametrize("name", sorted(PINNED_STATES))
def test_pinned_state_counts_on_the_reference_engine(name):
    answer = solver_for(name, compiled=False).query(
        "length >= 99", case(name)[2])
    assert answer.nodes_explored == PINNED_STATES[name]
    assert f"projection states explored: {PINNED_STATES[name]}" \
        in answer.describe()


class TestKeylessNodes:
    """``u ⟵ v`` over a constant alphabet mixing the unhashable ``[0]``
    with ``1`` on both channels: a node that holds ``[0]`` has no
    state key (``env_key`` is ``None``, and the description stays off
    the compiled engine), so the graph expands every such node, while
    nodes of ``1``s alone share their states."""

    DEPTH = 4
    PREDICATES = ("length <= 4", "on:u <= 1", "msg:v:[0]",
                  "msg:u:1", "on:v >= 1, length <= 3")

    @staticmethod
    def solver(strategy: str = "bfs") -> SmoothSolutionSolver:
        u, v = Channel("u"), Channel("v")
        events = tuple(Event(c, m) for c in (u, v) for m in ([0], 1))

        def candidates(trace):
            return events

        candidates.constant_events = events
        return SmoothSolutionSolver(
            Description(chan(u), chan(v), name="u ⟵ v"), candidates,
            strategy=strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_answers_match_enumerate_then_filter(self, strategy):
        solver = self.solver(strategy)
        tree = solver.explore(self.DEPTH)
        assert not tree.truncated
        for text in self.PREDICATES:
            for mode in ("exists", "all"):
                holds, witness = tree_answer(tree.finite_solutions,
                                             text, mode)
                answer = solver.query(text, self.DEPTH, mode=mode)
                label = (strategy, text, mode)
                assert answer.meta["graph"] == "states", label
                assert answer.holds is holds, label
                assert answer.witness == witness, label
                if witness is not None:
                    assert solver.replay_witness(answer.certificate) \
                        == witness, label

    def test_full_enumeration_expands_every_keyless_node(self):
        solver = self.solver()
        level = [Trace.empty()]
        nodes = list(level)
        for _ in range(self.DEPTH):
            level = [v for u in level for v in solver.children(u)]
            nodes += level
        answer = solver.query("length >= 99", self.DEPTH)
        assert answer.holds is False and not answer.result.truncated
        assert answer.meta["graph"] == "states"
        # keyed nodes of one state are expanded once, keyless ones
        # each time the tree holds them (the projections are told
        # apart by repr here, as ``[0]`` cannot be hashed)
        states = {repr(sorted(projection_items(t))) for t in nodes}
        assert len(states) < answer.nodes_explored < len(nodes)
        assert (answer.nodes_explored, len(nodes)) == (68, 73)


class TestTreeWalkKept:
    """Where the graph's premises are not known to hold, ``query``
    walks the tree and expands every node of dfm's depth-4 tree."""

    DEPTH = 4
    TREE_NODES = 2659

    def dfm_parts(self) -> tuple:
        description, channels, _depth = case("dfm")
        return description, channels

    def assert_tree_walk(self, solver, predicate="length >= 99"):
        answer = solver.query(predicate, self.DEPTH)
        assert answer.holds is False
        assert answer.meta["graph"] == "tree"
        assert answer.nodes_explored == self.TREE_NODES
        assert f"  nodes explored: {self.TREE_NODES} " \
            in answer.describe()

    def test_tree_size(self):
        assert solver_for("dfm").explore(self.DEPTH).nodes_explored \
            == self.TREE_NODES

    def test_unmarked_callable(self):
        parsed = parse_predicate("length >= 99")
        self.assert_tree_walk(solver_for("dfm"),
                              predicate=lambda t: parsed(t))

    def test_description_subclass(self):
        class Subclassed(Description):
            pass

        description, channels = self.dfm_parts()
        solver = SmoothSolutionSolver.over_channels(
            Subclassed(description.lhs, description.rhs, name="dfm"),
            channels)
        self.assert_tree_walk(solver)

    def test_lambda_side(self):
        description, channels = self.dfm_parts()
        lhs = description.lhs
        opaque = Description(
            LambdaFn("f", lhs.apply, lhs.codomain), description.rhs,
            name="dfm")
        solver = SmoothSolutionSolver.over_channels(opaque, channels)
        self.assert_tree_walk(solver)

    def test_generator_without_constant_events(self):
        description, channels = self.dfm_parts()
        events = alphabet_candidates(channels)

        def candidates(u):
            return events(u)

        solver = SmoothSolutionSolver(description, candidates)
        self.assert_tree_walk(solver)
