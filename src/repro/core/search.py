"""Search strategies and queries over the §3.3 tree.

The solver's reference exploration is breadth-first: correct, complete
to the depth bound, and doomed at depth — the frontier grows with the
full branching factor whether or not the caller needs the whole
solution set.  This module holds the pieces of the escape hatch:

* **Ranking heuristics** for best-first exploration.  A heuristic maps
  a node's cheap features (depth, per-component value lengths of
  ``f(u)``/``g(u)``) to a rank; the solver pops the lowest rank
  first.  Ranks only *reorder* the exploration — admissibility and
  classification are untouched — so a completed best-first run finds
  exactly the BFS solution set (pinned by
  ``tests/properties/test_strategy_equivalence.py``).

* **Predicates** over finite traces, with a tiny textual form so the
  CLI can ask them (``length <= 3``, ``on:b >= 1``, ``msg:d:2``,
  comma = conjunction).

* :class:`QueryResult` — the answer to "does a smooth solution
  matching P exist?" (``exists``) or "do all of them match P?"
  (``all``), with the witness / counterexample as a replayable
  certificate (see :meth:`SmoothSolutionSolver.witness_schedule`).

Heuristic features are deliberately engine-neutral: the compiled
engine computes lengths from flat tuples, the reference engine from
``Seq``/``Trace`` values — both land on the same integers, so the two
engines pop nodes in the same order and even *truncated* best-first
runs agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

#: Bounded probe used when a lazy sequence will not reveal a length.
LENGTH_PROBE = 64


# ---------------------------------------------------------------------------
# Node features
# ---------------------------------------------------------------------------

def _component_length(value: Any, probe: int = LENGTH_PROBE) -> int:
    """Length of one codomain component (a sequence-like value).

    Finite sequences report their exact length; lazy ones are probed
    to ``probe`` elements (a heuristic needs a bound, not the truth).
    Values with no length notion rank as 0.
    """
    known = getattr(value, "known_length", None)
    if known is not None:
        n = known()
        if n is not None:
            return n
        return len(value.take(probe).items)
    length = getattr(value, "length", None)
    if length is not None:  # Trace
        return length()
    return 0


def component_lengths(value: Any,
                      probe: int = LENGTH_PROBE) -> Tuple[int, ...]:
    """Per-component lengths of a (possibly product) codomain value."""
    if isinstance(value, tuple):
        return tuple(_component_length(v, probe) for v in value)
    return (_component_length(value, probe),)


def rhs_distance(f_lens: Tuple[int, ...],
                 g_lens: Tuple[int, ...]) -> int:
    """Σ_i |len(g_i) − len(f_i)| — how far the node is from the limit
    condition ``f(u) = g(u)``.  Distance 0 does not *prove* equality
    (same lengths, different elements), but every finite solution has
    distance 0, so ranking by it pops solution-shaped nodes first."""
    n = max(len(f_lens), len(g_lens))
    total = 0
    for i in range(n):
        a = f_lens[i] if i < len(f_lens) else 0
        b = g_lens[i] if i < len(g_lens) else 0
        total += b - a if b >= a else a - b
    return total


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Heuristic:
    """A node-ranking rule for best-first exploration.

    ``fn(depth, f_lens, g_lens)`` returns the rank (lower pops
    first).  ``needs_values`` tells the solver whether to bother
    extracting the value lengths.
    """

    name: str
    fn: Callable[[int, Tuple[int, ...], Tuple[int, ...]], int]
    needs_values: bool = False


def _rank_depth(depth, f_lens, g_lens):
    return depth


def _rank_rhs_distance(depth, f_lens, g_lens):
    return rhs_distance(f_lens, g_lens)


#: The heuristic registry.  ``depth`` is BFS order (FIFO tie-break
#: included); the solver serves it from a FIFO frontier, not a heap,
#: and evaluates ``g`` at pop instead of at push.
HEURISTICS: Dict[str, Heuristic] = {
    "depth": Heuristic("depth", _rank_depth),
    "rhs-distance": Heuristic("rhs-distance", _rank_rhs_distance,
                              needs_values=True),
}

#: Exploration orders the solver understands.
STRATEGIES = ("bfs", "best-first")


def get_heuristic(name: str) -> Heuristic:
    try:
        return HEURISTICS[name]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {name!r}; known: "
            f"{', '.join(sorted(HEURISTICS))}") from None


# ---------------------------------------------------------------------------
# Predicates over finite traces
# ---------------------------------------------------------------------------

_OPS: Dict[str, Callable[[int, int], bool]] = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
}

#: Longest operators first so ``<=`` is not read as ``<``.
_OP_ORDER = ("<=", ">=", "==", "!=", "<", ">", "=")

PREDICATE_GRAMMAR = (
    "predicate := clause (',' clause)*   (conjunction)\n"
    "clause    := 'true'\n"
    "           | 'length' OP N          (trace length)\n"
    "           | 'on:CHANNEL' OP N      (event count on CHANNEL)\n"
    "           | 'msg:CHANNEL:REPR'     (some event on CHANNEL whose\n"
    "                                     message repr equals REPR)\n"
    "OP        := <= | >= | == | != | < | > | ="
)


def _split_op(text: str) -> Tuple[str, str, int]:
    for op in _OP_ORDER:
        if op in text:
            left, _, right = text.partition(op)
            try:
                return left.strip(), op, int(right.strip())
            except ValueError:
                raise ValueError(
                    f"predicate clause {text!r}: right side of "
                    f"{op!r} must be an integer") from None
    raise ValueError(
        f"predicate clause {text!r} has no comparison operator\n"
        + PREDICATE_GRAMMAR)


def _parse_clause(text: str) -> Tuple[Callable[[Any], bool], str]:
    """One clause as ``(test, channel name it mentions or "")``."""
    text = text.strip()
    if text == "true":
        return (lambda trace: True), ""
    if text.startswith("msg:"):
        parts = text.split(":", 2)
        if len(parts) != 3 or not parts[1]:
            raise ValueError(
                f"predicate clause {text!r}: expected "
                "msg:CHANNEL:REPR\n" + PREDICATE_GRAMMAR)
        channel, message_repr = parts[1], parts[2]
        return (lambda trace: any(
            e.channel.name == channel and repr(e.message) == message_repr
            for e in trace)), channel
    left, op, n = _split_op(text)
    cmp = _OPS[op]
    if left == "length":
        return (lambda trace: cmp(trace.length(), n)), ""
    if left.startswith("on:") and len(left) > 3:
        channel = left[3:]
        return (lambda trace: cmp(
            sum(1 for e in trace if e.channel.name == channel), n)), channel
    raise ValueError(
        f"predicate clause {text!r} not understood\n"
        + PREDICATE_GRAMMAR)


def parse_predicate(text: str) -> Callable[[Any], bool]:
    """Compile the textual predicate form into ``Trace -> bool``.

    The returned callable carries the normalized text on a ``source``
    attribute for reporting and the channel names its clauses mention
    on ``channels``.  Raises ``ValueError`` (with the grammar) on
    anything it does not understand.
    """
    clauses = [c for c in (part.strip() for part in text.split(","))
               if c]
    if not clauses:
        raise ValueError(
            "empty predicate\n" + PREDICATE_GRAMMAR)
    parsed = [_parse_clause(c) for c in clauses]

    def predicate(trace: Any) -> bool:
        return all(test(trace) for test, _channel in parsed)

    predicate.source = ", ".join(clauses)
    predicate.channels = frozenset(ch for _test, ch in parsed if ch)
    return predicate


# ---------------------------------------------------------------------------
# Query results
# ---------------------------------------------------------------------------

@dataclass
class QueryResult:
    """Answer to a smooth-solution query.

    ``holds`` is three-valued: ``True``/``False`` when the search
    settled the question, ``None`` when a resource guard fired before
    a witness (``exists``) / counterexample (``all``) was found *and*
    before the bounded tree was covered — the query is unresolved at
    this budget.  ``witness`` is the settling trace (the witness for a
    held ``exists``, the counterexample for a failed ``all``), and
    ``certificate`` its replayable schedule
    (:meth:`SmoothSolutionSolver.witness_schedule`) when one exists.
    ``result`` is the underlying (possibly early-exited)
    :class:`SolverResult` — its ``truncation_reason`` starts with
    ``"query:"`` when the search short-circuited.  ``meta["graph"]``
    is ``"states"`` when the search walked the projection-state graph
    (then ``nodes_explored`` counts the states it expanded) and
    ``"tree"`` otherwise.
    """

    mode: str
    predicate: str
    holds: Optional[bool]
    witness: Optional[Any] = None
    certificate: Optional[Any] = None
    nodes_explored: int = 0
    strategy: str = "bfs"
    result: Any = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def resolved(self) -> bool:
        return self.holds is not None

    def describe(self) -> str:
        verdict = {True: "holds", False: "does not hold",
                   None: "unresolved (budget exhausted)"}[self.holds]
        unit = ("projection states" if self.meta.get("graph") == "states"
                else "nodes")
        lines = [f"query [{self.mode}] {self.predicate}: {verdict}",
                 f"  {unit} explored: {self.nodes_explored} "
                 f"(strategy {self.strategy})"]
        if self.witness is not None:
            label = ("witness" if self.mode == "exists"
                     else "counterexample")
            lines.append(f"  {label}: {self.witness!r}")
        return "\n".join(lines)
