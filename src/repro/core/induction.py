"""Smooth-solution induction (§8.4).

The rule: for an admissible predicate ``φ`` and description ``f ⟵ g``,

    φ(⊥)   and   [u ⊑ v ∧ f(v) ⊑ g(u) ∧ φ(u)] ⇒ φ(v)

imply ``φ(z)`` for every smooth solution ``z``.  For the cpo of traces
the rule strengthens ``u ⊑ v`` to ``u pre v``.

We make the rule executable in two pieces:

* :func:`check_premises_on_tree` verifies the step premise on every edge
  of the §3.3 solver tree up to a depth (the edges are exactly the pairs
  ``u pre v`` with ``f(v) ⊑ g(u)``), plus ``φ(⊥)``;
* :func:`conclude` then asserts ``φ`` on any smooth solution's prefixes
  — justified by the rule, and double-checked directly.

The paper (crediting Trakhtenbrot) notes the rule is incomplete — it
ignores the limit condition; ``tests/core/test_induction.py`` exhibits a
property that holds of all smooth solutions but cannot be derived by
the rule, reproducing that observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.description import DEFAULT_DEPTH, Description
from repro.core.solver import SmoothSolutionSolver
from repro.traces.trace import Trace

#: A (decidable approximation of an admissible) predicate on traces.
TracePredicate = Callable[[Trace], bool]


@dataclass(frozen=True)
class PremiseFailure:
    """A tree edge on which the induction step fails."""

    u: Trace
    v: Trace

    def __str__(self) -> str:
        return f"induction step fails on {self.u!r} pre {self.v!r}"


@dataclass
class InductionReport:
    """Outcome of checking the rule's premises on the solver tree."""

    base_holds: bool
    step_failures: list[PremiseFailure]
    edges_checked: int
    depth: int
    truncation_reason: str = ""

    @property
    def premises_hold(self) -> Optional[bool]:
        """``None`` (unknown) when the budget fired before a failure."""
        if not self.base_holds or self.step_failures:
            return False
        return None if self.truncation_reason else True


def check_premises_on_tree(solver: SmoothSolutionSolver,
                           phi: TracePredicate,
                           max_depth: int) -> InductionReport:
    """Verify ``φ(⊥)`` and the step premise on every tree edge to depth.

    The solver tree's edges are precisely the pairs ``u pre v`` with
    ``f(v) ⊑ g(u)`` — the strengthened trace form of the rule's
    hypothesis — so edge-wise checking is exactly the rule's premise,
    restricted to the explored depth.  An edge is a non-root node
    ``v`` (its parent ``u`` is ``v`` without the last event), so the
    check is a node watch on ``solver.explore``.
    """
    base = phi(Trace.empty())
    failures: list[PremiseFailure] = []

    def watch(v: Trace) -> str:
        n = v.length()
        if n == 0:  # the root, where a compiled→reference fallback restarts
            failures.clear()
        elif phi(u := v.take(n - 1)) and not phi(v):
            failures.append(PremiseFailure(u=u, v=v))
        return ""

    watch.every_node = True
    result = solver.explore(max_depth, _watch=watch)
    return InductionReport(
        base_holds=base, step_failures=failures,
        edges_checked=result.nodes_explored - 1, depth=max_depth,
        truncation_reason=result.truncation_reason,
    )


def conclude(report: InductionReport, description: Description,
             solution: Trace, depth: int = DEFAULT_DEPTH) -> bool:
    """Apply the rule: premises ⇒ ``φ`` holds of the smooth solution.

    Returns ``True`` iff the premises were verified and ``solution`` is
    (to ``depth``) a smooth solution — under the rule, ``φ(solution)``
    then holds.  The caller may independently confirm ``φ`` on prefixes
    via :func:`holds_on_prefixes`.
    """
    return (
        report.premises_hold is True
        and description.is_smooth_solution(solution, depth)
    )


def holds_on_prefixes(phi: TracePredicate, t: Trace,
                      depth: int) -> bool:
    """Direct check of ``φ`` on every prefix of ``t`` up to ``depth``.

    For admissible ``φ`` (preserved by lubs of chains), truth on all
    finite prefixes extends to the (possibly infinite) trace itself.
    """
    for n in range(depth + 1):
        prefix = t.take(n)
        if not phi(prefix):
            return False
        if prefix.length() < n:
            break
    return True
