"""Bounded model checking of safety and progress over descriptions.

Safety is checked over the §3.3 tree: every node is a reachable
communication history, so a safety property holds of the process iff it
holds at every node (and, being prefix-closed and admissible, of every
infinite smooth solution too).  A violation comes with the offending
history — a genuine counterexample trace.

Progress is checked against solutions: a quiescent (finite) solution
must satisfy the goal outright; an infinite solution must satisfy it by
some prefix within the horizon.  Combined with the smooth-solution
induction rule (§8.4) these cover the reasoning patterns §2.3 sketches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.description import DEFAULT_DEPTH, Description
from repro.core.solver import SmoothSolutionSolver
from repro.reasoning.properties import ProgressProperty, SafetyProperty
from repro.traces.trace import Trace


@dataclass
class SafetyReport:
    """Outcome of a bounded safety check."""

    property_name: str
    nodes_checked: int
    depth: int
    counterexample: Optional[Trace] = None
    truncation_reason: str = ""

    @property
    def holds(self) -> Optional[bool]:
        """``None`` (unknown) when the budget fired before a failure."""
        if self.counterexample is not None:
            return False
        return None if self.truncation_reason else True

    def __str__(self) -> str:
        name = f"safety {self.property_name!r}"
        if self.holds is False:
            return f"{name} VIOLATED by {self.counterexample!r}"
        verdict = "holds on" if self.holds else "unknown after"
        text = (f"{name} {verdict} {self.nodes_checked} reachable "
                f"histories (depth {self.depth})")
        return text if self.holds else f"{text}: {self.truncation_reason}"


@dataclass
class ProgressReport:
    """Outcome of a progress check on one solution."""

    property_name: str
    satisfied_at: Optional[int]
    horizon: int

    @property
    def holds(self) -> bool:
        return self.satisfied_at is not None

    def __str__(self) -> str:
        if self.holds:
            return (
                f"progress {self.property_name!r} reached at prefix "
                f"{self.satisfied_at}"
            )
        return (
            f"progress {self.property_name!r} NOT reached within "
            f"horizon {self.horizon}"
        )


def check_safety(solver: SmoothSolutionSolver,
                 prop: SafetyProperty,
                 max_depth: int) -> SafetyReport:
    """Verify the property on every tree node up to ``max_depth``: a
    node watch on ``solver.explore`` that stops at the first failure."""
    found: list[Trace] = []

    def watch(u: Trace) -> str:
        if prop(u):
            return ""
        found.append(u)
        return "safety: counterexample found"

    watch.every_node = True
    result = solver.explore(max_depth, _watch=watch)
    return SafetyReport(
        property_name=prop.name, nodes_checked=result.nodes_explored,
        depth=max_depth, counterexample=found[0] if found else None,
        truncation_reason="" if found else result.truncation_reason,
    )


def check_safety_on_description(description: Description,
                                channels,
                                prop: SafetyProperty,
                                max_depth: int) -> SafetyReport:
    """Convenience: build the solver over channel alphabets."""
    solver = SmoothSolutionSolver.over_channels(description, channels)
    return check_safety(solver, prop, max_depth)


def check_progress(solution: Trace, prop: ProgressProperty,
                   horizon: int = DEFAULT_DEPTH) -> ProgressReport:
    """Find the earliest prefix of ``solution`` satisfying the goal."""
    for n in range(horizon + 1):
        prefix = solution.take(n)
        if prop(prefix):
            return ProgressReport(
                property_name=prop.name, satisfied_at=n,
                horizon=horizon,
            )
        if prefix.length() < n:
            break  # solution exhausted
    return ProgressReport(
        property_name=prop.name, satisfied_at=None, horizon=horizon,
    )


def check_progress_on_quiescent(solutions, prop: ProgressProperty
                                ) -> list[ProgressReport]:
    """Progress on each finite (quiescent) solution: the goal must hold
    of the solution itself."""
    reports = []
    for s in solutions:
        n = s.length()
        reports.append(ProgressReport(
            property_name=prop.name,
            satisfied_at=n if prop(s) else None,
            horizon=n,
        ))
    return reports
