"""Descriptions and smooth solutions (§3.2) — the paper's core idea.

A *description* is an ordered pair of continuous functions ``f ⟵ g``
(the sides do not commute).  A trace ``t`` is a *smooth solution* iff

* limit condition:       ``f(t) = g(t)``, and
* smoothness condition:  ``f(v) ⊑ g(u)`` for all ``u pre v in t``.

Smoothness is checked exactly (finite prefixes yield finite values); the
limit condition on an infinite trace is checked to a configurable depth —
conclusive for "no", certified-to-depth for "yes" (the
:class:`~repro.core.solution.SolutionVerdict` records which).

Also here: Lemma 2, Theorem 1 (the simpler characterization for
*independent* sides), the multiple-descriptions-into-one combination
(Note in §4), and :class:`DescriptionSystem`, the container that the
composition (§5) and variable-elimination (§7) machinery operate on.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence as PySeq

from repro.channels.channel import Channel
from repro.core.solution import (
    LimitReport,
    SmoothnessViolation,
    SolutionVerdict,
)
from repro.functions.base import (
    ContinuousFn,
    TupleFn,
    are_independent,
)
from repro.order.cpo import Cpo
from repro.traces.trace import Trace

#: Default prefix depth for bounded checks on lazy traces.
DEFAULT_DEPTH = 64


class Description:
    """The pair ``f ⟵ g`` of continuous trace functions."""

    def __init__(self, lhs: ContinuousFn, rhs: ContinuousFn,
                 name: str = ""):
        self.lhs = lhs
        self.rhs = rhs
        self.name = name or f"{lhs.name} ⟵ {rhs.name}"

    @property
    def codomain(self) -> Cpo:
        """The cpo both sides map into (taken from the left side)."""
        return self.lhs.codomain

    def __repr__(self) -> str:
        return f"⟦{self.name}⟧"

    # -- bounded order helpers ---------------------------------------------

    def _leq(self, a: Any, b: Any, depth: int) -> bool:
        """``a ⊑ b`` — exact when decidable, else bounded to ``depth``."""
        try:
            return self.codomain.leq(a, b)
        except ValueError:
            return self.codomain.leq_upto(a, b, depth)

    # -- the two defining conditions ---------------------------------------

    def limit_report(self, t: Trace,
                     depth: int = DEFAULT_DEPTH,
                     lhs_value: Any = None,
                     rhs_value: Any = None) -> LimitReport:
        """Check ``f(t) = g(t)``.

        Finite traces are checked by direct (bounded-only-if-the-values-
        are-lazy) comparison.  For a lazy ``t`` the values are the lubs
        of the chains ``f(t↾n)``/``g(t↾n)``; we never apply either side
        to the unbounded trace itself (filters over infinite streams
        need not terminate).  Instead the chains are sampled at two
        horizons: positions below ``depth`` must agree wherever both
        limits are determined, and a side whose chain has stopped
        growing while the other is ahead is conclusively unequal.

        ``lhs_value``/``rhs_value`` let a caller that has *already*
        evaluated ``f(t)``/``g(t)`` (the §3.3 solver computes both per
        node for the admissibility tests) pass them in instead of
        re-evaluating; they are only honoured for known-finite ``t``,
        where "apply the side to the trace" is exactly the value the
        caller holds.
        """
        if t.is_known_finite():
            fv = (self.lhs.apply(t) if lhs_value is None
                  else lhs_value)
            gv = (self.rhs.apply(t) if rhs_value is None
                  else rhs_value)
            holds = self.codomain.eq_upto(fv, gv, depth)
            exact = _value_is_finite(fv) and _value_is_finite(gv)
            return LimitReport(holds=holds, exact=exact, lhs_value=fv,
                               rhs_value=gv, depth=depth)
        near = t.take(depth + 4)
        far = t.take(2 * depth + 8)
        f_near, g_near = self.lhs.apply(near), self.rhs.apply(near)
        f_far, g_far = self.lhs.apply(far), self.rhs.apply(far)
        holds = _chain_limits_agree(
            f_near, g_near, f_far, g_far, depth
        )
        return LimitReport(holds=holds, exact=False, lhs_value=f_far,
                           rhs_value=g_far, depth=depth)

    def limit_holds(self, t: Trace, depth: int = DEFAULT_DEPTH) -> bool:
        return self.limit_report(t, depth).holds

    def smoothness_violations(
            self, t: Trace, depth: int = DEFAULT_DEPTH
    ) -> list[SmoothnessViolation]:
        """All failures of ``f(v) ⊑ g(u)`` among ``u pre v in t`` (bounded).

        For a finite ``t`` shorter than ``depth`` the check is complete;
        an empty result is then an exact "smoothness holds".
        """
        violations = []
        for u, v in t.pre_pairs(depth):
            fv = self.lhs.apply(v)
            gu = self.rhs.apply(u)
            if not self._leq(fv, gu, depth):
                violations.append(
                    SmoothnessViolation(u=u, v=v, lhs_of_v=fv,
                                        rhs_of_u=gu,
                                        description=self.name)
                )
        return violations

    def smoothness_holds(self, t: Trace,
                         depth: int = DEFAULT_DEPTH) -> bool:
        return not self.smoothness_violations(t, depth)

    def check(self, t: Trace, depth: int = DEFAULT_DEPTH
              ) -> SolutionVerdict:
        """Full smooth-solution verdict for ``t``."""
        limit = self.limit_report(t, depth)
        violations = self.smoothness_violations(t, depth)
        exact = limit.exact and (
            t.is_known_finite() and t.length() <= depth
        )
        return SolutionVerdict(
            trace=t,
            description_name=self.name,
            limit=limit,
            violations=violations,
            depth=depth,
            exact=exact,
        )

    def is_smooth_solution(self, t: Trace,
                           depth: int = DEFAULT_DEPTH) -> bool:
        """``self.check(t, depth).is_smooth``, which stays the reference.

        A known-finite trace of a compilable description is decided
        in one incremental pass
        (:func:`repro.core.compiled.decide_smooth_solution`); every
        other input goes through :meth:`check`.
        """
        from repro.core.compiled import decide_smooth_solution

        verdict = decide_smooth_solution(self, t, depth)
        if verdict is None:
            return self.check(t, depth).is_smooth
        return verdict

    # -- Lemma 2 and Theorem 1 ---------------------------------------------

    def lemma2_holds(self, t: Trace, depth: int = DEFAULT_DEPTH) -> bool:
        """Lemma 2's conclusion: ``f(v) ⊑ g(v)`` on every finite prefix.

        For a smooth solution this must hold; tests verify the lemma by
        checking it on solutions produced independently.
        """
        for n in range(depth + 1):
            v = t.take(n)
            if not self._leq(self.lhs.apply(v), self.rhs.apply(v), depth):
                return False
            if v.length() < n:
                break
        return True

    def independent(self) -> bool:
        """Theorem 1's side condition: disjoint channel supports."""
        return are_independent(self.lhs, self.rhs)

    def is_smooth_solution_thm1(self, t: Trace,
                                depth: int = DEFAULT_DEPTH) -> bool:
        """Theorem 1's characterization (only valid when independent):

        ``t`` smooth  ≡  ``f(t) = g(t)`` and ``f(s) ⊑ g(s)`` on every
        finite prefix ``s``.
        """
        if not self.independent():
            raise ValueError(
                f"{self.name}: Theorem 1 requires independent sides"
            )
        return self.limit_holds(t, depth) and self.lemma2_holds(t, depth)

    # -- structure -----------------------------------------------------------

    def substitute(self, channel: Channel,
                   replacement: ContinuousFn) -> "Description":
        """Both sides with ``channel := replacement`` (used by §7)."""
        return Description(
            self.lhs.substitute(channel, replacement),
            self.rhs.substitute(channel, replacement),
        )

    def support(self) -> Optional[frozenset[Channel]]:
        """Union of the two sides' supports, if both are known."""
        if self.lhs.support is None or self.rhs.support is None:
            return None
        return self.lhs.support | self.rhs.support

    def satisfies_dc(self, incident: frozenset[Channel]) -> bool:
        """The description constraint of §5: both sides depend only on
        the process's incident channels."""
        return (
            self.lhs.depends_only_on(incident)
            and self.rhs.depends_only_on(incident)
        )


def combine(descriptions: PySeq[Description],
            name: str = "") -> Description:
    """Combine several descriptions into one (Note in §4).

    ``f`` is the tuple of the left sides, ``g`` of the right sides; the
    codomain is the product cpo, ordered componentwise — so ``t`` is a
    smooth solution of the combination iff it satisfies each component's
    limit condition and the conjunction of the smoothness conditions.
    """
    if not descriptions:
        raise ValueError("cannot combine zero descriptions")
    if len(descriptions) == 1:
        return descriptions[0]
    lhs = TupleFn([d.lhs for d in descriptions])
    rhs = TupleFn([d.rhs for d in descriptions])
    return Description(
        lhs, rhs,
        name=name or " , ".join(d.name for d in descriptions),
    )


class DescriptionSystem:
    """An ordered collection of descriptions over a shared channel set.

    This is the form in which networks are written down (§2.3, §4.10):
    one description per component process or per defined channel, with
    elimination (§7) and composition (§5) acting on the system.
    """

    def __init__(self, descriptions: Iterable[Description],
                 channels: Iterable[Channel], name: str = "system"):
        self.descriptions = list(descriptions)
        self.channels = frozenset(channels)
        self.name = name
        if not self.descriptions:
            raise ValueError("a description system needs ≥1 description")

    def combined(self) -> Description:
        """The single combined description of the whole system."""
        return combine(self.descriptions, name=self.name)

    def check(self, t: Trace, depth: int = DEFAULT_DEPTH
              ) -> SolutionVerdict:
        return self.combined().check(t, depth)

    def is_smooth_solution(self, t: Trace,
                           depth: int = DEFAULT_DEPTH) -> bool:
        return self.combined().is_smooth_solution(t, depth)

    def satisfied_by_env(self, env: Mapping[Channel, Any],
                         depth: int = DEFAULT_DEPTH) -> bool:
        """Do per-channel sequences satisfy the *equations* (limit only)?

        This evaluates each description on a channel environment — the
        equation-solving view of §2.2/§2.3, where the interleaving is
        abstracted away.  Smoothness, which constrains interleavings,
        cannot be checked this way.
        """
        for d in self.descriptions:
            lv = d.lhs.apply_env(env)
            rv = d.rhs.apply_env(env)
            if not d.codomain.eq_upto(lv, rv, depth):
                return False
        return True

    def __iter__(self):
        return iter(self.descriptions)

    def __len__(self) -> int:
        return len(self.descriptions)

    def __repr__(self) -> str:
        body = "; ".join(d.name for d in self.descriptions)
        return f"System[{self.name}: {body}]"


def _chain_limits_agree(f_near: Any, g_near: Any, f_far: Any,
                        g_far: Any, depth: int) -> bool:
    """Do the limits of the two prefix-application chains agree (below
    ``depth``), judging from samples at two horizons?

    The chain values come from *finite* trace prefixes, so taking their
    first ``depth`` elements always terminates.  Rules per position
    ``i < depth``: if both samples determine position ``i`` the values
    must match; if one side is behind, it must at least still be
    growing between the horizons (a stalled side with the other ahead
    means the limits differ).  The optimistic case (shorter side still
    growing) certifies agreement only on the common prefix — the usual
    bounded-check caveat, recorded by ``exact=False`` in the report.
    """
    from repro.seq.finite import Seq

    if isinstance(f_far, tuple):
        return all(
            _chain_limits_agree(fn, gn, ff, gf, depth)
            for fn, gn, ff, gf in
            zip(f_near, g_near, f_far, g_far)
        )
    if isinstance(f_far, Trace):
        f_near, g_near = f_near.events, g_near.events
        f_far, g_far = f_far.events, g_far.events
    if isinstance(f_far, Seq):
        fa, ga = f_far.take(depth), g_far.take(depth)
        common = min(len(fa), len(ga))
        if fa.take(common) != ga.take(common):
            return False
        if len(fa) == len(ga):
            return True
        short_far, short_near, long_far = (
            (fa, f_near.take(depth), ga) if len(fa) < len(ga)
            else (ga, g_near.take(depth), fa)
        )
        del long_far
        # behind and not growing between horizons ⇒ limits differ
        return len(short_far) > len(short_near)
    # flat-domain values: chains stabilize after one step
    return f_far == g_far


def _value_is_finite(value: Any) -> bool:
    """Is a codomain value fully materialized (no unknown tail)?"""
    from repro.seq.finite import Seq

    if isinstance(value, tuple):
        return all(_value_is_finite(v) for v in value)
    if isinstance(value, Seq):
        return value.known_length() is not None
    if isinstance(value, Trace):
        return value.is_known_finite()
    return True
