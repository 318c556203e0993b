"""Unit tests for repro.core.description — the paper's §3.2."""

import itertools

import pytest

from repro.channels.channel import Channel
from repro.core.description import (
    Description,
    DescriptionSystem,
    combine,
)
from repro.functions.base import chan, const_seq
from repro.functions.seq_fns import even_of, odd_of, prepend_of
from repro.processes.merge import dfm_descriptions
from repro.seq.finite import fseq
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def t_of(*pairs):
    return Trace.from_pairs(pairs)


def dfm_description():
    return combine(dfm_descriptions(B, C, D), name="dfm")


class TestLimitCondition:
    def test_holds_on_quiescent_trace(self):
        assert dfm_description().limit_holds(t_of((B, 0), (D, 0)))

    def test_fails_on_pending_input(self):
        assert not dfm_description().limit_holds(t_of((B, 0)))

    def test_report_exactness(self):
        report = dfm_description().limit_report(t_of((B, 0), (D, 0)))
        assert report.holds and report.exact

    def test_report_bounded_for_lazy(self):
        t = Trace.cycle_pairs([(B, 0), (D, 0)])
        report = dfm_description().limit_report(t, depth=20)
        assert report.holds and not report.exact


class TestSmoothnessCondition:
    def test_output_needs_prior_input(self):
        # (d,0) with no input on b: violates f(v) ⊑ g(u) at u = ⊥
        violations = dfm_description().smoothness_violations(
            t_of((D, 0))
        )
        assert len(violations) == 1
        assert violations[0].u.length() == 0

    def test_input_first_is_smooth(self):
        assert dfm_description().smoothness_holds(
            t_of((B, 0), (D, 0))
        )

    def test_violation_records_values(self):
        v = dfm_description().smoothness_violations(t_of((D, 0)))[0]
        assert v.lhs_of_v[0].take(5) == fseq(0)
        assert "⋢" in str(v)


class TestSmoothSolutions:
    def test_paper_examples_positive(self):
        # §3.1.1 example 1's quiescent traces
        desc = dfm_description()
        assert desc.is_smooth_solution(Trace.empty())
        assert desc.is_smooth_solution(t_of((B, 0), (D, 0)))
        assert desc.is_smooth_solution(
            t_of((B, 0), (C, 1), (C, 3), (D, 1), (D, 3), (D, 0))
        )

    def test_paper_examples_negative(self):
        desc = dfm_description()
        assert not desc.is_smooth_solution(t_of((B, 0)))
        assert not desc.is_smooth_solution(
            t_of((B, 0), (D, 0), (C, 1))
        )

    def test_infinite_periodic_solution(self):
        t = Trace.cycle_pairs([(B, 0), (D, 0)])
        assert dfm_description().is_smooth_solution(t, depth=24)

    def test_verdict_fields(self):
        verdict = dfm_description().check(t_of((B, 0), (D, 0)))
        assert verdict.is_smooth and verdict.is_solution
        assert verdict.exact
        assert verdict.first_violation is None


class TestLemma2:
    def test_holds_on_smooth_solutions(self):
        desc = dfm_description()
        solution = t_of((B, 0), (C, 1), (D, 0), (D, 1))
        assert desc.is_smooth_solution(solution)
        assert desc.lemma2_holds(solution)

    def test_exhaustive_lemma2(self):
        # on every smooth solution over a small universe, f(s) ⊑ g(s)
        # holds for every finite prefix s — Lemma 2
        desc = dfm_description()
        events = [(B, 0), (C, 1), (D, 0), (D, 1)]
        for n in range(4):
            for combo in itertools.product(events, repeat=n):
                t = t_of(*combo)
                if desc.is_smooth_solution(t):
                    assert desc.lemma2_holds(t)


class TestTheorem1:
    def test_dfm_sides_are_independent(self):
        assert dfm_description().independent()

    def test_equivalence_on_independent_description(self):
        # Theorem 1: for independent sides the two characterizations
        # agree on every finite trace
        desc = dfm_description()
        events = [(B, 0), (C, 1), (D, 0), (D, 1)]
        for n in range(4):
            for combo in itertools.product(events, repeat=n):
                t = t_of(*combo)
                assert desc.is_smooth_solution(t) == \
                    desc.is_smooth_solution_thm1(t)

    def test_dependent_description_rejected(self):
        # the §2.3 network description names d on both sides
        desc = Description(even_of(chan(D)),
                           prepend_of(0, chan(D)))
        assert not desc.independent()
        with pytest.raises(ValueError):
            desc.is_smooth_solution_thm1(Trace.empty())


class TestCombination:
    def test_single_combination_is_identity(self):
        d = Description(chan(B), const_seq(fseq(0)))
        assert combine([d]) is d

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            combine([])

    def test_combined_is_conjunction(self):
        # a trace smooth for the combination iff smooth for both parts
        d1 = Description(even_of(chan(D)), chan(B))
        d2 = Description(odd_of(chan(D)), chan(C))
        both = combine([d1, d2])
        events = [(B, 0), (C, 1), (D, 0), (D, 1)]
        for n in range(3):
            for combo in itertools.product(events, repeat=n):
                t = t_of(*combo)
                assert both.is_smooth_solution(t) == (
                    d1.is_smooth_solution(t)
                    and d2.is_smooth_solution(t)
                )


class TestDescriptionSystem:
    def test_combined(self):
        system = DescriptionSystem(
            [
                Description(even_of(chan(D)), chan(B)),
                Description(odd_of(chan(D)), chan(C)),
            ],
            channels=[B, C, D],
        )
        assert system.is_smooth_solution(t_of((B, 0), (D, 0)))
        assert len(system) == 2

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            DescriptionSystem([], channels=[B])

    def test_satisfied_by_env(self):
        system = DescriptionSystem(
            [
                Description(even_of(chan(D)), chan(B)),
                Description(odd_of(chan(D)), chan(C)),
            ],
            channels=[B, C, D],
        )
        good = {B: fseq(0), C: fseq(1), D: fseq(0, 1)}
        bad = {B: fseq(0), C: fseq(1), D: fseq(1, 0, 2)}
        assert system.satisfied_by_env(good)
        assert not system.satisfied_by_env(bad)


class TestSupportAndDc:
    def test_support_union(self):
        desc = Description(even_of(chan(D)), chan(B))
        assert desc.support() == frozenset({B, D})

    def test_satisfies_dc(self):
        desc = Description(even_of(chan(D)), chan(B))
        assert desc.satisfies_dc(frozenset({B, D}))
        assert not desc.satisfies_dc(frozenset({B}))

    def test_substitute(self):
        desc = Description(chan(C), prepend_of(0, chan(B)))
        desc2 = desc.substitute(B, const_seq(fseq(2)))
        assert desc2.rhs.apply(Trace.empty()).take(5) == fseq(0, 2)
