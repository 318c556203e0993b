"""The Brock–Ackermann anomaly (§2.4) — the paper's headline negative
example, reproduced end to end."""

from repro.anomaly.brock_ackermann import (
    SOLUTION_ANOMALOUS,
    SOLUTION_REAL,
    analyse,
    candidate_sequences,
    channels,
    combined_description,
    eliminated_system,
    full_system,
    operational_outputs,
    solves_equations,
    trace_of_output,
)
from repro.core.compiled import decide_smooth_solution
from repro.core.description import DEFAULT_DEPTH
from repro.seq.finite import fseq


class TestEquations:
    def test_exactly_two_solutions(self):
        b, c = channels()
        system = eliminated_system(b, c)
        solutions = [
            s for s in candidate_sequences()
            if solves_equations(c, s, system)
        ]
        assert solutions == [SOLUTION_ANOMALOUS, SOLUTION_REAL]

    def test_solution_values(self):
        assert SOLUTION_ANOMALOUS == fseq(0, 1, 2)
        assert SOLUTION_REAL == fseq(0, 2, 1)

    def test_elimination_matches_paper(self):
        # the eliminated system is even(c) ⟵ ⟨0 2⟩, odd(c) ⟵ f(c)
        b, c = channels()
        system = eliminated_system(b, c)
        assert len(system) == 2
        assert b not in system.channels


class TestSmoothness:
    def test_anomalous_solution_rejected(self):
        b, c = channels()
        desc = combined_description(b, c)
        verdict = desc.check(trace_of_output(c, SOLUTION_ANOMALOUS))
        assert verdict.is_solution        # satisfies the equations…
        assert not verdict.is_smooth      # …but is not smooth

    def test_rejection_witness_matches_paper(self):
        """The paper: ⟨0 1 2⟩ is not smooth because
        ¬(odd(⟨0 1⟩) ⊑ f(⟨0⟩))."""
        b, c = channels()
        desc = combined_description(b, c)
        violation = desc.check(
            trace_of_output(c, SOLUTION_ANOMALOUS)
        ).first_violation
        assert violation is not None
        assert violation.u == trace_of_output(c, fseq(0))
        assert violation.v == trace_of_output(c, fseq(0, 1))

    def test_real_solution_accepted(self):
        b, c = channels()
        desc = combined_description(b, c)
        verdict = desc.check(trace_of_output(c, SOLUTION_REAL))
        assert verdict.is_smooth and verdict.exact

    def test_full_system_agrees_on_interleaved_traces(self):
        # before elimination, with b-events interleaved: the real
        # computation's trace is smooth for the full three-description
        # system
        from repro.traces.trace import Trace

        b, c = channels()
        system = full_system(b, c)
        t = Trace.from_pairs([(c, 0), (c, 2), (b, 1), (c, 1)])
        assert system.is_smooth_solution(t)
        anomalous = Trace.from_pairs([(c, 0), (b, 1), (c, 1), (c, 2)])
        assert not system.is_smooth_solution(anomalous)


class TestBothCheckPaths:
    """§2.4's verdict holds on the compiled walk and on the reference
    check alike: of the candidate sequences only ``0 2 1`` is smooth."""

    def test_only_the_real_solution_is_smooth_on_both_paths(self):
        b, c = channels()
        desc = combined_description(b, c)
        sequences = list(candidate_sequences())
        compiled = [tuple(s) for s in sequences
                    if desc.is_smooth_solution(trace_of_output(c, s))]
        reference = [tuple(s) for s in sequences
                     if desc.check(trace_of_output(c, s)).is_smooth]
        assert compiled == reference == [(0, 2, 1)]

    def test_eliminated_description_is_decided_compiled(self):
        b, c = channels()
        desc = combined_description(b, c)
        for s in candidate_sequences():
            t = trace_of_output(c, s)
            assert decide_smooth_solution(desc, t, DEFAULT_DEPTH) is \
                desc.check(t).is_smooth


class TestOperational:
    def test_only_the_real_solution_is_computed(self):
        assert operational_outputs(n_seeds=40) == {SOLUTION_REAL}

    def test_full_analysis(self):
        analysis = analyse(n_seeds=30)
        assert analysis.anomalous_rejected
        assert analysis.resolved
        assert [tuple(s) for s in analysis.smooth_solutions] == \
            [(0, 2, 1)]
