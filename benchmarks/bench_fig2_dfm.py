"""[F2] Figure 2 / §2.2: the discriminated fair merge ``dfm``.

Paper claims regenerated:
* the descriptions ``even(d) ⟵ b, odd(d) ⟵ c`` capture nondeterminism
  *and* fairness: smooth solutions are exactly the fair merges;
* the §3.1.1 quiescent / non-quiescent classification;
* solver enumeration matches operational sampling (computations ⇔
  smooth solutions).
"""

from conftest import banner, row

from repro.channels import Channel
from repro.core import combine, solve
from repro.kahn import check_operational_soundness, collect_traces
from repro.kahn.agents import dfm_agent, source_agent
from repro.processes.merge import dfm_descriptions
from repro.traces import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def network():
    return {
        "env-b": source_agent(B, [0, 2]),
        "env-c": source_agent(C, [1]),
        "dfm": dfm_agent(B, C, D),
    }


def test_classification_of_histories(benchmark):
    desc = dfm()
    histories = [
        ("ε", Trace.empty(), "quiescent"),
        ("(b,0)(d,0)", Trace.from_pairs([(B, 0), (D, 0)]),
         "quiescent"),
        ("(b,0)(c,1)(c,3)(d,1)(d,3)(d,0)",
         Trace.from_pairs([(B, 0), (C, 1), (C, 3), (D, 1), (D, 3),
                           (D, 0)]), "quiescent"),
        ("(b,0)", Trace.from_pairs([(B, 0)]), "non-quiescent"),
        ("(b,0)(d,0)(c,1)",
         Trace.from_pairs([(B, 0), (D, 0), (C, 1)]),
         "non-quiescent"),
    ]

    def classify():
        return [desc.check(t) for _, t, _ in histories]

    verdicts = benchmark(classify)
    banner("F2", "§3.1.1 classification of dfm communication histories")
    for (label, _, expected), verdict in zip(histories, verdicts):
        got = "quiescent" if verdict.is_smooth else "non-quiescent"
        row(label, f"{got}  (paper: {expected})")
        assert got == expected


def test_solver_enumeration(benchmark):
    result = benchmark(lambda: solve(dfm(), [B, C, D], max_depth=4))
    banner("F2", "§3.3 enumeration of dfm smooth solutions to depth 4")
    row("nodes explored", result.nodes_explored)
    row("finite smooth solutions", len(result.finite_solutions))
    assert result.finite_solutions


def test_operational_cross_check(benchmark):
    def check():
        return check_operational_soundness(
            network, [B, C, D], dfm(), seeds=range(30),
            max_steps=80,
        )

    report = benchmark(check)
    banner("F2", "computations ⇔ smooth solutions (operational sample)")
    row("quiescent runs smooth", f"{report.quiescent_smooth}"
        f"/{report.quiescent_checked}")
    row("all agree", report.all_agree)
    assert report.all_agree


def test_fair_merge_output_orders(benchmark):
    def outputs():
        sample = collect_traces(network, [B, C, D],
                                seeds=range(80), max_steps=80)
        return {
            tuple(t.messages_on(D))
            for t in sample.distinct_quiescent()
        }

    got = benchmark(outputs)
    banner("F2", "all fair interleavings of ⟨0 2⟩ and ⟨1⟩ are computed")
    row("output orders observed", sorted(got))
    assert got == {(0, 2, 1), (0, 1, 2), (1, 0, 2)}
