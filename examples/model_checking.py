#!/usr/bin/env python3
"""Model checking with descriptions: safety, progress, and exhaustive
schedule exploration.

The paper sells equational descriptions as a *reasoning* tool (§2.3
proves progress and safety of the doubling network from its equations).
This script shows the executable version on the dfm merge:

1. a safety property checked on every reachable history (§3.3 tree);
2. a progress property checked on a solution;
3. the central claim as a set equality: every schedule of the machine
   enumerated, every smooth solution of the description enumerated,
   and the two sets compared elementwise.

Run:  python examples/model_checking.py
"""

from repro.channels import Channel
from repro.core import combine, solve
from repro.kahn import exhaustive_quiescent_traces
from repro.kahn.agents import dfm_agent, source_agent
from repro.processes.merge import dfm_descriptions
from repro.reasoning import (
    check_progress,
    check_safety_on_description,
    counting_bound,
    eventually_all,
    never_message,
    outputs_justified_by_inputs,
)
from repro.seq import fseq
from repro.traces import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def main() -> None:
    dfm = combine(dfm_descriptions(B, C, D), name="dfm")

    print("== safety on every reachable history ==")
    for prop in [
        outputs_justified_by_inputs([B, C], [D]),
        counting_bound("outputs ≤ inputs", D,
                       lambda t: t.count_on(B) + t.count_on(C)),
    ]:
        report = check_safety_on_description(dfm, [B, C, D], prop,
                                             max_depth=4)
        print(f"  {report}")

    print("\n== a property that fails, with its counterexample ==")
    report = check_safety_on_description(
        dfm, [B, C, D], never_message(D, 3), max_depth=3,
    )
    print(f"  {report}")

    print("\n== progress on a solution ==")
    solution = Trace.from_pairs(
        [(B, 0), (C, 1), (D, 1), (B, 2), (D, 0), (D, 2)]
    )
    assert dfm.is_smooth_solution(solution)
    goal = eventually_all("all inputs forwarded", D, [0, 1, 2])
    print(f"  {check_progress(solution, goal, horizon=10)}")

    print("\n== the central claim, as a set equality ==")
    computations = exhaustive_quiescent_traces(
        lambda: {
            "env-b": source_agent(B, [0, 2]),
            "env-c": source_agent(C, [1]),
            "dfm": dfm_agent(B, C, D),
        },
        [B, C, D], max_steps=60,
    )
    solutions = {
        t for t in solve(dfm, [B, C, D], max_depth=6).finite_solutions
        if t.messages_on(B) == fseq(0, 2)
        and t.messages_on(C) == fseq(1)
    }
    print(f"  computations (every schedule): {len(computations)}")
    print(f"  smooth solutions (solver):     {len(solutions)}")
    print(f"  sets equal elementwise:        "
          f"{computations == solutions}")
    assert computations == solutions


if __name__ == "__main__":
    main()
