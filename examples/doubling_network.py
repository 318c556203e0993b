#!/usr/bin/env python3
"""The Figure-3 doubling network (§2.3): many solutions, one smoothness
filter.

Processes P (``b ⟵ 0; 2×d``), Q (``c ⟵ 2×d+1``) and the discriminated
fair merge give, after eliminating ``b`` and ``c``:

    even(d) ⟵ 0; 2×d        odd(d) ⟵ 2×d + 1

The paper exhibits three infinite solutions: ``x`` (blocks B_i in
order), ``y`` (reversed blocks) and ``z`` (blocks C_i, containing −1).
``x`` and ``y`` are smooth — they correspond to two different merge
disciplines — while ``z`` is a pure equation artifact.

Run:  python examples/doubling_network.py
"""

from repro.channels import Channel, Event
from repro.core import combine, eliminate_channels
from repro.core.description import DescriptionSystem
from repro.processes.deterministic import (
    affine_description,
    doubler_description,
    doubling_descriptions,
)
from repro.processes.merge import dfm_descriptions
from repro.seq import Seq, misra_x, misra_y, misra_z
from repro.traces import Trace

D = Channel("d")
DEPTH = 48


def description():
    return combine(doubling_descriptions(D), name="fig3")


def d_trace(seq: Seq, name: str) -> Trace:
    def gen():
        i = 0
        while True:
            try:
                yield Event(D, seq.item(i))
            except IndexError:
                return
            i += 1

    return Trace.lazy(gen(), name=name)


def main() -> None:
    print("== deriving the network description by elimination (§7) ==")
    b = Channel("b")
    c = Channel("c")
    full = DescriptionSystem(
        [doubler_description(D, b), affine_description(D, c),
         *dfm_descriptions(b, c, D)],
        channels=[b, c, D],
    )
    for desc, process in zip(full, ("P", "Q", "dfm", "dfm")):
        print(f"  {desc.name:<13}{{{process}}}")
    derived = eliminate_channels(full, [b, c])
    print("after eliminating b, c:")
    for desc in derived:
        print(f"  {desc.name}")

    print("\n== the three solution sequences (§2.3) ==")
    desc = description()
    for name, seq in [("x", misra_x()), ("y", misra_y()),
                      ("z", misra_z())]:
        t = d_trace(seq, name)
        verdict = desc.check(t, depth=DEPTH)
        head = list(seq.take(8))
        print(f"  {name} = {head}…")
        print(f"     solves equations: {verdict.is_solution}   "
              f"smooth: {verdict.is_smooth}")
        if verdict.first_violation is not None:
            v = verdict.first_violation
            print(f"     first violation at |u|={v.u.length()}: "
                  f"the element {v.v.item(v.v.length()-1).message} "
                  "would have to cause itself")

    print("\n== progress & safety (provable from the equations) ==")
    x = list(misra_x().take(260))
    print(f"  every n < 32 appears in x: "
          f"{set(range(32)) <= set(x)}")
    ok = all(
        m // 2 in x[:i]
        for i, m in enumerate(x) if m > 0 and m % 2 == 0
    )
    print(f"  2n always preceded by n:   {ok}")


if __name__ == "__main__":
    main()
