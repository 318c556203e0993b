"""[F3] Figure 3 / §2.3: the doubling network.

Paper claims regenerated:
* ``x`` and ``y`` are smooth solutions of
  ``even(d) ⟵ 0;2×d , odd(d) ⟵ 2×d+1``;
* ``z`` solves the equations but violates smoothness at ``u = ε,
  v = ⟨−1⟩``;
* progress (every natural appears) and safety (2n preceded by n);
* the description is *derivable* from the component descriptions by
  variable elimination (§7).
"""

from conftest import banner, row

from repro.channels import Channel, Event
from repro.core import combine, eliminate_channels
from repro.core.description import DescriptionSystem
from repro.processes.deterministic import (
    affine_description,
    doubler_description,
    doubling_descriptions,
)
from repro.processes.merge import dfm_descriptions
from repro.seq import misra_x, misra_y, misra_z
from repro.traces import Trace

D = Channel("d")
DEPTH = 48


def description():
    return combine(doubling_descriptions(D), name="fig3")


def d_trace(seq, name):
    def gen():
        i = 0
        while True:
            try:
                yield Event(D, seq.item(i))
            except IndexError:
                return
            i += 1

    return Trace.lazy(gen(), name=name)


def test_xyz_classification(benchmark):
    desc = description()

    def classify():
        return {
            name: desc.check(d_trace(seq, name), depth=DEPTH)
            for name, seq in [("x", misra_x()), ("y", misra_y()),
                              ("z", misra_z())]
        }

    verdicts = benchmark(classify)
    banner("F3", "solutions x, y smooth; z a non-computation solution")
    for name in "xyz":
        v = verdicts[name]
        row(f"{name}: solves equations / smooth",
            f"{v.is_solution} / {v.is_smooth}")
    assert verdicts["x"].is_smooth
    assert verdicts["y"].is_smooth
    assert verdicts["z"].is_solution and not verdicts["z"].is_smooth
    violation = verdicts["z"].first_violation
    row("z rejected at", f"u = ε, v = ⟨-1⟩ "
        f"(|u| = {violation.u.length()})")
    assert violation.u.length() == 0


def test_elimination_derives_network_description(benchmark):
    b = Channel("b")
    c = Channel("c")

    def derive():
        full = DescriptionSystem(
            [doubler_description(D, b), affine_description(D, c),
             *dfm_descriptions(b, c, D)],
            channels=[b, c, D],
        )
        return eliminate_channels(full, [b, c])

    derived = benchmark(derive)
    banner("F3", "eliminating b, c yields equations (1, 2) of §2.3")
    for desc in derived:
        row("derived description", desc.name)
    assert derived.is_smooth_solution(d_trace(misra_x(), "x"),
                                      depth=32)
    assert not derived.is_smooth_solution(d_trace(misra_z(), "z"),
                                          depth=32)


def test_progress_property(benchmark):
    def check():
        seen = set(misra_x().take(2 * 2 ** 7))
        return all(n in seen for n in range(64))

    ok = benchmark(check)
    banner("F3", "progress: every natural number appears in the output")
    row("naturals 0..63 all appear", ok)
    assert ok


def test_safety_property(benchmark):
    def check():
        items = list(misra_x().take(300))
        return all(
            m // 2 in items[:i]
            for i, m in enumerate(items) if m > 0 and m % 2 == 0
        )

    ok = benchmark(check)
    banner("F3", "safety: the appearance of 2n is preceded by n")
    row("2n preceded by n (300-prefix)", ok)
    assert ok
