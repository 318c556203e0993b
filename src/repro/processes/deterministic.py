"""The deterministic (Kahn) processes used in §2.

* ``copy``        — ``c ⟵ b`` (§2.1, Figure 1);
* ``prepend0``    — ``b ⟵ 0; c`` (§2.1's modified second process);
* ``doubler`` P   — ``b ⟵ 0; 2×d`` (§2.3, Figure 3);
* ``affine`` Q    — ``c ⟵ 2×d + 1`` (§2.3);
* ``doubling``    — Figure 3 with ``b``, ``c`` eliminated from P, Q and
  dfm: ``even(d) ⟵ 0;2×d , odd(d) ⟵ 2×d+1`` (§2.3);
* Brock–Ackermann A — ``even(c) ⟵ ⟨0 2⟩ , odd(c) ⟵ b`` (§2.4) — a fair
  merge of the input with the stored sequence ``⟨0 2⟩`` (even outputs
  discriminate the stored items from the odd inputs);
* Brock–Ackermann B — ``b ⟵ f(c)`` with ``f(n; m; x) = ⟨n + 1⟩``.

Kahn-style equations become descriptions directly (left side a channel
function, right side any continuous expression); Theorem 1 applies to
each — the sides are independent — and Theorem 4 makes their networks'
least fixpoints the unique smooth solutions.
"""

from __future__ import annotations

from typing import Optional

from repro.channels.channel import Channel
from repro.core.description import Description, DescriptionSystem
from repro.functions.base import chan, const_seq
from repro.functions.seq_fns import (
    affine_of,
    brock_f_of,
    even_of,
    odd_of,
    prepend_of,
    scale_of,
)
from repro.processes.process import DescribedProcess
from repro.seq.finite import fseq


def copy_description(b: Channel, c: Channel) -> Description:
    """``c ⟵ b``: copy every input to the output (§2.1)."""
    return Description(chan(c), chan(b),
                       name=f"{c.name} ⟵ {b.name}")


def prepend0_description(c: Channel, b: Channel) -> Description:
    """``b ⟵ 0; c``: send a 0 first, then copy (§2.1)."""
    return Description(chan(b), prepend_of(0, chan(c)),
                       name=f"{b.name} ⟵ 0;{c.name}")


def doubler_description(d: Channel, b: Channel) -> Description:
    """Process P of §2.3: ``b ⟵ 0; 2×d``."""
    return Description(chan(b), prepend_of(0, scale_of(2, chan(d))),
                       name=f"{b.name} ⟵ 0;2×{d.name}")


def affine_description(d: Channel, c: Channel) -> Description:
    """Process Q of §2.3: ``c ⟵ 2×d + 1``."""
    return Description(chan(c), affine_of(2, 1, chan(d)),
                       name=f"{c.name} ⟵ 2×{d.name}+1")


def doubling_descriptions(d: Channel) -> list[Description]:
    """Figure 3 after §2.3 eliminates ``b`` and ``c`` from P, Q and
    dfm: ``even(d) ⟵ 0;2×d , odd(d) ⟵ 2×d+1``."""
    return [
        Description(even_of(chan(d)), prepend_of(0, scale_of(2, chan(d))),
                    name=f"even({d.name}) ⟵ 0;2×{d.name}"),
        Description(odd_of(chan(d)), affine_of(2, 1, chan(d)),
                    name=f"odd({d.name}) ⟵ 2×{d.name}+1"),
    ]


def brock_a_descriptions(b: Channel, c: Channel) -> list[Description]:
    """Process A of §2.4: ``even(c) ⟵ ⟨0 2⟩ , odd(c) ⟵ b``."""
    return [
        Description(even_of(chan(c)), const_seq(fseq(0, 2), name="⟨0 2⟩"),
                    name=f"even({c.name}) ⟵ ⟨0 2⟩"),
        Description(odd_of(chan(c)), chan(b),
                    name=f"odd({c.name}) ⟵ {b.name}"),
    ]


def brock_b_description(c: Channel, b: Channel) -> Description:
    """Process B of §2.4: ``b ⟵ f(c)``."""
    return Description(chan(b), brock_f_of(chan(c)),
                       name=f"{b.name} ⟵ f({c.name})")


# ---------------------------------------------------------------------------
# Packaged processes
# ---------------------------------------------------------------------------

def make_copy(b: Optional[Channel] = None,
              c: Optional[Channel] = None,
              name: str = "copy") -> DescribedProcess:
    b = b or Channel("b", alphabet={0, 1})
    c = c or Channel("c", alphabet={0, 1})
    system = DescriptionSystem([copy_description(b, c)],
                               channels=[b, c], name=name)
    return DescribedProcess(name, [b, c], system)


def make_prepend0(c: Optional[Channel] = None,
                  b: Optional[Channel] = None,
                  name: str = "prepend0") -> DescribedProcess:
    c = c or Channel("c", alphabet={0})
    b = b or Channel("b", alphabet={0})
    system = DescriptionSystem([prepend0_description(c, b)],
                               channels=[b, c], name=name)
    return DescribedProcess(name, [b, c], system)


def make_doubler(d: Channel, b: Channel,
                 name: str = "P") -> DescribedProcess:
    system = DescriptionSystem([doubler_description(d, b)],
                               channels=[b, d], name=name)
    return DescribedProcess(name, [b, d], system)


def make_affine(d: Channel, c: Channel,
                name: str = "Q") -> DescribedProcess:
    system = DescriptionSystem([affine_description(d, c)],
                               channels=[c, d], name=name)
    return DescribedProcess(name, [c, d], system)


def make_brock_a(b: Channel, c: Channel) -> DescribedProcess:
    system = DescriptionSystem(brock_a_descriptions(b, c),
                               channels=[b, c], name="A")
    return DescribedProcess("A", [b, c], system)


def make_brock_b(c: Channel, b: Channel) -> DescribedProcess:
    system = DescriptionSystem([brock_b_description(c, b)],
                               channels=[b, c], name="B")
    return DescribedProcess("B", [b, c], system)
