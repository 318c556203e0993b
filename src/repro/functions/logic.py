"""The flat-domain logic functions of §4.3 and §4.5.

``R`` maps both ``T`` and ``F`` to ``T`` (and ``⊥`` to ``⊥``); applied
pointwise to a sequence it forgets the value of each bit while keeping
its presence — the trick that turns the deterministic equation style into
a specification of a *random* bit: any sequence of bits ``b`` with
``R(b) = T̄`` is acceptable.

``AND`` is the strict conjunction: ``⊥`` if either argument is ``⊥``,
``T`` iff both are ``T``, else ``F``.  Applied pointwise to two
sequences, the ``i``-th output exists only when both inputs have an
``i``-th element.  ``nonstrict_and`` is the variant from the §4.5 reader
exercise (``F`` wins even against ``⊥``); at the sequence level a
non-strict pointwise application would not be prefix-stable, which is
exactly why the paper's description uses the strict one — see
``tests/functions/test_logic.py`` for the demonstration.
"""

from __future__ import annotations

from typing import Any

from repro.functions.base import ContinuousFn, OpFn
from repro.functions.seq_fns import _with_face
from repro.order.flat import BOTTOM
from repro.seq.combinators import pointwise, seq_map
from repro.seq.finite import Seq


def r_bit(x: Any) -> Any:
    """The flat function ``R`` of §4.3: ``R(T) = R(F) = T``, ``R(⊥) = ⊥``."""
    if x is BOTTOM:
        return BOTTOM
    if x in ("T", "F"):
        return "T"
    raise ValueError(f"R is defined on {{T, F, ⊥}}, got {x!r}")


def and_bit(x: Any, y: Any) -> Any:
    """Strict ``AND``: ``⊥`` if either argument is ``⊥``; ``T`` iff both
    ``T``; ``F`` otherwise (§4.5)."""
    for v in (x, y):
        if v is BOTTOM:
            return BOTTOM
        if v not in ("T", "F"):
            raise ValueError(f"AND is defined on {{T, F, ⊥}}, got {v!r}")
    return "T" if (x, y) == ("T", "T") else "F"


def nonstrict_and_bit(x: Any, y: Any) -> Any:
    """Non-strict ``AND``: ``F`` if either argument is ``F``, ``T`` if
    both are ``T``, ``⊥`` otherwise (§4.5's reader exercise)."""
    if x == "F" or y == "F":
        return "F"
    if x == "T" and y == "T":
        return "T"
    return BOTTOM


def r_map(s: Seq) -> Seq:
    """``R`` applied pointwise to a bit sequence."""
    return seq_map(r_bit, s, name="R")


def and_map(a: Seq, b: Seq) -> Seq:
    """Strict ``AND`` applied pointwise to two bit sequences.

    Strictness at the element level becomes the min-length rule at the
    sequence level (an absent element is ``⊥``), which keeps the lifted
    function monotone in both arguments.
    """
    return pointwise(and_bit, a, b, name="AND")


# Tuple faces: the same pointwise maps on plain message tuples, for
# the compiled solver path (``map`` stops at the shorter argument —
# the min-length rule).
_with_face(r_map, lambda t: tuple(map(r_bit, t)))
_with_face(and_map, lambda a, b: tuple(map(and_bit, a, b)))


def r_of(fn: ContinuousFn) -> OpFn:
    """``R(fn)`` as a continuous trace function."""
    return OpFn(f"R({fn.name})", r_map, [fn])


def and_of(left: ContinuousFn, right: ContinuousFn) -> OpFn:
    """``left AND right`` as a continuous trace function."""
    return OpFn(f"({left.name} AND {right.name})", and_map,
                [left, right])
