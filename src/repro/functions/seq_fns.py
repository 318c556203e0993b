"""The sequence operations used by the paper's descriptions.

Each operation here is a monotone, prefix-stable transformation of
message sequences (lazy-aware via :mod:`repro.seq.combinators`), together
with a lifting helper that applies it to the value of a
:class:`~repro.functions.base.ContinuousFn` — yielding the composite
continuous trace functions the descriptions are written with:

======================  =====================================================
paper                   here
======================  =====================================================
``even(d)`` (§2.2)      ``even_of(chan(d))``
``odd(d)``              ``odd_of(chan(d))``
``0; 2×d`` (§2.3)       ``prepend_of(0, scale_of(2, chan(d)))``
``2×d + 1``             ``affine_of(2, 1, chan(d))``
``TRUE(c)`` (§4.7)      ``true_of(chan(c))``
``ZERO(b)`` (§4.10)     ``tagged_of(0, chan(b))``
``g(c)`` (§4.8)         ``until_first_f_of(chan(c))``
``h(c)`` (§4.9)         ``count_ticks_of(chan(c))``
``t0(c)``/``r(b)``      ``tag_of(0, chan(c))`` / ``untag_of(chan(b))``
``g(c,b)``/``h(c,b)``   ``select_of(chan(c), chan(b), 'T'/'F')`` (§4.6)
``f(c)`` (§2.4)         ``brock_f_of(chan(c))``
======================  =====================================================
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.functions.base import ContinuousFn, OpFn
from repro.seq.combinators import (
    pointwise,
    seq_filter,
    seq_map,
    subsequence_positions,
    take_while,
)
from repro.seq.finite import EMPTY, FiniteSeq, Seq, fseq
from repro.seq.lazy import LazySeq


def _with_face(op, face):
    """Attach a *tuple face* to a sequence operation.

    A tuple face is the operation restricted to finite sequences
    represented as plain tuples: it receives one tuple per argument
    and must return the tuple that ``op`` on the corresponding
    ``FiniteSeq`` arguments would produce (it must be pure — same
    tuples in, same tuple out).  The compiled solver path
    (:mod:`repro.core.compiled`) dispatches to faces to skip the
    ``Seq`` boxing entirely; operations without a face still compile
    through a generic box/unbox wrapper, just more slowly.
    """
    op.tuple_face = face
    return op


# ---------------------------------------------------------------------------
# Subsequence filters
# ---------------------------------------------------------------------------

def even_filter(s: Seq) -> Seq:
    """``even``: the subsequence of even integers (§2.2)."""
    return seq_filter(lambda n: n % 2 == 0, s, name="even")


def odd_filter(s: Seq) -> Seq:
    """``odd``: the subsequence of odd integers (§2.2)."""
    return seq_filter(lambda n: n % 2 != 0, s, name="odd")


def true_filter(s: Seq) -> Seq:
    """``TRUE``: the subsequence of ``'T'`` elements (§4.7)."""
    return seq_filter(lambda x: x == "T", s, name="TRUE")


def false_filter(s: Seq) -> Seq:
    """``FALSE``: the subsequence of ``'F'`` elements (§4.7)."""
    return seq_filter(lambda x: x == "F", s, name="FALSE")


def tagged_filter(tag: Any, s: Seq) -> Seq:
    """``ZERO``/``ONE``: the subsequence of pairs tagged ``tag`` (§4.10)."""
    return seq_filter(
        lambda p: isinstance(p, tuple) and len(p) == 2 and p[0] == tag,
        s, name=f"tag={tag!r}",
    )


# ---------------------------------------------------------------------------
# Pointwise maps
# ---------------------------------------------------------------------------

def scale(k: int, s: Seq) -> Seq:
    """``k × s``: scale every element (§2.3's ``2×d``)."""
    return seq_map(lambda n: k * n, s, name=f"{k}×")


def affine(a: int, b: int, s: Seq) -> Seq:
    """``a × s + b`` pointwise (§2.3's ``2×d + 1``)."""
    return seq_map(lambda n: a * n + b, s, name=f"{a}×+{b}")


def tag_with(tag: Any, s: Seq) -> Seq:
    """``t0``/``t1`` of §4.10: pair every element with a tag."""
    return seq_map(lambda n: (tag, n), s, name=f"tag{tag!r}")


def untag(s: Seq) -> Seq:
    """``r`` of §4.10: second component of every pair."""
    return seq_map(lambda p: p[1], s, name="untag")


# ---------------------------------------------------------------------------
# Prefix/structure operations
# ---------------------------------------------------------------------------

def prepend_value(value: Any, s: Seq) -> Seq:
    """``value; s`` — the paper's ``;`` with a one-element left side."""
    from repro.seq.builders import prepend

    return prepend(value, s)


def prepend_block(values: tuple, s: Seq) -> Seq:
    """``v₁; v₂; …; s`` for a finite block of values."""
    from repro.seq.builders import concat

    return concat(FiniteSeq(values), s, name="block;…")


def until_first_f(s: Seq) -> Seq:
    """§4.8's ``g``: the longest prefix containing no ``'F'``.

    Monotone: while no ``F`` has appeared the output tracks the input;
    after the first ``F`` the output is frozen.
    """
    return take_while(lambda x: x != "F", s, name="until-first-F")


def count_ticks(s: Seq) -> Seq:
    """§4.9's ``h``: count ``'T'``s before the first ``'F'``; output the
    count (a one-element sequence) only once the ``F`` has been seen.

    Monotone: on prefixes without an ``F`` the output is ``ε`` (we cannot
    yet commit to a count); once the ``F`` arrives the count is fixed and
    further input cannot change it.
    """
    if isinstance(s, FiniteSeq):
        count = 0
        for x in s:
            if x == "F":
                return fseq(count)
            count += 1
        return EMPTY

    def gen() -> Iterator[Any]:
        count = 0
        i = 0
        while True:
            try:
                x = s.item(i)
            except IndexError:
                return
            if x == "F":
                yield count
                return
            count += 1
            i += 1

    return LazySeq(gen(), name="count-ticks")


def brock_f(s: Seq) -> Seq:
    """Process B of the Brock–Ackermann network (§2.4).

    ``f(ε) = ε``, ``f(⟨n⟩) = ε``, ``f(n; m; x) = ⟨n + 1⟩``: output the
    first input plus one, but only after *two* inputs have arrived.
    Monotone: the output is determined (and frozen) exactly when the
    second input item appears.
    """
    if isinstance(s, FiniteSeq):
        if len(s) >= 2:
            return fseq(s.item(0) + 1)
        return EMPTY

    def gen() -> Iterator[Any]:
        try:
            first = s.item(0)
            s.item(1)
        except IndexError:
            return
        yield first + 1

    return LazySeq(gen(), name="brock-f")


def select_by_oracle(s: Seq, oracle: Seq, keep: Any) -> Seq:
    """§4.6's routing functions ``g``/``h``: elements of ``s`` at the
    positions where ``oracle`` reads ``keep``."""
    return subsequence_positions(s, oracle, keep, name=f"select{keep!r}")


def zip_pairs(a: Seq, b: Seq) -> Seq:
    """Pointwise pairing of two sequences (length = min)."""
    return pointwise(lambda x, y: (x, y), a, b, name="zip")


# ---------------------------------------------------------------------------
# Tuple faces (compiled finite fragment of the operations above)
# ---------------------------------------------------------------------------

def _count_ticks_face(t: tuple) -> tuple:
    count = 0
    for x in t:
        if x == "F":
            return (count,)
        count += 1
    return ()


def _until_first_f_face(t: tuple) -> tuple:
    for i, x in enumerate(t):
        if x == "F":
            return t[:i]
    return t


_with_face(even_filter, lambda t: tuple(n for n in t if n % 2 == 0))
_with_face(odd_filter, lambda t: tuple(n for n in t if n % 2 != 0))
_with_face(true_filter, lambda t: tuple(x for x in t if x == "T"))
_with_face(false_filter, lambda t: tuple(x for x in t if x == "F"))
_with_face(until_first_f, _until_first_f_face)
_with_face(count_ticks, _count_ticks_face)
_with_face(brock_f, lambda t: (t[0] + 1,) if len(t) >= 2 else ())
_with_face(untag, lambda t: tuple(p[1] for p in t))
_with_face(zip_pairs, lambda a, b: tuple(zip(a, b)))


# ---------------------------------------------------------------------------
# Lifts to continuous trace functions
# ---------------------------------------------------------------------------

def even_of(fn: ContinuousFn) -> OpFn:
    return OpFn(f"even({fn.name})", even_filter, [fn])


def odd_of(fn: ContinuousFn) -> OpFn:
    return OpFn(f"odd({fn.name})", odd_filter, [fn])


def true_of(fn: ContinuousFn) -> OpFn:
    return OpFn(f"TRUE({fn.name})", true_filter, [fn])


def false_of(fn: ContinuousFn) -> OpFn:
    return OpFn(f"FALSE({fn.name})", false_filter, [fn])


def tagged_of(tag: Any, fn: ContinuousFn) -> OpFn:
    label = "ZERO" if tag == 0 else "ONE" if tag == 1 else f"TAG{tag!r}"
    return OpFn(f"{label}({fn.name})",
                _with_face(
                    lambda s: tagged_filter(tag, s),
                    lambda t: tuple(
                        p for p in t
                        if isinstance(p, tuple) and len(p) == 2
                        and p[0] == tag)),
                [fn])


def scale_of(k: int, fn: ContinuousFn) -> OpFn:
    return OpFn(f"{k}×{fn.name}",
                _with_face(lambda s: scale(k, s),
                           lambda t: tuple(k * n for n in t)),
                [fn])


def affine_of(a: int, b: int, fn: ContinuousFn) -> OpFn:
    return OpFn(f"{a}×{fn.name}+{b}",
                _with_face(lambda s: affine(a, b, s),
                           lambda t: tuple(a * n + b for n in t)),
                [fn])


def prepend_of(value: Any, fn: ContinuousFn) -> OpFn:
    return OpFn(f"{value!r};{fn.name}",
                _with_face(lambda s: prepend_value(value, s),
                           lambda t: (value,) + t),
                [fn])


def prepend_block_of(values: tuple, fn: ContinuousFn) -> OpFn:
    return OpFn(f"{values!r};{fn.name}",
                _with_face(lambda s: prepend_block(values, s),
                           lambda t: tuple(values) + t),
                [fn])


def until_first_f_of(fn: ContinuousFn) -> OpFn:
    return OpFn(f"g({fn.name})", until_first_f, [fn])


def count_ticks_of(fn: ContinuousFn) -> OpFn:
    return OpFn(f"h({fn.name})", count_ticks, [fn])


def tag_of(tag: Any, fn: ContinuousFn) -> OpFn:
    return OpFn(f"t{tag!r}({fn.name})",
                _with_face(lambda s: tag_with(tag, s),
                           lambda t: tuple((tag, n) for n in t)),
                [fn])


def untag_of(fn: ContinuousFn) -> OpFn:
    return OpFn(f"r({fn.name})", untag, [fn])


def select_of(source: ContinuousFn, oracle: ContinuousFn,
              keep: Any) -> OpFn:
    return OpFn(
        f"select[{keep!r}]({source.name},{oracle.name})",
        _with_face(
            lambda s, o: select_by_oracle(s, o, keep),
            lambda s, o: tuple(x for x, bit in zip(s, o)
                               if bit == keep)),
        [source, oracle],
    )


def brock_f_of(fn: ContinuousFn) -> OpFn:
    return OpFn(f"f({fn.name})", brock_f, [fn])


def take_of(n: int, fn: ContinuousFn) -> OpFn:
    """The length-``n`` prefix of a sequence value (monotone, continuous).

    ``take_of(1, ·)`` is the deterministic "head" process used by the
    folklore construction of nondeterministic processes from fair
    merges (see ``tests/integration/test_folklore_universality.py``).
    """
    return OpFn(f"take{n}({fn.name})",
                _with_face(lambda s: s.take(n), lambda t: t[:n]),
                [fn])
