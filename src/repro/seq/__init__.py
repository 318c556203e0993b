"""Finite and lazy message sequences under prefix order.

The sequence domain of the paper: :class:`~repro.seq.finite.FiniteSeq`
(eager, hashable), :class:`~repro.seq.lazy.LazySeq` (memoized generator,
possibly infinite), the prefix-order cpo
(:class:`~repro.seq.ordering.SequenceCpo`), constructors for the paper's
example sequences (:mod:`repro.seq.builders`) and monotone combinators
(:mod:`repro.seq.combinators`).
"""

from repro.seq.builders import (
    block_b,
    block_b_reversed,
    block_c,
    concat,
    cycle,
    empty,
    from_blocks,
    from_iterable,
    iterate,
    misra_x,
    misra_y,
    misra_z,
    naturals,
    prepend,
    repeat,
    repeat_finite,
    single,
)
from repro.seq.combinators import (
    count_occurrences,
    interleavings,
    is_subsequence,
    pointwise,
    seq_filter,
    seq_map,
    subsequence_positions,
    take_while,
)
from repro.seq.finite import EMPTY, FiniteSeq, Seq, fseq
from repro.seq.lazy import LazySeq, NonProductiveError, as_seq
from repro.seq.ordering import (
    SEQ_CPO,
    SequenceCpo,
    seq_eq_upto,
    seq_leq,
    seq_leq_upto,
)

__all__ = [
    "EMPTY",
    "FiniteSeq",
    "LazySeq",
    "NonProductiveError",
    "SEQ_CPO",
    "Seq",
    "SequenceCpo",
    "as_seq",
    "block_b",
    "block_b_reversed",
    "block_c",
    "concat",
    "count_occurrences",
    "cycle",
    "empty",
    "from_blocks",
    "from_iterable",
    "fseq",
    "interleavings",
    "is_subsequence",
    "iterate",
    "misra_x",
    "misra_y",
    "misra_z",
    "naturals",
    "pointwise",
    "prepend",
    "repeat",
    "repeat_finite",
    "seq_eq_upto",
    "seq_filter",
    "seq_leq",
    "seq_leq_upto",
    "seq_map",
    "single",
    "subsequence_positions",
    "take_while",
]
