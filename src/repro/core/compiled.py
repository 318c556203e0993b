"""Compiled descriptions: the `f(v) ⊑ g(u)` hot path as closures.

The §3.3 solver spends essentially all of its time evaluating the two
sides of a description on finite traces and comparing the results
under the prefix order.  The reference path does this with linked
``Seq`` objects and lazy combinators — semantically exactly right and
needlessly slow for the finite fragment the solver actually visits.

This module compiles a :class:`~repro.core.description.Description`
into closures over a *packed environment* (per-channel message tuples,
see :mod:`repro.traces.intern`):

* ``ChannelFn b``          →  ``env[cid(b)]`` (a tuple lookup);
* ``ConstFn`` (finite)     →  the constant's flat tuple;
* ``OpFn``                 →  the operation's ``tuple_face`` when it
  has one (every paper operation does: :mod:`repro.functions.seq_fns`
  attaches the sequence operations' faces, :mod:`repro.functions.logic`
  those of ``R`` and ``AND``), else a generic box/unbox wrapper;
* ``TupleFn``              →  a tuple of compiled components, with one
  generated tuple constructor per appended channel at any arity;
* the prefix test          →  :func:`repro.seq.packed.packed_leq`
  (finite values make ``seq_leq`` a plain tuple-slice comparison);
* the limit condition      →  ``fu == gu`` (finite values make
  ``eq_upto`` exact equality at any depth).

The same closures check one finite run trace in a single pass
(:func:`decide_smooth_solution`, behind
``Description.is_smooth_solution``), compiled against the trace's own
events instead of a candidate alphabet.

Compilation is deliberately *partial*: anything outside this fragment
— subclassed descriptions (whose overridden hooks must keep firing),
opaque ``LambdaFn``/``ProjectionFn``/``IdentityFn`` sides, lazy
constants, non-sequence codomains, per-node candidate generators —
returns ``None`` and the caller stays on the reference path.  A
compile-time probe additionally evaluates both paths on the empty
trace and every single-event trace and refuses to compile on any
disagreement, so a mis-specified ``tuple_face`` degrades to the slow
path instead of a wrong answer.  Side-by-side property tests pin the
equivalence beyond the probe.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Tuple

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import Description
from repro.functions.base import (
    ChannelFn,
    ConstFn,
    ContinuousFn,
    OpFn,
    TupleFn,
)
from repro.order.product import ProductCpo
from repro.seq.finite import FiniteSeq, Seq
from repro.seq.ordering import SequenceCpo
from repro.seq.packed import packed_leq
from repro.traces.intern import InternTable, PackedEnv
from repro.traces.trace import Trace


class CompiledEvalError(Exception):
    """A compiled closure met a value outside the finite fragment.

    Raised (rarely) when a generic op wrapper produces a value that
    cannot be flattened back to a tuple.  The solver catches it and
    restarts the exploration on the reference path; the run-trace
    check declines.
    """


def _unbox(value: Any) -> tuple:
    """Flatten an op result back to a plain tuple."""
    if isinstance(value, FiniteSeq):
        return value.items
    if isinstance(value, Seq):
        n = value.known_length()
        if n is not None:
            return value.take(n).items
    raise CompiledEvalError(
        f"operation produced a non-finite value: {value!r}"
    )


class CompiledSide:
    """One side of a description as per-component closures.

    ``evals[i]`` maps a packed environment to the i-th component's
    value (a flat message tuple); ``reads[i]`` is the set of channel
    ids that closure actually dereferences — the basis of the
    incremental re-evaluation below.  ``is_product`` distinguishes a
    ``TupleFn`` side (value = tuple of component values) from a plain
    sequence-valued side (value = the single component's tuple).
    """

    __slots__ = ("evals", "reads", "is_product", "after")

    def __init__(self, evals: Tuple[Callable[[PackedEnv], tuple], ...],
                 reads: Tuple[FrozenSet[int], ...], is_product: bool):
        self.evals = evals
        self.reads = reads
        self.is_product = is_product
        #: cid -> specialized ``(env, parent_value) -> value`` closure;
        #: filled by :meth:`bind` once the channel count is known
        self.after: Tuple[Callable[[PackedEnv, Any], Any], ...] = ()

    def eval(self, env: PackedEnv) -> Any:
        """Full evaluation on an environment."""
        if self.is_product:
            return tuple(e(env) for e in self.evals)
        return self.evals[0](env)

    def bind(self, n_channels: int) -> None:
        """Precompute one ``after`` closure per channel: the side's
        value after appending one event on that channel, given the
        parent's value.

        Components that do not read the channel cannot have changed —
        each closure is a pure function of the environment slots in
        its read set — so they keep the parent's value.  Which
        components a channel touches is fixed at compile time, so the
        dispatch is folded away here: appending on an unread channel
        becomes an identity, and a product gets a direct tuple
        constructor (see :func:`_after_maker`).  On the dfm network
        this skips both ``f`` components for every extension on an
        output channel.
        """
        self.after = tuple(self._after_for(cid)
                           for cid in range(n_channels))

    def _after_for(self, cid: int) -> Callable[[PackedEnv, Any], Any]:
        hot = tuple(cid in r for r in self.reads)
        if not any(hot):
            return lambda env, parent: parent
        if not self.is_product:
            return lambda env, parent, _e=self.evals[0]: _e(env)
        return _after_maker(hot)(*self.evals)


@functools.lru_cache(maxsize=256)
def _after_maker(hot: Tuple[bool, ...]) -> Callable[..., Callable]:
    """A factory of product ``after`` closures for one ``hot``
    pattern: given the component closures ``e0, e1, …`` it returns
    ``lambda env, parent: (e0(env), parent[1], …)``, re-evaluating
    component ``i`` where ``hot[i]`` and keeping the parent's value
    elsewhere.

    Generated source gives every arity the direct tuple constructor,
    with no per-call generator or index loop; the cache makes a
    compile pay for code generation only the first time a pattern
    occurs."""
    args = "".join(f"_e{i}, " for i in range(len(hot)))
    parts = "".join(f"_e{i}(env), " if h else f"parent[{i}], "
                    for i, h in enumerate(hot))
    return eval(f"lambda {args}: lambda env, parent: ({parts})", {})


@functools.lru_cache(maxsize=64)
def _product_leq(arity: int) -> Callable[[tuple, tuple], bool]:
    """The componentwise prefix test on ``arity``-tuples of flat
    tuples, generated like :func:`_after_maker`: unpack both values,
    then one slice comparison per component."""
    a = "".join(f"a{i}, " for i in range(arity))
    b = "".join(f"b{i}, " for i in range(arity))
    test = " and ".join(f"b{i}[:len(a{i})] == a{i}"
                        for i in range(arity))
    namespace: dict = {}
    exec(f"def leq(a, b):\n    {a}= a\n    {b}= b\n"
         f"    return {test}\n", namespace)
    return namespace["leq"]


class CompiledDescription:
    """A description compiled against a constant candidate alphabet.

    ``actions`` is the precompiled per-candidate table the solver's
    inner loop iterates: one ``(pair, cid, event)`` entry per
    candidate event, in candidate order — the packed event, its
    channel id, and the original :class:`Event`, which the solver
    appends to a child's event tuple.
    """

    __slots__ = ("description", "table", "lhs", "rhs", "actions",
                 "leq", "root_env")

    def __init__(self, description: Description, table: InternTable,
                 lhs: CompiledSide, rhs: CompiledSide,
                 leq: Callable[[Any, Any], bool]):
        self.description = description
        self.table = table
        self.lhs = lhs
        self.rhs = rhs
        self.leq = leq
        self.actions: Tuple[Tuple[Tuple[int, int], int, Event], ...] = \
            tuple(
                (table.intern_event(e), table.intern_event(e)[0], e)
                for e in table.events
            )
        self.root_env = table.empty_env
        lhs.bind(len(table.channels))
        rhs.bind(len(table.channels))

    # The limit condition f(u) = g(u): with both values finite,
    # ``eq_upto`` at any depth is exact equality (see
    # repro.seq.packed.packed_eq_upto), which on packed values is
    # plain tuple equality.
    @staticmethod
    def limit_holds(fu: Any, gu: Any) -> bool:
        return fu == gu


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

def _compile_fn(fn: ContinuousFn, channel_ids) -> Optional[
        Tuple[Callable[[PackedEnv], tuple], FrozenSet[int]]]:
    """Compile one (non-tuple) expression node; ``None`` = can't.

    Exact-type checks throughout: a *subclass* of ``ChannelFn`` or
    ``OpFn`` may override ``apply`` with instrumentation or different
    semantics, and must keep going through the reference path.
    """
    kind = type(fn)
    if kind is ChannelFn:
        cid = channel_ids.get(fn.channel)
        if cid is None:
            return None
        return (lambda env, _c=cid: env[_c]), frozenset((cid,))
    if kind is ConstFn:
        if type(fn.value) is not FiniteSeq:
            return None  # lazy/opaque constants stay on the slow path
        return (lambda env, _v=fn.value.items: _v), frozenset()
    if kind is OpFn:
        compiled = []
        reads: FrozenSet[int] = frozenset()
        for arg in fn.args:
            sub = _compile_fn(arg, channel_ids)
            if sub is None:
                return None
            compiled.append(sub[0])
            reads |= sub[1]
        face = getattr(fn.op, "tuple_face", None)
        if face is not None:
            if len(compiled) == 1:
                return (lambda env, _f=face, _a=compiled[0]:
                        _f(_a(env))), reads
            args = tuple(compiled)
            return (lambda env, _f=face, _as=args:
                    _f(*(a(env) for a in _as))), reads
        args = tuple(compiled)

        def generic(env: PackedEnv, _op=fn.op, _as=args) -> tuple:
            return _unbox(
                _op(*(FiniteSeq.from_tuple(a(env)) for a in _as))
            )

        return generic, reads
    # ProjectionFn / IdentityFn / LambdaFn / nested TupleFn / unknown
    return None


def _compile_side(fn: ContinuousFn, channel_ids
                  ) -> Optional[CompiledSide]:
    if type(fn) is TupleFn:
        evals: List[Callable[[PackedEnv], tuple]] = []
        reads: List[FrozenSet[int]] = []
        for component in fn.components:
            sub = _compile_fn(component, channel_ids)
            if sub is None:
                return None
            evals.append(sub[0])
            reads.append(sub[1])
        return CompiledSide(tuple(evals), tuple(reads), True)
    sub = _compile_fn(fn, channel_ids)
    if sub is None:
        return None
    return CompiledSide((sub[0],), (sub[1],), False)


def _leaf_channels(fn: ContinuousFn) -> Optional[FrozenSet[Channel]]:
    """Channels observed by the compilable fragment; ``None`` = out."""
    kind = type(fn)
    if kind is ChannelFn:
        return frozenset((fn.channel,))
    if kind is ConstFn:
        return frozenset()
    if kind is OpFn:
        out: FrozenSet[Channel] = frozenset()
        for arg in fn.args:
            sub = _leaf_channels(arg)
            if sub is None:
                return None
            out |= sub
        return out
    if kind is TupleFn:
        out = frozenset()
        for component in fn.components:
            sub = _leaf_channels(component)
            if sub is None:
                return None
            out |= sub
        return out
    return None


def _codomain_arity(codomain: Any) -> Optional[int]:
    """Component count of a compilable codomain; ``None`` = can't.

    Only flat shapes compile: a bare sequence cpo (arity 0, meaning
    "not a product") or a product of sequence cpos.  Trace-valued and
    flat-domain codomains keep the reference comparison semantics.
    """
    if type(codomain) is SequenceCpo:
        return 0
    if type(codomain) is ProductCpo:
        for component in codomain.components:
            if type(component) is not SequenceCpo:
                return None
        return len(codomain.components)
    return None


def _pack_reference_value(value: Any) -> Optional[Any]:
    """A reference-path value in packed form (for the probe)."""
    if isinstance(value, tuple):
        parts = []
        for v in value:
            packed = _pack_reference_value(v)
            if packed is None:
                return None
            parts.append(packed)
        return tuple(parts)
    if isinstance(value, Seq):
        n = value.known_length()
        if n is None:
            return None
        return value.take(n).items
    return None


def compile_description(description: Description,
                        candidates: Any) -> Optional[CompiledDescription]:
    """Compile ``description`` against a candidate generator.

    Returns ``None`` whenever *any* precondition fails — the caller
    falls back to the reference path, never to an error:

    * the description must be exactly :class:`Description` (subclasses
      override hooks the compiled loop would bypass);
    * the candidate generator must publish a constant alphabet
      (``constant_events``);
    * both sides must lie in the compilable expression fragment and
      agree with the codomain's (product) shape;
    * a probe run over the empty and all single-event traces must
      match the reference path bit-for-bit.
    """
    events = getattr(candidates, "constant_events", None)
    if events is None:
        return None
    return _compile(description, events)


def _compile(description: Description,
             events: Iterable[Event]) -> Optional[CompiledDescription]:
    """:func:`compile_description` against a known event alphabet."""
    if type(description) is not Description:
        return None
    lhs_channels = _leaf_channels(description.lhs)
    rhs_channels = _leaf_channels(description.rhs)
    if lhs_channels is None or rhs_channels is None:
        return None
    try:
        table = InternTable(
            events,
            extra_channels=sorted(lhs_channels | rhs_channels,
                                  key=lambda c: c.name),
        )
    except TypeError:
        return None  # unhashable message: cannot intern
    lhs = _compile_side(description.lhs, table.channel_ids)
    rhs = _compile_side(description.rhs, table.channel_ids)
    if lhs is None or rhs is None:
        return None

    arity = _codomain_arity(description.codomain)
    if arity is None:
        return None
    if arity == 0:
        if lhs.is_product or rhs.is_product:
            return None
        leq = packed_leq
    else:
        if not (lhs.is_product and rhs.is_product):
            return None
        if not (len(lhs.evals) == len(rhs.evals) == arity):
            return None
        leq = _product_leq(arity)

    compiled = CompiledDescription(description, table, lhs, rhs, leq)
    if not _probe_agrees(compiled):
        return None
    return compiled


def _probe_agrees(compiled: CompiledDescription) -> bool:
    """Compare compiled vs reference on depth ≤ 1 traces.

    Cheap (the traces have at most one event) and catches the likely
    failure modes — a wrong ``tuple_face``, an op that secretly
    inspects laziness, a codomain whose values aren't sequences —
    before the solver commits to the compiled loop.
    """
    description = compiled.description
    probes = [(Trace.empty(), compiled.root_env)]
    for pair, _cid, event in compiled.actions:
        probes.append((
            Trace.empty().append(event),
            compiled.table.extend_env(compiled.root_env, pair),
        ))
    try:
        for trace, env in probes:
            for side, compiled_side in ((description.lhs, compiled.lhs),
                                        (description.rhs, compiled.rhs)):
                want = _pack_reference_value(side.apply(trace))
                if want is None or compiled_side.eval(env) != want:
                    return False
    except Exception:
        # any probe failure at all means "do not compile" — the
        # reference path is always available and always right
        return False
    return True


# ---------------------------------------------------------------------------
# Checking one run trace
# ---------------------------------------------------------------------------

def decide_smooth_solution(description: Description, trace: Trace,
                           depth: int) -> Optional[bool]:
    """Is the finite ``trace`` a smooth solution of ``description``?

    The same answer as ``description.check(trace, depth).is_smooth``
    in one pass over the trace, where the reference re-applies both
    sides to each of its ``n`` prefixes.  The description is compiled
    against the trace's own distinct events, the packed environment
    grows one event at a time, and each step takes ``f(v)`` from
    ``lhs.after`` and ``g(u)`` from ``rhs.after`` — a side that does
    not read the appended channel keeps its value.  The pairs tested
    are those of ``trace.pre_pairs(depth)``: ``f(v) ⊑ g(u)`` while
    ``|v| ≤ depth``.  The limit condition is ``f(t) == g(t)``, which
    is what ``eq_upto`` comes to on finite values at any depth.

    Returns ``None`` — the caller then answers by the reference
    check — for a trace not known finite, a negative depth, an
    unhashable message, anything :func:`compile_description` refuses
    (a subclassed description, an opaque side, a probe disagreement)
    and a :class:`CompiledEvalError` during the walk.
    """
    n = trace.known_length()
    if n is None or depth < 0:
        return None
    # each event's slot among the distinct events, which are also
    # the compiled actions in order: one hash per event
    index: dict = {}
    try:
        slots = [index.setdefault(event, len(index))
                 for event in trace.events.take(n).items]
    except TypeError:
        return None  # unhashable message: cannot intern
    compiled = _compile(description, index)
    if compiled is None:
        return None
    actions = compiled.actions
    extend = compiled.table.extend_env
    lhs_after, rhs_after = compiled.lhs.after, compiled.rhs.after
    leq = compiled.leq
    env = compiled.root_env
    fv = compiled.lhs.eval(env)
    gu = compiled.rhs.eval(env)
    try:
        for k, slot in enumerate(slots):
            pair, cid, _event = actions[slot]
            env = extend(env, pair)
            fv = lhs_after[cid](env, fv)
            if k < depth and not leq(fv, gu):
                return False
            gu = rhs_after[cid](env, gu)
    except CompiledEvalError:
        return None
    return fv == gu
