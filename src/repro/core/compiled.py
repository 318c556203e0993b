"""Compiled descriptions: the `f(v) ⊑ g(u)` hot path as closures.

The §3.3 solver spends essentially all of its time evaluating the two
sides of a description on finite traces and comparing the results
under the prefix order.  The reference path does this with linked
``Seq`` objects and lazy combinators — semantically exactly right and
needlessly slow for the finite fragment the solver actually visits.

This module owns the one representation the compiled path uses.  Each
channel a description observes or a candidate mentions gets a *slot*,
and an *environment* (:data:`Env`) holds one flat message tuple per
slot: ``env[cid]`` is the channel's message subsequence, the paper's
per-channel projection ``b(t)`` (§3.1), and holds each event's own
message object.  A description compiles into closures over it:

* ``ChannelFn b``          →  ``env[cid(b)]`` (a tuple lookup);
* ``ConstFn`` (finite)     →  the constant's flat tuple;
* ``OpFn``                 →  the operation's ``tuple_face`` when it
  has one (every paper operation does: :mod:`repro.functions.seq_fns`
  attaches the sequence operations' faces, :mod:`repro.functions.logic`
  those of ``R`` and ``AND``), else a generic box/unbox wrapper;
* ``TupleFn``              →  a tuple of compiled components, with one
  generated tuple constructor per appended channel at any arity.

On this finite fragment the order theory collapses, which is what
lets the comparisons below be plain tuple operations:

* every value is known finite, so ``seq_leq`` never raises and is a
  prefix test: ``a ⊑ b`` iff ``b[:len(a)] == a``
  (:func:`_tuple_leq`, componentwise :func:`_product_leq`);
* with both lengths known, ``seq_eq_upto(a, b, depth)`` demands prefix
  agreement *and* equal lengths, which on finite values is exact
  equality at any depth — so the limit condition ``f(u) = g(u)`` is
  one tuple compare.

``tests/properties/test_compiled_equivalence.py`` pins both collapses
against :mod:`repro.seq.ordering` at every depth ≤ 8.

The same closures check one finite run trace in a single pass
(:func:`decide_smooth_solution`, behind
``Description.is_smooth_solution``), compiled against the trace's own
events instead of a candidate alphabet.

Compilation is deliberately *partial*: anything outside this fragment
— subclassed descriptions (whose overridden hooks must keep firing),
opaque ``LambdaFn``/``ProjectionFn``/``IdentityFn`` sides, lazy
constants, non-sequence codomains, per-node candidate generators,
unhashable messages — returns ``None`` and the caller stays on the
reference path.  A compile-time probe additionally evaluates both
paths on the empty trace and every single-event trace and refuses to
compile on any disagreement, so a mis-specified ``tuple_face``
degrades to the slow path instead of a wrong answer.  Side-by-side
property tests pin the equivalence beyond the probe.

The probe is most of a compile's cost, and its verdict depends only
on what it reads, so :func:`_probe_passes` remembers a pass (in a
small LRU) under exactly that: each expression node's exact type; a
channel's name (``Channel`` equality is by name); a finite constant's
items; an op and its current ``tuple_face``, both by identity; and
each candidate's channel name and message, in candidate order.
Messages and constant items enter by exact type and ``repr``, tuples
componentwise, which tells ``1`` from ``True`` and ``0.0`` from
``-0.0``; any other value gives no key, and that compile always
probes.  No name enters the key — not an op's, not ``expr_key``'s,
not a digest's — because a name identifies code, not behaviour:
installing a different face on a shared op changes the key.  So the
probe runs once per (structure, alphabet) per process, while every
structural check above runs on every call.  An op whose behaviour
changes without a new face keeps its remembered pass; the probe is a
smoke test, and the property tests are the evidence.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

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
from repro.traces.trace import Trace

#: A compiled environment: one message tuple per channel slot, so
#: ``env[cid]`` is that channel's message subsequence.
Env = Tuple[Tuple[Any, ...], ...]


class CompiledEvalError(Exception):
    """A compiled closure met a value outside the finite fragment.

    Raised (rarely) when a generic op wrapper produces a value that
    cannot be flattened back to a tuple.  The solver catches it and
    restarts the exploration on the reference path; the run-trace
    check declines.
    """


def _pack(value: Any) -> Optional[Any]:
    """A value in compiled form: a finite ``Seq`` as its flat tuple,
    a tuple of values componentwise; ``None`` for anything not known
    to be finite."""
    if isinstance(value, FiniteSeq):
        return value.items
    if isinstance(value, tuple):
        parts = []
        for v in value:
            packed = _pack(v)
            if packed is None:
                return None
            parts.append(packed)
        return tuple(parts)
    if isinstance(value, Seq):
        n = value.known_length()
        if n is not None:
            return value.take(n).items
    return None


def _extend(env: Env, cid: int, message: Any) -> Env:
    """The environment after appending ``message`` on slot ``cid``."""
    return env[:cid] + (env[cid] + (message,),) + env[cid + 1:]


class CompiledSide:
    """One side of a description as per-component closures.

    ``evals[i]`` maps an environment to the i-th component's
    value (a flat message tuple); ``reads[i]`` is the set of channel
    ids that closure actually dereferences — the basis of the
    incremental re-evaluation below.  ``is_product`` distinguishes a
    ``TupleFn`` side (value = tuple of component values) from a plain
    sequence-valued side (value = the single component's tuple).
    """

    __slots__ = ("evals", "reads", "is_product", "after")

    def __init__(self, evals: Tuple[Callable[[Env], tuple], ...],
                 reads: Tuple[FrozenSet[int], ...], is_product: bool):
        self.evals = evals
        self.reads = reads
        self.is_product = is_product
        #: cid -> specialized ``(env, parent_value) -> value`` closure;
        #: filled by :meth:`bind` once the channel count is known
        self.after: Tuple[Callable[[Env, Any], Any], ...] = ()

    def eval(self, env: Env) -> Any:
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

    def _after_for(self, cid: int) -> Callable[[Env, Any], Any]:
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


def _tuple_leq(a: tuple, b: tuple) -> bool:
    """The prefix order ``a ⊑ b`` on flat tuples: ``seq_leq`` on the
    finite fragment, where it never raises."""
    return b[: len(a)] == a


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

    ``slots`` maps each channel to its environment slot.  ``actions``
    is the precompiled per-candidate table the solver's inner loop
    iterates: one ``(cid, message, event)`` entry per candidate event,
    in candidate order — its channel's slot, its message, and the
    :class:`Event` itself, which the solver appends to a child's event
    tuple.
    """

    __slots__ = ("description", "slots", "lhs", "rhs", "actions",
                 "leq", "root_env")

    def __init__(self, description: Description,
                 slots: Dict[Channel, int], events: Iterable[Event],
                 lhs: CompiledSide, rhs: CompiledSide,
                 leq: Callable[[Any, Any], bool]):
        self.description = description
        self.slots = slots
        self.lhs = lhs
        self.rhs = rhs
        self.leq = leq
        self.actions: Tuple[Tuple[int, Any, Event], ...] = tuple(
            (slots[e.channel], e.message, e) for e in events)
        self.root_env: Env = ((),) * len(slots)
        lhs.bind(len(slots))
        rhs.bind(len(slots))

    def env_of(self, events: Iterable[Event]) -> Env:
        """The environment of a trace over the alphabet's channels:
        ``env[cid]`` is its ``sequence_on`` that channel, as a tuple."""
        buckets: List[List[Any]] = [[] for _ in self.root_env]
        slots = self.slots
        for event in events:
            buckets[slots[event.channel]].append(event.message)
        return tuple(map(tuple, buckets))


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

def _compile_fn(fn: ContinuousFn, channel_ids) -> Optional[
        Tuple[Callable[[Env], tuple], FrozenSet[int]]]:
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

        def generic(env: Env, _op=fn.op, _as=args) -> tuple:
            value = _op(*(FiniteSeq.from_tuple(a(env)) for a in _as))
            packed = _pack(value)
            if packed is None:
                raise CompiledEvalError(
                    f"operation produced a non-finite value: {value!r}")
            return packed

        return generic, reads
    # ProjectionFn / IdentityFn / LambdaFn / nested TupleFn / unknown
    return None


def _compile_side(fn: ContinuousFn, channel_ids
                  ) -> Optional[CompiledSide]:
    if type(fn) is TupleFn:
        evals: List[Callable[[Env], tuple]] = []
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


def compile_description(description: Description,
                        candidates: Any) -> Optional[CompiledDescription]:
    """Compile ``description`` against a candidate generator.

    Returns ``None`` whenever *any* precondition fails — the caller
    falls back to the reference path, never to an error:

    * the description must be exactly :class:`Description` (subclasses
      override hooks the compiled loop would bypass);
    * the candidate generator must publish a constant alphabet
      (``constant_events``) whose messages are hashable;
    * both sides must lie in the compilable expression fragment and
      agree with the codomain's (product) shape;
    * a probe run over the empty and all single-event traces must
      match the reference path bit-for-bit (run once per structure
      and alphabet: a pass is remembered, see the module docstring).
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
    events = tuple(events)
    try:
        # environments are hashed: they are the state graph's keys
        hash(tuple(e.message for e in events))
    except TypeError:
        return None
    # the sides' channels first, by name, then each candidate's in
    # candidate order
    slots: Dict[Channel, int] = {}
    for channel in sorted(lhs_channels | rhs_channels,
                          key=lambda c: c.name):
        slots[channel] = len(slots)
    for event in events:
        slots.setdefault(event.channel, len(slots))
    lhs = _compile_side(description.lhs, slots)
    rhs = _compile_side(description.rhs, slots)
    if lhs is None or rhs is None:
        return None

    arity = _codomain_arity(description.codomain)
    if arity is None:
        return None
    if arity == 0:
        if lhs.is_product or rhs.is_product:
            return None
        leq = _tuple_leq
    else:
        if not (lhs.is_product and rhs.is_product):
            return None
        if not (len(lhs.evals) == len(rhs.evals) == arity):
            return None
        leq = _product_leq(arity)

    compiled = CompiledDescription(description, slots, events, lhs,
                                   rhs, leq)
    if not _probe_passes(compiled):
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
    root = compiled.root_env
    probes = [(Trace.empty(), root)]
    for cid, message, event in compiled.actions:
        probes.append((Trace.empty().append(event),
                       _extend(root, cid, message)))
    try:
        for trace, env in probes:
            for side, compiled_side in ((description.lhs, compiled.lhs),
                                        (description.rhs, compiled.rhs)):
                want = _pack(side.apply(trace))
                if want is None or compiled_side.eval(env) != want:
                    return False
    except Exception:
        # any probe failure at all means "do not compile" — the
        # reference path is always available and always right
        return False
    return True


#: How many probe passes :func:`_probe_passes` remembers.  A catalog
#: network compiles against one alphabet, so a few entries serve a
#: process; the cap keeps structures that never repeat (fair merge
#: builds new op closures for every description) off the heap.
_PROBE_MEMO_SIZE = 16

#: probe key -> the ops and faces the key names by ``id``, held so
#: that no other object can take an id a live key names; least
#: recently used first
_PROBE_PASSES: "OrderedDict[tuple, tuple]" = OrderedDict()
_PROBE_LOCK = threading.Lock()

#: the message and constant types whose ``repr`` fixes the value
_REPR_KEYED = frozenset((bool, int, float, str, bytes, type(None)))


def _probe_passes(compiled: CompiledDescription) -> bool:
    """:func:`_probe_agrees`, run once per key (:func:`_probe_key`):
    a remembered pass skips it, a failure is never remembered."""
    held: List[Any] = []
    key = _probe_key(compiled, held)
    if key is not None:
        try:
            _PROBE_PASSES.move_to_end(key)  # a hit, and its LRU touch
            return True
        except KeyError:
            pass
    if not _probe_agrees(compiled):
        return False
    if key is not None:
        with _PROBE_LOCK:
            _PROBE_PASSES[key] = tuple(held)
            if len(_PROBE_PASSES) > _PROBE_MEMO_SIZE:
                _PROBE_PASSES.popitem(last=False)
    return True


def _probe_key(compiled: CompiledDescription,
               held: List[Any]) -> Optional[tuple]:
    """Everything :func:`_probe_agrees` reads, as a hashable key: both
    sides' expression keys and each candidate's channel name and
    message, in candidate order; ``None`` when some part has no key.
    Appends the ops and faces the key names by ``id`` to ``held``."""
    lhs = _expr_key(compiled.description.lhs, held)
    rhs = _expr_key(compiled.description.rhs, held)
    if lhs is None or rhs is None:
        return None
    alphabet = []
    for _cid, message, event in compiled.actions:
        message_key = _value_key(message)
        if message_key is None:
            return None
        alphabet.append((event.channel.name, message_key))
    return lhs, rhs, tuple(alphabet)


def _expr_key(fn: ContinuousFn, held: List[Any]) -> Optional[tuple]:
    """One expression node as the probe reads it: its exact type, and
    a channel's name, a finite constant's items, an op and its face by
    identity, or the component keys; ``None`` outside the fragment."""
    kind = type(fn)
    if kind is ChannelFn:
        return kind, fn.channel.name
    if kind is ConstFn:
        if type(fn.value) is not FiniteSeq:
            return None
        items = _value_key(fn.value.items)
        return None if items is None else (kind, items)
    if kind is OpFn:
        face = getattr(fn.op, "tuple_face", None)
        held += (fn.op, face)
        args = tuple(_expr_key(arg, held) for arg in fn.args)
        if None in args:
            return None
        return kind, id(fn.op), id(face), args
    if kind is TupleFn:
        parts = tuple(_expr_key(c, held) for c in fn.components)
        return None if None in parts else (kind, parts)
    return None


def _value_key(value: Any) -> Optional[tuple]:
    """A message or constant item by exact type and ``repr``, a tuple
    componentwise; ``None`` for a value whose ``repr`` need not fix it
    (any other type, and NaN).  Equality would merge ``1`` with
    ``True`` and ``0.0`` with ``-0.0``."""
    kind = type(value)
    if kind is tuple:
        parts = tuple(map(_value_key, value))
        return None if None in parts else (kind, parts)
    if kind in _REPR_KEYED and value == value:
        return kind, repr(value)
    return None


# ---------------------------------------------------------------------------
# Checking one run trace
# ---------------------------------------------------------------------------

def decide_smooth_solution(description: Description, trace: Trace,
                           depth: int) -> Optional[bool]:
    """Is the finite ``trace`` a smooth solution of ``description``?

    The same answer as ``description.check(trace, depth).is_smooth``
    in one pass over the trace, where the reference re-applies both
    sides to each of its ``n`` prefixes.  The description is compiled
    against the trace's own distinct events, the environment grows one
    event at a time, and each step takes ``f(v)`` from
    ``lhs.after`` and ``g(u)`` from ``rhs.after`` — a side that does
    not read the appended channel keeps its value.  The pairs tested
    are those of ``trace.pre_pairs(depth)``: ``f(v) ⊑ g(u)`` while
    ``|v| ≤ depth``.  The limit condition is ``f(t) == g(t)``, which
    is what ``eq_upto`` comes to on finite values at any depth.

    Returns ``None`` — the caller then answers by the reference
    check — for a trace not known finite, a negative depth, a message
    :func:`_value_key` gives no key, anything
    :func:`compile_description` refuses (a subclassed description, an
    opaque side, a probe disagreement) and a
    :class:`CompiledEvalError` during the walk.
    """
    n = trace.known_length()
    if n is None or depth < 0:
        return None
    # each event's slot among the distinct events, which are also
    # the compiled actions in order.  Events are told apart by channel
    # and exact message (``_value_key``): ``Event`` equality would
    # give ``(c, 1)`` and ``(c, True)`` one slot.
    index: dict = {}
    events: list = []
    slots = []
    for event in trace.events.take(n).items:
        message = _value_key(event.message)
        if message is None:
            return None
        slot = index.setdefault((event.channel, message), len(events))
        if slot == len(events):
            events.append(event)
        slots.append(slot)
    compiled = _compile(description, events)
    if compiled is None:
        return None
    actions = compiled.actions
    lhs_after, rhs_after = compiled.lhs.after, compiled.rhs.after
    leq = compiled.leq
    env = compiled.root_env
    fv = compiled.lhs.eval(env)
    gu = compiled.rhs.eval(env)
    try:
        for k, slot in enumerate(slots):
            cid, message, _event = actions[slot]
            env = _extend(env, cid, message)
            fv = lhs_after[cid](env, fv)
            if k < depth and not leq(fv, gu):
                return False
            gu = rhs_after[cid](env, gu)
    except CompiledEvalError:
        return None
    return fv == gu
