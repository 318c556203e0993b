"""Cache keys: stable digests of the inputs that determine a result.

A cached result is sound exactly when its key captures every input
that determines it.  Two key families live here:

* **Solver keys** — a bounded §3.3 exploration is determined by the
  description (name + side structure), the candidate generator, the
  depth bound, the limit-check depth and the resource budgets.
* **Cell keys** — a conformance-grid cell is determined by the grid's
  *facets* (network name, channel alphabets, observation set, budgets,
  restart policy) plus the cell's own plan name, seed and recording
  flag.  Fault plans and oracles are rebuilt fresh per cell from
  ``(plan name, seed)``, so those two scalars stand for the whole
  nondeterminism of the cell — the same argument that makes the grid
  process-parallel (see :mod:`repro.par`).

Keys deliberately name code (descriptions, generators, agents) rather
than hashing its bytes; the store's version stamp plus ``--no-cache``
/ ``clear()`` are the escape hatches when code changes under a stable
name.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Mapping, Optional

from repro.obs.recorder import stable_digest

#: description object -> its digest.  A description's visible structure
#: is immutable after construction, so the digest can be computed once;
#: weak keys keep the memo from pinning descriptions alive.
_DESCRIPTION_DIGESTS: "weakref.WeakKeyDictionary[Any, str]" = \
    weakref.WeakKeyDictionary()


def description_digest(description: Any) -> str:
    """Content digest of a description's visible structure.

    Covers the description name and both sides' names plus (when
    known) their channel supports — the identity under which a solver
    result may be reused.  Duck-typed so it also accepts
    ``DescriptionSystem`` (digests the combined description).
    Memoized per object: the structure it digests is fixed at
    construction time, and the solver consults it on every cache
    lookup.
    """
    try:
        cached = _DESCRIPTION_DIGESTS.get(description)
    except TypeError:  # unhashable / non-weakrefable duck type
        cached = None
    if cached is not None:
        return cached
    original = description
    combined = getattr(description, "combined", None)
    if combined is not None and not hasattr(description, "lhs"):
        description = combined()
    payload = {
        "name": getattr(description, "name", ""),
        "lhs": getattr(description.lhs, "name", repr(description.lhs)),
        "rhs": getattr(description.rhs, "name", repr(description.rhs)),
    }
    support = None
    try:
        support = description.support()
    except Exception:
        support = None
    if support is not None:
        payload["support"] = sorted(c.name for c in support)
    digest = stable_digest(payload)
    try:
        _DESCRIPTION_DIGESTS[original] = digest
    except TypeError:
        pass
    return digest


def candidate_identity(candidates: Any) -> Any:
    """A JSON-ready identity for a candidate generator: the
    ``cache_key`` attribute that generators built by the library
    attach, describing their content (e.g. the full event alphabet).

    A generator without one has no identity — two closures from one
    factory share a name but not their events — so the solver keeps
    such a walk out of the cache, and this raises ``AttributeError``.
    """
    return candidates.cache_key


def solver_cache_key(description: Any, candidates: Any,
                     max_depth: int, limit_depth: int,
                     max_nodes: int,
                     budget_seconds: Optional[float]) -> dict:
    """The full input digest payload of one bounded exploration."""
    return {
        "description": getattr(description, "name", ""),
        "description_digest": description_digest(description),
        "candidates": candidate_identity(candidates),
        "depth": max_depth,
        "limit_depth": limit_depth,
        "max_nodes": max_nodes,
        "budget_seconds": budget_seconds,
    }


def _channel_facet(channel: Any) -> list:
    alphabet = getattr(channel, "alphabet", None)
    return [
        channel.name,
        sorted(repr(m) for m in alphabet) if alphabet is not None
        else None,
    ]


def grid_facets(network: str, channels: Iterable[Any],
                observe: Optional[Iterable[Any]],
                max_steps: int, policy: Any,
                watchdog_limit: Optional[int],
                depth: int) -> dict:
    """The per-grid inputs shared by every cell of one conformance
    grid — everything :func:`repro.faults.harness.run_conformance`
    takes that is not the cell's own ``(plan, seed)`` coordinate.
    Plan *content* is represented by the plan name inside the cell key
    (plans are rebuilt fresh per cell from name + seed)."""
    return {
        "network": network,
        "channels": sorted(_channel_facet(c) for c in channels),
        "observe": (sorted(c.name for c in observe)
                    if observe is not None else None),
        "max_steps": max_steps,
        "policy": repr(policy),
        "watchdog_limit": watchdog_limit,
        "depth": depth,
    }


def cell_cache_key(facets: Mapping[str, Any], plan: str, seed: int,
                   record: bool = True) -> dict:
    """One grid cell's key: the grid facets plus its coordinate."""
    return {
        "facets": dict(facets),
        "plan": plan,
        "seed": seed,
        "record": record,
    }
