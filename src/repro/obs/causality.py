"""Happens-before graphs and divergence explanation.

The paper's program is *explaining* a nondeterministic network's
output stream: a smooth solution is exactly a causal justification of
each output prefix, and Abramsky's Generalized Kahn Principle
(PAPERS.md) recasts the same networks as dataflow whose behaviour is
fixed by message causality.  This module makes that causality a
first-class artifact: it reconstructs a happens-before DAG from the
tracer's event stream — no new instrumentation, the PR-2 events
already carry everything — and answers the two questions the raw
timeline cannot: *which decision caused this?* and *what bounds this
run's length?*

Node vocabulary (one node per runtime/scheduler/fault instant event):

* agent events — ``send`` / ``recv`` / ``poll`` / ``agent.block`` /
  ``agent.halt`` / ``agent.fail``, chained per agent in program order;
* decision nodes — ``oracle.pick_agent`` / ``oracle.pick_choice``
  (chained along the scheduler's own program order, each with a
  ``sched`` edge to the first event of the step it enabled) and
  ``fault.send`` (what the fault pipeline did to one send);
* fault pipeline nodes — ``fault.release`` / ``fault.flush``, each
  delivering one previously held message.

Message edges thread deliveries through the fault pipeline: a send's
deliveries are produced by its ``fault.send`` verdict (``pass`` and
``corrupt`` produce one, ``duplicate`` several, ``drop`` none,
``hold`` parks provenance until the matching release/flush), so a
``recv``'s ancestry names the exact fault decision its message
survived — and a *dropped* message's provenance survives as a
``fault.send`` node with no out-going delivery.

Everything is a pure function of the recorded schedule: node
identities are per-track sequence numbers, Lamport clocks are
``1 + max(predecessors)``, and :meth:`CausalGraph.digest` hashes the
nodes and edges *without timestamps* — same seed ⇒ same digest, and a
fleet cell's graph (via :func:`split_cells`) is digest-identical to
the same cell run serially.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.recorder import stable_digest
from repro.obs.tracer import _jsonable

#: Event categories that participate in the happens-before graph.
GRAPH_CATEGORIES = frozenset({"runtime", "scheduler", "fault"})

#: Decision-node event names (oracle picks and fault verdicts).
DECISION_NAMES = frozenset(
    {"oracle.pick_agent", "oracle.pick_choice", "fault.send"})

#: Edge labels, in rendering order.
EDGE_LABELS = ("po", "sched", "msg", "fault", "read")


@dataclass
class CausalNode:
    """One instant event as a vertex of the happens-before DAG."""

    node_id: str            # "<track>#<per-track index>" — deterministic
    name: str               # tracer event name ("send", "fault.send", …)
    track: str
    index: int              # per-track sequence number
    step: Optional[int]     # runtime step the event carries, if any
    args: Dict[str, Any]    # JSON-safe copy of the event args
    clock: int = 0          # Lamport clock: 1 + max over predecessors
    ts_ns: int = 0          # timeline position (flows only; NOT hashed)

    @property
    def is_decision(self) -> bool:
        return self.name in DECISION_NAMES

    def payload(self) -> Dict[str, Any]:
        """Digest-stable dict form: everything except the timestamp."""
        return {
            "id": self.node_id,
            "name": self.name,
            "track": self.track,
            "step": self.step,
            "clock": self.clock,
            "args": self.args,
        }

    def label(self) -> str:
        """Short human-readable tag for chains and DOT nodes."""
        a = self.args
        if self.name == "oracle.pick_agent":
            detail = f"chose {a.get('chosen')}"
        elif self.name == "oracle.pick_choice":
            detail = f"{a.get('agent')} chose {a.get('chosen')}"
        elif self.name == "fault.send":
            detail = (f"{a.get('action')} {a.get('message')!r} "
                      f"on {a.get('channel')}")
        elif self.name in ("send", "recv", "poll"):
            detail = f"{a.get('message')!r} on {a.get('channel')}"
        else:
            detail = ""
        step = "" if self.step is None else f" @step {self.step}"
        detail = f" {detail}" if detail else ""
        return f"{self.node_id} {self.name}{detail}{step}"


@dataclass
class CausalGraph:
    """A happens-before DAG reconstructed from one run's tracer events.

    Build with :meth:`from_records`; nodes appear in event-stream
    order (which every edge respects, so the graph is a DAG by
    construction).  ``deliveries`` lists the run's observable output —
    one entry per message put on a wire, in delivery order, naming the
    producing node — which is the same stream
    :func:`repro.obs.diff.diff_runs` compares.
    """

    nodes: List[CausalNode] = field(default_factory=list)
    edges: List[Tuple[str, str, str]] = field(default_factory=list)
    #: (channel, message, producer node_id) in delivery order.
    deliveries: List[Tuple[str, Any, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_id: Dict[str, CausalNode] = {
            n.node_id: n for n in self.nodes}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[Any]) -> "CausalGraph":
        """Reconstruct the happens-before DAG from tracer records.

        Span records and events outside :data:`GRAPH_CATEGORIES` are
        ignored, so harness/cache/fleet chatter in a merged buffer
        does not perturb the graph.
        """
        graph = cls()
        nodes = graph.nodes
        edges = graph.edges
        # node_id -> max predecessor clock seen so far (the Lamport
        # clock is 1 + this; tracked as a running int so the hot loop
        # never materializes predecessor lists)
        max_pred: Dict[str, int] = {}
        clocks: Dict[str, int] = {}

        track_counts: Dict[str, int] = {}
        last_on_track: Dict[str, CausalNode] = {}
        # decisions waiting to attach to an agent's next runtime event
        pending_decisions: Dict[str, List[str]] = {}
        # per-channel FIFOs mirroring the runtime queues
        in_flight: Dict[str, deque] = {}
        held: Dict[str, deque] = {}
        # a send whose fault verdict (if any) has not arrived yet
        pending_send: Optional[Tuple[CausalNode, str]] = None

        def link(src: str, dst: str, label: str) -> None:
            edges.append((src, dst, label))
            c = clocks[src]
            if c > max_pred.get(dst, 0):
                max_pred[dst] = c

        def commit_send() -> None:
            """A send with no fault pipeline delivers itself."""
            nonlocal pending_send
            if pending_send is None:
                return
            send_node, channel = pending_send
            pending_send = None
            in_flight.setdefault(channel, deque()).append(
                send_node.node_id)
            graph.deliveries.append(
                (channel, send_node.args.get("message"),
                 send_node.node_id))

        plain = (str, int, float, bool, type(None))
        for rec in records:
            if getattr(rec, "kind", "") != "event":
                continue
            if rec.category not in GRAPH_CATEGORIES:
                continue
            name = rec.name
            track = rec.track
            args = {k: (v if type(v) in plain else _jsonable(v))
                    for k, v in rec.args.items()}
            channel = args.get("channel")
            if pending_send is not None and not (
                    name == "fault.send"
                    and channel == pending_send[1]):
                commit_send()

            index = track_counts.get(track, 0)
            track_counts[track] = index + 1
            node = CausalNode(
                node_id=f"{track}#{index}", name=name, track=track,
                index=index, step=args.get("step"), args=args,
                ts_ns=rec.ts_ns)
            nodes.append(node)
            graph._by_id[node.node_id] = node

            # program order: agents and the scheduler are sequential
            # processes; the fault pipeline is not (its events are
            # caused by the sends/steps that trigger them)
            if track != "faults":
                prev = last_on_track.get(track)
                if prev is not None:
                    link(prev.node_id, node.node_id, "po")
                last_on_track[track] = node

            if name == "oracle.pick_agent":
                pending_decisions.setdefault(
                    args.get("chosen"), []).append(node.node_id)
            elif name == "oracle.pick_choice":
                pending_decisions.setdefault(
                    args.get("agent"), []).append(node.node_id)
            elif name == "fault.send":
                if pending_send is not None:
                    link(pending_send[0].node_id, node.node_id,
                         "fault")
                    pending_send = None
                for _ in range(int(args.get("delivered") or 0)):
                    in_flight.setdefault(channel, deque()).append(
                        node.node_id)
                    graph.deliveries.append(
                        (channel, args.get("message"), node.node_id))
                for _ in range(int(args.get("held") or 0)):
                    held.setdefault(channel, deque()).append(
                        node.node_id)
            elif name in ("fault.release", "fault.flush"):
                queue = held.get(channel)
                if queue:
                    link(queue.popleft(), node.node_id, "fault")
                in_flight.setdefault(channel, deque()).append(
                    node.node_id)
                graph.deliveries.append(
                    (channel, args.get("message"), node.node_id))
            elif rec.category == "runtime":
                waiting = pending_decisions.pop(track, None)
                if waiting:
                    for decision_id in waiting:
                        link(decision_id, node.node_id, "sched")
                if name == "send":
                    pending_send = (node, channel)
                elif name == "recv":
                    queue = in_flight.get(channel)
                    if queue:
                        link(queue.popleft(), node.node_id, "msg")
                elif name == "poll":
                    queue = in_flight.get(channel)
                    if args.get("available") and queue:
                        link(queue[0], node.node_id, "read")

            node.clock = clocks[node.node_id] = \
                1 + max_pred.get(node.node_id, 0)
        commit_send()
        return graph

    # -- queries -----------------------------------------------------------

    def node(self, node_id: str) -> CausalNode:
        return self._by_id[node_id]

    def decisions(self) -> List[CausalNode]:
        """Oracle picks and fault verdicts, in stream order."""
        return [n for n in self.nodes if n.is_decision]

    def predecessors(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for src, dst, _ in self.edges:
            out.setdefault(dst, []).append(src)
        return out

    def successors(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for src, dst, _ in self.edges:
            out.setdefault(src, []).append(dst)
        return out

    def ancestors(self, node_id: str) -> Set[str]:
        """Causal past of a node (excluding the node itself)."""
        preds = self.predecessors()
        seen: Set[str] = set()
        stack = list(preds.get(node_id, ()))
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(preds.get(nid, ()))
        return seen

    def descendants(self, node_id: str) -> Set[str]:
        """Causal future of a node (excluding the node itself)."""
        succs = self.successors()
        seen: Set[str] = set()
        stack = list(succs.get(node_id, ()))
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(succs.get(nid, ()))
        return seen

    def path(self, src: str, dst: str) -> Optional[List[str]]:
        """A shortest causal path ``src → … → dst`` (deterministic:
        BFS in edge order), or ``None`` when dst is not a descendant."""
        if src == dst:
            return [src]
        succs = self.successors()
        parent: Dict[str, str] = {}
        frontier = deque([src])
        while frontier:
            nid = frontier.popleft()
            for nxt in succs.get(nid, ()):
                if nxt in parent or nxt == src:
                    continue
                parent[nxt] = nid
                if nxt == dst:
                    out = [dst]
                    while out[-1] != src:
                        out.append(parent[out[-1]])
                    return list(reversed(out))
                frontier.append(nxt)
        return None

    def critical_path(self) -> List[CausalNode]:
        """The longest causal chain — the dependency sequence bounding
        the run's step count.  Deterministic: Lamport clocks are, and
        ties break toward the earliest node in stream order."""
        if not self.nodes:
            return []
        end = max(self.nodes, key=lambda n: n.clock)
        preds = self.predecessors()
        chain = [end]
        while True:
            tail = chain[-1]
            best = None
            for pid in preds.get(tail.node_id, ()):
                cand = self._by_id[pid]
                if cand.clock == tail.clock - 1 and (
                        best is None or cand.clock > best.clock):
                    best = cand
                    break
            if best is None:
                break
            chain.append(best)
        return list(reversed(chain))

    # -- digest / export ---------------------------------------------------

    def digest(self) -> str:
        """Stable content hash of the graph *shape* — nodes (without
        timestamps) plus sorted edges.  A pure function of the
        recorded schedule: serial and parallel runs of the same cell
        hash identically."""
        return stable_digest({
            "nodes": [n.payload() for n in self.nodes],
            "edges": sorted(self.edges),
        })

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready dict: nodes in stream order, edges, deliveries,
        the digest and the critical path (as node ids)."""
        return {
            "digest": self.digest(),
            "nodes": [n.payload() for n in self.nodes],
            "edges": [list(e) for e in self.edges],
            "deliveries": [
                {"channel": c, "message": m, "producer": p}
                for c, m, p in self.deliveries],
            "critical_path": [n.node_id
                              for n in self.critical_path()],
        }

    def to_dot(self, title: str = "causal") -> str:
        """Graphviz DOT rendering: one cluster per track, decision
        nodes as diamonds, message edges bold."""
        styles = {"po": 'color="#a0aec0"',
                  "sched": 'color="#805ad5" style=dashed',
                  "msg": 'color="#2b6cb0" penwidth=2',
                  "fault": 'color="#c05621" penwidth=2',
                  "read": 'color="#718096" style=dotted'}
        lines = [f'digraph "{title}" {{',
                 "  rankdir=LR;",
                 "  node [fontsize=9 shape=box "
                 'style="rounded,filled" fillcolor="#f7fafc"];']
        tracks: Dict[str, List[CausalNode]] = {}
        for n in self.nodes:
            tracks.setdefault(n.track, []).append(n)
        for i, track in enumerate(sorted(tracks)):
            lines.append(f'  subgraph "cluster_{i}" {{')
            lines.append(f'    label="{track}";')
            for n in tracks[track]:
                shape = (" shape=diamond fillcolor=\"#fefcbf\""
                         if n.is_decision else "")
                text = n.label().replace("\\", "\\\\").replace(
                    '"', '\\"')
                lines.append(
                    f'    "{n.node_id}" [label="{text}"{shape}];')
            lines.append("  }")
        for src, dst, label in self.edges:
            lines.append(f'  "{src}" -> "{dst}" '
                         f"[{styles.get(label, '')}];")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def flow_arrows(self) -> List[Dict[str, Any]]:
        """Message/fault edges as Perfetto flow descriptors, consumed
        by :func:`repro.obs.perfetto.to_chrome_trace`'s ``flows=``."""
        out: List[Dict[str, Any]] = []
        for src, dst, label in self.edges:
            if label not in ("msg", "fault"):
                continue
            a, b = self._by_id[src], self._by_id[dst]
            out.append({
                "name": f"{a.name}→{b.name}",
                "category": "causal",
                "src_track": a.track, "src_ts_ns": a.ts_ns,
                "dst_track": b.track, "dst_ts_ns": b.ts_ns,
            })
        return out


def split_cells(records: Iterable[Any]) -> Dict[str, List[Any]]:
    """Split a merged fleet buffer into per-cell record lists.

    The fleet folds each cell's records onto the parent timeline with
    an ``@plan×seed`` track suffix
    (:func:`~repro.par.fleet.run_fleet`); this
    groups by that suffix and *strips it*, so a per-cell graph built
    from the result is digest-identical to the graph of the same cell
    run serially.  Records without a suffix (the coordinator's own
    harness/fleet rows) land under the ``""`` key.
    """
    import copy

    cells: Dict[str, List[Any]] = {}
    for rec in records:
        track = getattr(rec, "track", "")
        at = track.rfind("@")
        if at < 0:
            cells.setdefault("", []).append(rec)
            continue
        cell, bare = track[at + 1:], track[:at]
        # records are plain mutable dataclasses; a shallow copy with
        # the track rewritten beats dataclasses.replace (which
        # re-runs __init__) on this hot path
        bare_rec = copy.copy(rec)
        bare_rec.track = bare
        cells.setdefault(cell, []).append(bare_rec)
    return cells


# -- divergence explanation --------------------------------------------------

#: Category rank for root tie-breaks *within* one runtime step: the
#: scheduler's pick enables the step, so it precedes any fault verdict
#: fired inside it.
_DECISION_RANK = {"oracle.pick_agent": 0, "oracle.pick_choice": 1,
                  "fault.send": 2}


def _decision_key(node: CausalNode) -> Tuple[str, ...]:
    """What must match for two runs' decisions to count as 'the
    same choice'."""
    a = node.args
    if node.name == "oracle.pick_agent":
        return ("pick_agent", str(a.get("chosen")),
                str(a.get("ready")))
    if node.name == "oracle.pick_choice":
        return ("pick_choice", str(a.get("agent")),
                str(a.get("chosen")),
                str(a.get("options", a.get("arity"))))
    return ("fault", str(a.get("channel")), str(a.get("action")),
            str(a.get("message")))


def _aligned_decisions(graph: CausalGraph
                       ) -> Dict[str, List[CausalNode]]:
    """Decision streams split for positional alignment: the scheduler's
    picks in one stream, each channel's *effectful* fault verdicts
    (everything but ``pass``) in their own."""
    out: Dict[str, List[CausalNode]] = {"sched": []}
    for node in graph.decisions():
        if node.name == "fault.send":
            if node.args.get("action") == "pass":
                continue
            out.setdefault(
                f"fault:{node.args.get('channel')}", []).append(node)
        else:
            out["sched"].append(node)
    return out


@dataclass
class DivergenceExplanation:
    """Why two recorded runs diverge, causally.

    ``root`` / ``counterpart`` are the first decision pair that
    differs between the runs (one side may be ``None`` when the
    decision simply does not exist in that run — a fault that only
    one plan fires).  ``chain`` is a minimal causal chain in the root
    run: the path root → first divergent delivery when one exists,
    otherwise the root's own causal past.
    """

    identical: bool = False
    index: Optional[int] = None        # first divergent delivery
    delivery_a: Optional[Tuple[str, Any]] = None
    delivery_b: Optional[Tuple[str, Any]] = None
    root_run: str = ""                 # "A" | "B"
    root: Optional[CausalNode] = None
    counterpart: Optional[CausalNode] = None
    chain: List[CausalNode] = field(default_factory=list)
    descendant_deliveries: int = 0
    total_deliveries: int = 0

    def describe(self) -> str:
        from repro.report import render_explanation

        return render_explanation(self)


def _first_divergent_decision(
        graph_a: CausalGraph, graph_b: CausalGraph
        ) -> Tuple[Optional[CausalNode], Optional[CausalNode], str]:
    """First decision pair on which the two runs disagree, compared
    stream-by-stream and ranked by runtime step (earliest wins; the
    scheduler outranks fault verdicts within a step)."""
    streams_a = _aligned_decisions(graph_a)
    streams_b = _aligned_decisions(graph_b)
    best: Optional[Tuple] = None
    for stream in sorted(set(streams_a) | set(streams_b)):
        seq_a = streams_a.get(stream, [])
        seq_b = streams_b.get(stream, [])
        for i in range(max(len(seq_a), len(seq_b))):
            na = seq_a[i] if i < len(seq_a) else None
            nb = seq_b[i] if i < len(seq_b) else None
            if na is not None and nb is not None and \
                    _decision_key(na) == _decision_key(nb):
                continue
            anchor = nb if nb is not None else na
            rank = (anchor.step if anchor.step is not None else 1 << 60,
                    _DECISION_RANK.get(anchor.name, 3),
                    anchor.node_id)
            if best is None or rank < best[0]:
                best = (rank, na, nb)
            break
    if best is None:
        return None, None, ""
    _, na, nb = best
    return na, nb, "B" if nb is not None else "A"


def explain_divergence(graph_a: CausalGraph,
                       graph_b: CausalGraph) -> DivergenceExplanation:
    """Walk two runs' graphs back from their first divergent
    observable event to the earliest decision that explains it."""
    expl = DivergenceExplanation()
    seq_a = [(c, m) for c, m, _ in graph_a.deliveries]
    seq_b = [(c, m) for c, m, _ in graph_b.deliveries]
    index: Optional[int] = None
    for i in range(max(len(seq_a), len(seq_b))):
        da = seq_a[i] if i < len(seq_a) else None
        db = seq_b[i] if i < len(seq_b) else None
        if da != db:
            index = i
            break
    na, nb, root_run = _first_divergent_decision(graph_a, graph_b)
    if index is None and na is None:
        expl.identical = True
        return expl
    expl.index = index
    if index is not None:
        expl.delivery_a = seq_a[index] if index < len(seq_a) else None
        expl.delivery_b = seq_b[index] if index < len(seq_b) else None
    expl.root_run = root_run
    expl.root = nb if root_run == "B" else na
    expl.counterpart = na if root_run == "B" else nb
    if expl.root is None:
        return expl
    graph = graph_b if root_run == "B" else graph_a
    deliveries = graph.deliveries
    expl.total_deliveries = len(deliveries)
    root_id = expl.root.node_id
    future = graph.descendants(root_id) | {root_id}
    expl.descendant_deliveries = sum(
        1 for _, _, producer in deliveries if producer in future)
    # minimal chain: root → the divergent delivery when it descends
    # from the root; otherwise the root's own causal past (e.g. the
    # send a drop verdict consumed)
    chain_ids: Optional[List[str]] = None
    if index is not None and index < len(deliveries):
        chain_ids = graph.path(root_id, deliveries[index][2])
    if chain_ids is None:
        past = graph.ancestors(root_id)
        chain_ids = [n.node_id for n in graph.nodes
                     if n.node_id in past] + [root_id]
        chain_ids = chain_ids[-6:]
    expl.chain = [graph.node(nid) for nid in chain_ids]
    return expl


def explain_records(records_a: Iterable[Any],
                    records_b: Iterable[Any]) -> DivergenceExplanation:
    """Convenience wrapper: build both graphs, then explain."""
    return explain_divergence(CausalGraph.from_records(records_a),
                              CausalGraph.from_records(records_b))
