"""Happens-before graph reconstruction and divergence explanation.

Covers the causal observatory's core guarantees:

* graph construction from synthetic event streams — program order,
  scheduler edges, message delivery through the fault pipeline
  (pass / drop / duplicate / hold→release), read (poll) edges, and a
  dropped message's surviving provenance;
* determinism — the digest is a pure function of the recorded
  schedule (timestamps excluded), a replayed run rebuilds the same
  graph, and a parallel fleet cell's graph is digest-identical to the
  same cell run serially (via :func:`split_cells`);
* the divergence explainer — on the clean vs black-hole ABP pair the
  root cause is the fault decision dropping the first lost message.
"""

from repro.obs import CausalGraph, RingBufferSink, Tracer, split_cells
from repro.obs.causality import explain_divergence, explain_records
from repro.obs.tracer import EventRecord


def ev(name, track, ts=0, category=None, **args):
    if category is None:
        category = {"scheduler": "scheduler",
                    "faults": "fault"}.get(track, "runtime")
    return EventRecord(name=name, category=category, track=track,
                       ts_ns=ts, args=args)


def edges_by_label(graph, label):
    return [(s, d) for s, d, lab in graph.edges if lab == label]


# -- construction from synthetic streams ------------------------------------


def clean_exchange():
    """sender sends m on ch (no fault pipeline), receiver recvs it."""
    return [
        ev("oracle.pick_agent", "scheduler", 1,
           step=0, ready=["sender"], chosen="sender"),
        ev("send", "sender", 2, channel="ch", message="m", step=0),
        ev("oracle.pick_agent", "scheduler", 3,
           step=1, ready=["receiver"], chosen="receiver"),
        ev("recv", "receiver", 4, channel="ch", message="m", step=1),
    ]


def test_clean_send_recv_edges():
    g = CausalGraph.from_records(clean_exchange())
    assert [n.node_id for n in g.nodes] == [
        "scheduler#0", "sender#0", "scheduler#1", "receiver#0"]
    # the un-faulted send delivers itself; recv consumes it
    assert edges_by_label(g, "msg") == [("sender#0", "receiver#0")]
    # each pick enables the step it chose
    assert ("scheduler#0", "sender#0") in edges_by_label(g, "sched")
    assert ("scheduler#1", "receiver#0") in edges_by_label(g, "sched")
    # scheduler program order, no agent-to-agent program order
    assert ("scheduler#0", "scheduler#1") in edges_by_label(g, "po")
    assert g.deliveries == [("ch", "m", "sender#0")]
    # Lamport clocks: recv strictly after the send that caused it
    assert g.node("receiver#0").clock > g.node("sender#0").clock


def test_span_and_foreign_categories_ignored():
    from repro.obs.tracer import SpanRecord

    records = clean_exchange() + [
        SpanRecord(name="solver.explore", category="solver",
                   track="solver", start_ns=0, dur_ns=5, depth=0),
        ev("cache.get", "harness", 9, category="harness", key="k"),
    ]
    assert CausalGraph.from_records(records).digest() == \
        CausalGraph.from_records(clean_exchange()).digest()


def test_drop_keeps_provenance_without_delivery():
    records = [
        ev("oracle.pick_agent", "scheduler", 1,
           step=0, ready=["s"], chosen="s"),
        ev("send", "s", 2, channel="ch", message="m", step=0),
        ev("fault.send", "faults", 3, channel="ch", message="m",
           action="drop", delivered=0, held=0, step=0),
    ]
    g = CausalGraph.from_records(records)
    # the dropped message's provenance survives as a fault edge …
    assert edges_by_label(g, "fault") == [("s#0", "faults#0")]
    # … but produces no delivery and no msg edge
    assert g.deliveries == []
    assert edges_by_label(g, "msg") == []
    fault = g.node("faults#0")
    assert fault.is_decision
    assert fault.args["action"] == "drop"


def test_duplicate_delivers_twice_from_one_verdict():
    records = [
        ev("send", "s", 1, channel="ch", message="m", step=0),
        ev("fault.send", "faults", 2, channel="ch", message="m",
           action="duplicate", delivered=2, held=0, step=0),
        ev("recv", "r", 3, channel="ch", message="m", step=1),
        ev("recv", "r", 4, channel="ch", message="m", step=2),
    ]
    g = CausalGraph.from_records(records)
    assert g.deliveries == [("ch", "m", "faults#0")] * 2
    assert edges_by_label(g, "msg") == [
        ("faults#0", "r#0"), ("faults#0", "r#1")]


def test_hold_release_threads_through_the_pipeline():
    records = [
        ev("send", "s", 1, channel="ch", message="m", step=0),
        ev("fault.send", "faults", 2, channel="ch", message="m",
           action="hold", delivered=0, held=1, step=0),
        ev("fault.release", "faults", 3, channel="ch", message="m",
           step=3),
        ev("recv", "r", 4, channel="ch", message="m", step=4),
    ]
    g = CausalGraph.from_records(records)
    # send -> hold verdict -> release -> recv, all causally chained
    assert ("s#0", "faults#0") in edges_by_label(g, "fault")
    assert ("faults#0", "faults#1") in edges_by_label(g, "fault")
    assert ("faults#1", "r#0") in edges_by_label(g, "msg")
    assert g.deliveries == [("ch", "m", "faults#1")]
    assert g.path("s#0", "r#0") == \
        ["s#0", "faults#0", "faults#1", "r#0"]


def test_poll_peeks_without_consuming():
    records = [
        ev("send", "s", 1, channel="ch", message="m", step=0),
        ev("poll", "r", 2, channel="ch", available=True, step=1),
        ev("recv", "r", 3, channel="ch", message="m", step=2),
    ]
    g = CausalGraph.from_records(records)
    assert edges_by_label(g, "read") == [("s#0", "r#0")]
    # the poll did not consume: the recv still gets the msg edge
    assert edges_by_label(g, "msg") == [("s#0", "r#1")]


def test_critical_path_and_queries():
    g = CausalGraph.from_records(clean_exchange())
    chain = g.critical_path()
    assert chain[-1].clock == max(n.clock for n in g.nodes)
    assert [n.clock for n in chain] == \
        list(range(1, len(chain) + 1))
    assert "sender#0" in g.ancestors("receiver#0")
    assert "receiver#0" in g.descendants("scheduler#0")
    assert g.path("scheduler#0", "receiver#0") is not None
    assert g.path("receiver#0", "scheduler#0") is None


def test_exports_are_well_formed():
    import json

    g = CausalGraph.from_records(clean_exchange())
    doc = g.to_json()
    assert doc["digest"] == g.digest()
    assert len(doc["nodes"]) == len(g.nodes)
    json.dumps(doc)                      # JSON-serializable
    dot = g.to_dot(title="t")
    assert dot.startswith('digraph "t"')
    assert '"sender#0" -> "receiver#0"' in dot
    flows = g.flow_arrows()
    assert flows and flows[0]["src_track"] == "sender"
    assert flows[0]["dst_track"] == "receiver"


def test_digest_ignores_timestamps():
    shifted = [EventRecord(name=r.name, category=r.category,
                           track=r.track, ts_ns=r.ts_ns + 1_000_000,
                           args=dict(r.args))
               for r in clean_exchange()]
    assert CausalGraph.from_records(shifted).digest() == \
        CausalGraph.from_records(clean_exchange()).digest()


# -- split_cells -------------------------------------------------------------


def test_split_cells_strips_suffix_and_groups():
    from repro.obs.perfetto import rebase_records

    base = clean_exchange()
    merged = (rebase_records(base, offset_ns=10,
                             track_suffix="@p×1")
              + rebase_records(base, offset_ns=99,
                               track_suffix="@p×2")
              + [ev("fleet.dispatch", "fleet", 0, category="fleet")])
    cells = split_cells(merged)
    assert set(cells) == {"p×1", "p×2", ""}
    d1 = CausalGraph.from_records(cells["p×1"]).digest()
    d2 = CausalGraph.from_records(cells["p×2"]).digest()
    base_digest = CausalGraph.from_records(base).digest()
    assert d1 == d2 == base_digest
    # the originals were not mutated
    assert merged[0].track.endswith("@p×1")


# -- determinism on real runs ------------------------------------------------


def _traced_cell(task):
    from repro.par import _cell_worker

    return _cell_worker(task)


def test_parallel_cell_graph_equals_serial():
    """A fleet cell's graph (suffix stripped) is digest-identical to
    the same cell run serially — the merged timeline loses nothing."""
    from repro import par
    from repro.par import CellTask, get_scenario

    ring = RingBufferSink(capacity=500_000)
    tracer = Tracer([ring])
    report = par.run_conformance_parallel(
        "dfm", seeds=range(2), workers=2, tracer=tracer)
    assert not report.genuine_failures
    cells = {name: recs for name, recs in
             split_cells(list(ring.records)).items() if name}
    assert cells, "fleet buffer carried no per-cell records"
    steps = get_scenario("dfm").max_steps
    checked = 0
    for name, cell_records in sorted(cells.items()):
        plan, seed = name.rsplit("×", 1)
        assert any(c.plan == plan and c.seed == int(seed)
                   for c in report.cases), f"no case for cell {name!r}"
        task = CellTask(scenario="dfm", plan=plan, seed=int(seed),
                        max_steps=steps, traced=True)
        _, serial_records, _ = _traced_cell(task)
        assert CausalGraph.from_records(cell_records).digest() == \
            CausalGraph.from_records(serial_records).digest(), \
            f"cell {name!r} diverges from its serial run"
        checked += 1
    assert checked == len(report.cases)


# -- divergence explanation --------------------------------------------------


def test_identical_runs_explained_as_identical():
    expl = explain_records(clean_exchange(), clean_exchange())
    assert expl.identical
    assert "identical" in expl.describe()


def test_drop_explains_missing_delivery():
    clean = clean_exchange()
    dropped = [
        ev("oracle.pick_agent", "scheduler", 1,
           step=0, ready=["sender"], chosen="sender"),
        ev("send", "sender", 2, channel="ch", message="m", step=0),
        ev("fault.send", "faults", 3, channel="ch", message="m",
           action="drop", delivered=0, held=0, step=0),
    ]
    expl = explain_records(clean, dropped)
    assert not expl.identical
    assert expl.index == 0
    assert expl.delivery_a == ("ch", "m")
    assert expl.delivery_b is None
    assert expl.root_run == "B"
    assert expl.root.name == "fault.send"
    assert expl.root.args["action"] == "drop"
    # the chain walks the drop's causal past: the send it consumed
    chain_ids = [n.node_id for n in expl.chain]
    assert chain_ids[-1] == "faults#0"
    assert "sender#0" in chain_ids
    text = expl.describe()
    assert "drop" in text and "root cause" in text


def _record_abp(plan_name, tmp_path, seed=11):
    from repro.__main__ import cmd_record

    path = tmp_path / f"{plan_name}.json"
    assert cmd_record("alternating_bit", plan_name, seed,
                      max_steps=4000, out=str(path)) == 0
    return path


def _traced_replay(path):
    from repro.__main__ import _traced_replay_records
    from repro.obs.recorder import Schedule

    return _traced_replay_records(Schedule.load(str(path)))


def test_black_hole_root_cause_is_first_drop(tmp_path):
    """The acceptance case: clean vs black-hole ABP — the explainer
    must name the fault decision that dropped the first lost
    message as the root cause."""
    clean = _traced_replay(_record_abp("no-faults", tmp_path))
    hole = _traced_replay(_record_abp("black-hole", tmp_path))
    ga = CausalGraph.from_records(clean)
    gb = CausalGraph.from_records(hole)
    # replays are deterministic: rebuilding gives the same digest
    assert ga.digest() == CausalGraph.from_records(clean).digest()
    expl = explain_divergence(ga, gb)
    assert not expl.identical
    assert expl.index == 0                     # first delivery differs
    assert expl.root_run == "B"
    assert expl.root.name == "fault.send"
    assert expl.root.args["action"] == "drop"
    assert expl.root.args["channel"] == "data"
    # the minimal chain ends at the drop and includes the doomed send
    chain = [n.node_id for n in expl.chain]
    assert chain[-1] == expl.root.node_id
    assert any(n.name == "send" for n in expl.chain)
