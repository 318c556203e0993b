"""Regenerate ``known_answers.json``, the answers the benchmark checks.

    python3 perfbench/pin.py

* ``solve``: per catalog class, the BFS result's ``digest()``, node
  count and the engine auto-selection picks.
* ``query``: per (process, depth), the BFS enumeration's node count
  and the distinct features (length, events per channel) of its
  finite solutions, and every question of the benchmark's grammar with
  its answer by filtering those features.  Questions a witness settles
  also carry the nodes the query took, which only groups them.
* ``grid``: every cell a request list can draw, with its conformance
  outcome required to be ``conforms`` and its run digest pinned.

Run it only at a commit whose answers are trusted: a later change that
alters any of these answers makes the benchmark report failures.
"""

from __future__ import annotations

import json

import workloads as wl

DIGEST_CHARS = 16


def solve_answers(program) -> dict:
    out = {}
    for name, (_module, _factory, depth) in wl.SOLVE_CLASSES.items():
        req = {"process": name, "depth": depth}
        process = program.build(req)
        answer, _ = program.serve(process, req)
        if answer["truncated"]:
            raise SystemExit(f"{name}: truncated at depth {depth}")
        out[name] = {"depth": depth, "digest": answer["digest"],
                     "nodes": answer["nodes"],
                     "engine": program.engine(process)}
    return out


def query_facts(program) -> dict:
    out = {}
    for name, depth in wl.query_pairs():
        process = program.build({"process": name})
        result = process.solver().explore(depth)
        if result.truncated:
            raise SystemExit(f"{name}: truncated at depth {depth}")
        channels = sorted(c.name for c in process.channels)
        features = {json.dumps(wl.trace_features(t, channels))
                    for t in result.finite_solutions}
        facts = {
            "channels": channels,
            "bfs_nodes": result.nodes_explored,
            "solutions": sorted(json.loads(f) for f in features),
        }
        facts["questions"] = wl.all_questions(facts, depth)
        for q in facts["questions"]:
            q["nodes"] = None
            if q["early"]:
                req = dict(q, process=name, depth=depth)
                answer, _ = program.serve(process, req)
                q["nodes"] = answer["nodes"]
        out[f"{name}/{depth}"] = facts
    return out


def grid_digests(program) -> dict:
    reqs = ([{"scenario": "dfm", "plan": p, "seed": s}
             for p in wl.DFM_PLANS for s in range(wl.DFM_SEEDS)]
            + [{"scenario": "abp", "plan": p, "pool": i}
               for p in wl.ABP_PLANS for i in range(wl.ABP_POOL)])
    out = {}
    for req in reqs:
        answer, _ = program.serve(program.build(req), req)
        if answer["outcome"] != "conforms":
            raise SystemExit(f"{wl.grid_key(req)}: {answer['outcome']}")
        out[wl.grid_key(req)] = answer["digest"][:DIGEST_CHARS]
    return out


def main() -> None:
    known = {
        "solve": solve_answers(wl.load("solve")),
        "query": query_facts(wl.load("query")),
        "grid": grid_digests(wl.load("grid")),
    }
    with open(wl.KNOWN_ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.KNOWN_ANSWERS}: {len(known['solve'])} solve "
          f"classes, {len(known['query'])} query depths, "
          f"{len(known['grid'])} grid cells")


if __name__ == "__main__":
    main()
