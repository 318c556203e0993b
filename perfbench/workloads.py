"""The three workloads: request lists, request execution, answer checks.

Importing this module touches only the standard library.  The
program's packages are imported by :func:`load`, so a cold launch can
time them (see ``cold.py``).

A request is a small JSON-ready dict.  Serving one is split in two,
``build`` (make the input: a catalog process or a grid scenario) and
``serve`` (run it as ``repro solve|query|grid`` would), and both are
inside a request's timer.  ``serve`` returns ``(answer, keep)``:
``answer`` is a small dict that the checks read, ``keep`` holds the
program's large result so the caller can release it after the timer
stops.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXAMPLES = os.path.join(ROOT, "examples")
KNOWN_ANSWERS = os.path.join(HERE, "known_answers.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("solve", "query", "grid")

#: Typical requests per second on a 2-vCPU x86 VM (Python 3.11).  A run
#: times ``seconds × rate`` requests, a list fixed by the seed, so every
#: run times the same population however fast the program is.
RATES = {"solve": 20.0, "query": 105.0, "grid": 80.0}

#: The catalog processes ``solve`` draws from, each at one depth sized
#: to a few tens of ms: the first four compile, the last four run on
#: the reference engine.
SOLVE_CLASSES = {
    "dfm": ("merge", "make_dfm", 4),
    "fair_merge": ("merge", "make_fair_merge", 4),
    "implication": ("implication", "make", 6),
    "random_bit_sequence": ("random_bit", "make_sequence", 9),
    "fork": ("fork", "make", 3),
    "lossy": ("lossy", "make", 4),
    "finite_ticks": ("finite_ticks", "make", 6),
    "fair_random": ("fair_random", "make", 8),
}

#: The compilable processes ``query`` asks about, with their depths.
QUERY_DEPTHS = {
    "dfm": (4, 5),
    "fair_merge": (4,),
    "implication": (5, 6, 7),
    "random_bit_sequence": (8, 9, 10),
}

#: Per (process, depth) and round: questions a witness or
#: counterexample settles early, one from each sixth of that depth's
#: early questions ranked by the nodes they took when pinned.
QUERY_EARLY_PER_ROUND = 6
#: Per round: questions only a full enumeration settles, at the three
#: depths whose full enumeration takes ~25-60 ms.  Their costs overlap,
#: so p90 lands in the middle of one dense cluster on every seed.  With
#: one full question at every depth, p90 sat on the steep slope
#: between full enumerations of 15 to 400 ms (p92/p88 about 2.2), and
#: the host's slowdowns, which reorder neighbouring requests, moved it
#: twice as much as p50.
QUERY_FULL_PER_ROUND = {("random_bit_sequence", 9): 4, ("dfm", 4): 4,
                        ("implication", 6): 4}

#: Grid cells per round: each dfm plan and each alternating-bit plan,
#: so half the cells are dfm and half alternating-bit.
GRID_DFM_PER_PLAN = 4
GRID_ABP_PER_PLAN = 3
DFM_PLANS = ("none", "drop", "heavy-drop")
DFM_SEEDS = 64
ABP_PLANS = ("no-faults", "fair-loss", "heavy-loss", "loss+dup")
ABP_POOL = 256
ABP_MIN_MESSAGES = 12
ABP_MAX_MESSAGES = 48

#: Every run holds at least this many requests, so at least ten
#: samples lie beyond p90.
MIN_REQUESTS = 100


def use_checkout() -> None:
    """Put the checkout's ``src/`` and ``examples/`` on ``sys.path``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    for path in (EXAMPLES, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def known_answers() -> dict:
    with open(KNOWN_ANSWERS, encoding="utf-8") as fh:
        return json.load(fh)


def benchmark_spec() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


# -- request lists -----------------------------------------------------------


def request_count(workload: str, seconds: float) -> int:
    return max(MIN_REQUESTS, round(seconds * RATES[workload]))


#: Every list starts with the same request, the one the cold launches
#: serve, so ``setup_s`` does not depend on the seed.
FIRST_REQUEST = {
    "solve": {"process": "dfm", "depth": 4},
    "query": {"process": "dfm", "depth": 4, "mode": "exists",
              "predicate": "length >= 2", "expect": True, "early": True},
    "grid": {"scenario": "dfm", "plan": "drop", "seed": 0},
}


def make_requests(workload: str, seed: int, n: int,
                  known: dict) -> list[dict]:
    """The seed's fixed request list: :data:`FIRST_REQUEST`, then whole
    rounds until there are at least ``n`` more.  A round holds every
    class equally often and is shuffled on its own, so each class is
    spread evenly over the run.  Each request of a round carries the
    round's number as ``round``."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    reqs = [dict(FIRST_REQUEST[workload])]
    rounds = 0
    while len(reqs) <= n:
        if workload == "solve":
            batch = _solve_round()
        elif workload == "query":
            batch = _query_round(rng, known["query"])
        else:
            batch = _grid_round(rng)
        rng.shuffle(batch)
        for req in batch:
            req["round"] = rounds
        reqs += batch
        rounds += 1
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs


def _solve_round() -> list[dict]:
    return [{"process": name, "depth": depth}
            for name, (_module, _factory, depth) in SOLVE_CLASSES.items()]


def query_pairs() -> list[tuple[str, int]]:
    return [(name, depth) for name, depths in QUERY_DEPTHS.items()
            for depth in depths]


def _query_round(rng: random.Random, known: dict) -> list[dict]:
    reqs = []
    for name, depth in query_pairs():
        early, full = _question_groups(known[f"{name}/{depth}"])
        picks = [rng.choice(group) for group in early]
        picks += [rng.choice(full) for _ in
                  range(QUERY_FULL_PER_ROUND.get((name, depth), 0))]
        reqs += [_question(name, depth, q) for q in picks]
    return reqs


def _question_groups(facts: dict) -> tuple[list, list]:
    """A depth's early questions in :data:`QUERY_EARLY_PER_ROUND`
    groups of rising pinned node count, and its full questions."""
    early = sorted((q for q in facts["questions"] if q["early"]),
                   key=lambda q: (q["nodes"], q["mode"], q["predicate"]))
    full = [q for q in facts["questions"] if not q["early"]]
    size = len(early) / QUERY_EARLY_PER_ROUND
    groups = [early[round(i * size):round((i + 1) * size)]
              for i in range(QUERY_EARLY_PER_ROUND)]
    return groups, full


def _question(name: str, depth: int, q: dict) -> dict:
    return {"process": name, "depth": depth, "mode": q["mode"],
            "predicate": q["predicate"], "expect": q["expect"],
            "early": q["early"]}


def all_questions(facts: dict, depth: int) -> list[dict]:
    """Every question of the benchmark's grammar at one depth, with its
    BFS enumerate-then-filter answer and whether a witness settles it."""
    out = []
    for mode in ("exists", "all"):
        for left in ["length"] + [f"on:{c}" for c in facts["channels"]]:
            for op in (">=", "<=") if left == "length" else (">=",):
                for k in range(depth + 2):
                    text = f"{left} {op} {k}"
                    holds = expected_holds(mode, text, facts)
                    out.append({"mode": mode, "predicate": text,
                                "expect": holds,
                                "early": holds == (mode == "exists")})
    return out


def _grid_round(rng: random.Random) -> list[dict]:
    reqs = [{"scenario": "dfm", "plan": plan,
             "seed": rng.randrange(DFM_SEEDS)}
            for plan in DFM_PLANS for _ in range(GRID_DFM_PER_PLAN)]
    reqs += [{"scenario": "abp", "plan": plan,
              "pool": rng.randrange(ABP_POOL)}
             for plan in ABP_PLANS for _ in range(GRID_ABP_PER_PLAN)]
    return reqs


def warmup_requests(workload: str, known: dict) -> list[dict]:
    """One request per class, served untimed before the timed pass."""
    if workload == "solve":
        return _solve_round()
    if workload == "query":
        reqs = []
        for name, depth in query_pairs():
            early, full = _question_groups(known["query"][f"{name}/{depth}"])
            reqs += [_question(name, depth, group[0]) for group in early]
            if (name, depth) in QUERY_FULL_PER_ROUND:
                reqs.append(_question(name, depth, full[0]))
        return reqs
    return ([{"scenario": "dfm", "plan": p, "seed": 0} for p in DFM_PLANS]
            + [{"scenario": "abp", "plan": p, "pool": 0}
               for p in ABP_PLANS])


def request_class(workload: str, req: dict) -> str:
    if workload == "solve":
        return req["process"]
    if workload == "query":
        kind = "early" if req["early"] else "full"
        return f"{req['process']}/{req['depth']}/{kind}"
    return f"{req['scenario']}/{req['plan']}"


# -- predicates over solution features ---------------------------------------
#
# The benchmark's own reading of the predicate grammar, used only to
# derive expected answers from the pinned solution features.

_OPS = {">=": lambda a, b: a >= b, "<=": lambda a, b: a <= b}


def feature_holds(text: str, length: int, counts: dict) -> bool:
    """``length OP k`` / ``on:CH OP k`` on a solution's features."""
    left, op, k = text.split()
    value = length if left == "length" else counts[left[3:]]
    return _OPS[op](value, int(k))


def expected_holds(mode: str, text: str, facts: dict) -> bool:
    channels = facts["channels"]
    truths = [feature_holds(text, length, dict(zip(channels, counts)))
              for length, counts in facts["solutions"]]
    return any(truths) if mode == "exists" else all(truths)


def trace_features(trace, channels: list) -> list:
    counts = dict.fromkeys(channels, 0)
    for event in trace:
        counts[event.channel.name] += 1
    return [trace.length(), [counts[c] for c in channels]]


# -- serving -----------------------------------------------------------------


class Program:
    """The program's entry points, imported by :func:`load`."""

    def __init__(self, workload: str):
        self.workload = workload
        if workload in ("solve", "query"):
            from repro import processes
            from repro.core import SmoothSolutionSolver

            self.processes = processes
            self.Solver = SmoothSolutionSolver
        else:
            import alternating_bit
            from repro import par
            from repro.faults import harness

            self.abp = alternating_bit
            self.par = par
            self.harness = harness
            self.abp_plans = {
                "no-faults": alternating_bit.no_faults,
                "fair-loss": lambda: alternating_bit.fair_loss_plan(
                    seed=11),
                "heavy-loss": lambda: alternating_bit.fair_loss_plan(
                    seed=23, p=0.5),
                "loss+dup": lambda: alternating_bit
                .loss_and_duplication_plan(seed=5),
            }

    # ``build`` makes a request's input, ``serve`` runs it; the
    # optional ``tracer`` goes to the solver (counting pass only).

    def build(self, req: dict):
        if self.workload == "grid":
            if req["scenario"] == "dfm":
                return self.par.get_scenario("dfm")
            return abp_stream(req["pool"])
        module, factory, _depth = SOLVE_CLASSES[req["process"]]
        return getattr(getattr(self.processes, module), factory)()

    def engine(self, process) -> str:
        """The engine ``explore`` auto-selects for a catalog process."""
        from repro.core.compiled import compile_description

        compiled = compile_description(process.description(),
                                       process.solver().candidates)
        return "reference" if compiled is None else "compiled"

    def serve(self, built, req: dict, tracer=None):
        if self.workload == "solve":
            return self._solve(built, req, tracer)
        if self.workload == "query":
            return self._query(built, req, tracer)
        return self._grid(built, req)

    def _solve(self, process, req, tracer):
        solver = process.solver()
        if tracer is not None:
            solver.tracer = tracer
        result = solver.explore(req["depth"])
        answer = {"digest": result.digest(),
                  "nodes": result.nodes_explored,
                  "solutions": len(result.finite_solutions),
                  "truncated": result.truncated}
        if tracer is not None:
            answer["counts"] = _solver_counts(result)
        return answer, result

    def _query(self, process, req, tracer):
        solver = self.Solver.over_channels(
            process.description(), process.channels, tracer=tracer,
            strategy="best-first", heuristic="rhs-distance")
        result = solver.query(req["predicate"], req["depth"],
                              mode=req["mode"])
        witness = None
        if result.certificate is not None:
            replayed = solver.replay_witness(result.certificate)
            channels = sorted(c.name for c in process.channels)
            witness = trace_features(replayed, channels)
        answer = {"holds": result.holds,
                  "nodes": result.nodes_explored,
                  "short_circuited": result.meta["short_circuited"],
                  "witness": witness}
        if tracer is not None:
            answer["counts"] = _solver_counts(result.result)
        return answer, (solver, result)

    def _grid(self, built, req):
        run_conformance = self.harness.run_conformance
        plan = req["plan"]
        if req["scenario"] == "dfm":
            sc = built
            report = run_conformance(
                sc.name, sc.agents, sc.channels, sc.spec,
                {plan: sc.plans[plan]}, seeds=[req["seed"]],
                observe=sc.observe, max_steps=sc.max_steps,
                policy=sc.policy, watchdog_limit=sc.watchdog_limit,
                depth=sc.depth)
        else:
            abp = self.abp
            report = run_conformance(
                "abp-direct", abp.direct_agents(built),
                abp.FAULTY_CHANNELS,
                abp.service_spec(built).combined(),
                {plan: self.abp_plans[plan]}, seeds=[req["pool"]],
                observe={abp.OUT}, max_steps=4000, watchdog_limit=600)
        [case] = report.cases
        answer = {"outcome": case.outcome,
                  "digest": case.schedule.meta["digest"],
                  "steps": case.result.steps}
        return answer, report


def _solver_counts(result) -> dict:
    """The evaluation counts a traced solver publishes."""
    return {"f_evals": result.profile["f_evaluations"],
            "g_evals": result.profile["g_evaluations"],
            "proposed": result.metrics.get("solver.candidates_proposed", 0),
            "pruned": result.metrics.get("solver.candidates_pruned", 0)}


def load(workload: str) -> Program:
    use_checkout()
    return Program(workload)


def abp_stream(pool: int) -> list[str]:
    """Alternating-bit pool entry ``pool``'s submitted messages."""
    rng = random.Random(pool)
    length = rng.randint(ABP_MIN_MESSAGES, ABP_MAX_MESSAGES)
    return [rng.choice(("alpha", "beta", "gamma")) for _ in range(length)]


def grid_key(req: dict) -> str:
    if req["scenario"] == "dfm":
        return f"dfm/{req['plan']}/{req['seed']}"
    return f"abp/{req['plan']}/{req['pool']}"


# -- checks ------------------------------------------------------------------


def check(workload: str, req: dict, answer: dict,
          known: dict) -> str:
    """Why ``answer`` is wrong, or ``""`` when it matches."""
    if workload == "solve":
        want = known["solve"][req["process"]]
        if answer["truncated"]:
            return "truncated"
        if answer["nodes"] != want["nodes"]:
            return f"nodes {answer['nodes']} != {want['nodes']}"
        if answer["digest"] != want["digest"]:
            return "digest differs from the pinned one"
        return ""
    if workload == "query":
        facts = known["query"][f"{req['process']}/{req['depth']}"]
        if answer["holds"] is None:
            return "unresolved"
        if answer["holds"] != req["expect"]:
            return f"holds={answer['holds']}, BFS says {req['expect']}"
        witness = answer["witness"]
        if req["early"] != (witness is not None):
            return "witness presence does not match the answer"
        if witness is not None:
            if witness not in facts["solutions"]:
                return f"witness {witness} is not a BFS solution"
            length, counts = witness
            satisfied = feature_holds(
                req["predicate"], length,
                dict(zip(facts["channels"], counts)))
            if satisfied != (req["mode"] == "exists"):
                return "witness does not settle the question"
        return ""
    if answer["outcome"] != "conforms":
        return f"outcome {answer['outcome']}"
    want = known["grid"][grid_key(req)]
    if answer["digest"][:len(want)] != want:
        return "run digest differs from the pinned one"
    return ""
