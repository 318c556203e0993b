"""perfbench: the repository benchmark (see README.md in this directory).

One run:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

``--trace 0`` serves the seed's fixed request list closed-loop (one
request in flight), and prints the end-to-end metrics;
``--trace 1`` makes the traced run of all three workloads and prints
the per-layer metrics.  The last line of standard output is the
result object.

The steadiness report runs the benchmark over several seeds and prints
every run's value with median and quartiles, and each workload's
latency histogram with p50 and p90 marked:

    python3 perfbench/run.py --report

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads as wl

#: Fresh interpreters launched per run, spread evenly through the timed
#: pass; ``setup_s`` is their median (one launch alone spreads ~10%).
SETUP_LAUNCHES = 9
#: Launches per workload for the traced run's start-up attribution.
TRACE_LAUNCHES = 5
#: The traced run gives each workload's passes this share of --seconds.
TRACE_PASS_SHARE = 1 / 8

RESULTS = os.path.join(wl.HERE, "results")
COLD = os.path.join(wl.HERE, "cold.py")
CHILD_TIMEOUT_S = 120

#: Top-level ``repro`` packages each workload imports at start-up;
#: ``repro`` stands for the package's own ``__init__``.
IMPORT_PACKAGES = {
    "solve": ("repro", "channels", "core", "functions", "kahn", "obs",
              "order", "processes", "seq", "traces"),
    "query": ("repro", "channels", "core", "functions", "kahn", "obs",
              "order", "processes", "seq", "traces"),
    "grid": ("repro", "channels", "core", "faults", "functions", "kahn",
             "obs", "order", "par", "processes", "reasoning", "seq",
             "traces"),
}


# -- launches -----------------------------------------------------------------


def _known_for(workload: str, req: dict, known: dict) -> dict:
    """The slice of the known answers one request is checked against."""
    if workload == "solve":
        return {"solve": {req["process"]: known["solve"][req["process"]]}}
    if workload == "query":
        pair = f"{req['process']}/{req['depth']}"
        return {"query": {pair: known["query"][pair]}}
    key = wl.grid_key(req)
    return {"grid": {key: known["grid"][key]}}


def launch_cold(workload: str, req: dict, known: dict,
                importtime: bool = False) -> dict:
    """One fresh interpreter serving ``req``; stamps are relative to
    the moment before it was launched."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
    argv += [COLD, workload, json.dumps(req),
             json.dumps(_known_for(workload, req, known))]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=wl.ROOT)
    if proc.returncode != 0:
        return {"problem": f"launch exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for key in [k for k in out if k.startswith("t_")]:
        out[key] -= t0
    out["stderr"] = proc.stderr
    return out


def interpreter_ms(launches: int) -> float:
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=CHILD_TIMEOUT_S, cwd=wl.ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def import_ms_by_package(stderr: str) -> dict:
    """Sum ``-X importtime`` self times of ``repro`` modules by
    top-level package (``repro`` is the package's own ``__init__``)."""
    out: dict = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        module = fields[2].strip()
        if module != "repro" and not module.startswith("repro."):
            continue
        package = module.split(".")[1] if "." in module else "repro"
        out[package] = out.get(package, 0.0) + int(fields[0]) / 1e3
    return out


# -- serving ------------------------------------------------------------------


def serve_pass(program, workload: str, reqs: list, layers=None,
               solver_tracer=None, between=None) -> list:
    """Serve ``reqs`` in order, one in flight.  A request's result is
    released, and the garbage it left collected, after its timer stops
    (``ms``) and before the next one starts; ``cycle_ms`` includes that
    release.  ``between(i)``, when given, runs untimed before request
    ``i``."""
    samples = []
    clock = time.perf_counter
    for i, req in enumerate(reqs):
        if between is not None:
            between(i)
        built = keep = None
        t0 = clock()
        try:
            if layers is None:
                built = program.build(req)
                answer, keep = program.serve(built, req, solver_tracer)
            else:
                with layers.request(req["id"], workload,
                                    wl.request_class(workload, req)):
                    with layers.build():
                        built = program.build(req)
                    answer, keep = program.serve(built, req)
            error = ""
        except Exception:  # one failed request must not stop the run
            answer, error = None, traceback.format_exc(limit=4)
        t1 = clock()
        del built, keep
        gc.collect()
        samples.append({"id": req["id"], "ms": (t1 - t0) * 1e3,
                        "cycle_ms": (clock() - t0) * 1e3,
                        "answer": answer, "error": error,
                        "info": dict(layers.info) if layers else {}})
    return samples


def check_samples(workload: str, reqs: list, samples: list,
                  known: dict) -> list:
    """Mark each sample's ``problem``; returns the failed ones."""
    failed = []
    for req, sample in zip(reqs, samples):
        if sample["error"]:
            problem = "raised: " + sample["error"].strip().splitlines()[-1]
        else:
            problem = wl.check(workload, req, sample["answer"], known)
        sample["problem"] = problem
        if problem:
            failed.append({"id": req["id"], "request": req,
                           "problem": problem})
    return failed


def once_checks(program, workload: str, known: dict) -> tuple:
    """Answers checked once per run, outside every timed section;
    returns how many were checked and the problems found."""
    if workload != "solve":
        return 0, []
    problems = []
    for name in wl.SOLVE_CLASSES:
        engine = program.engine(program.build({"process": name}))
        if engine != known["solve"][name]["engine"]:
            problems.append(f"{name}: engine {engine}")
    # §4.5: Implication's quiescent traces to depth 3
    from repro.processes import implication

    process = implication.make()
    c, d = (next(ch for ch in process.channels if ch.name == n)
            for n in ("c", "d"))
    if process.traces_upto(3) != implication.expected_traces(c, d):
        problems.append("implication.traces_upto(3) differs from the "
                        "four traces of §4.5")
    return len(wl.SOLVE_CLASSES) + 1, problems


def percentile(values: list, q: int) -> float:
    """The ``q``-th percentile of a round's latencies.  A round is the
    whole population of its classes, so the percentile interpolates
    between its own samples (``statistics.quantiles``' inclusive
    method) and never reaches past the largest."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def round_stats(reqs: list, samples: list) -> list[dict]:
    """Per round of the list: p50 and p90 of its checked requests'
    latencies."""
    by_round: dict = {}
    for req, sample in zip(reqs, samples):
        if "round" in req and not sample["problem"]:
            by_round.setdefault(req["round"], []).append(sample["ms"])
    return [{"p50": statistics.median(ms), "p90": percentile(ms, 90)}
            for ms in by_round.values() if len(ms) >= 2]


# -- provenance ---------------------------------------------------------------


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(wl.ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    """Content hash of the measured sources, which identifies them
    also in a checkout without git metadata."""
    h = hashlib.sha256()
    files = [os.path.join(wl.EXAMPLES, "alternating_bit.py")]
    for base, dirs, names in os.walk(os.path.join(wl.SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        files += [os.path.join(base, n) for n in names if n.endswith(".py")]
    for path in sorted(files):
        h.update(os.path.relpath(path, wl.ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def calibration_ms() -> float:
    """A fixed pure-Python loop's time, recorded beside the metrics and
    never used to scale them."""
    def loop_s() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return time.perf_counter() - t0

    return statistics.median(loop_s() for _ in range(5)) * 1e3


def provenance(args, sample_counts: dict) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": sample_counts,
        "calibration_ms": calibration_ms(),
    }


# -- the untraced run ---------------------------------------------------------


def run_untraced(args) -> dict:
    workload = args.workload
    known = wl.known_answers()
    reqs = wl.make_requests(workload, args.seed,
                            wl.request_count(workload, args.seconds),
                            known)
    program = wl.load(workload)
    warm = wl.warmup_requests(workload, known)
    for req in warm:
        req["id"] = -1
    failed = check_samples(workload, warm,
                           serve_pass(program, workload, warm), known)
    gc.collect()
    gc.freeze()
    launches = []
    every = len(reqs) // SETUP_LAUNCHES

    def launch(i: int) -> None:
        if i % every == 0 and len(launches) < SETUP_LAUNCHES:
            launches.append(launch_cold(workload, reqs[0], known))

    samples = serve_pass(program, workload, reqs, between=launch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed += check_samples(workload, reqs, samples, known)
    failed += [{"problem": x["problem"]} for x in launches if x["problem"]]
    checked, problems = once_checks(program, workload, known)
    failed += [{"problem": p} for p in problems]
    good = [s for s in samples if not s["problem"]]
    # p50 and p90 are taken per round and averaged over the rounds.
    # The host switches between two speeds ~1.6x apart; a percentile of
    # the whole run jumps from one class cluster to the next as the
    # share of slow time changes, while the mean of per-round
    # percentiles moves with that share only as much as
    # requests_per_s does (README.md, "Machine noise").
    rounds = round_stats(reqs, samples)
    setup = [x["t_checked"] for x in launches if not x["problem"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_p50_ms": (statistics.fmean(r["p50"] for r in rounds),
                           "ms"),
        "request_p90_ms": (statistics.fmean(r["p90"] for r in rounds),
                           "ms"),
        "requests_per_s": (len(good) / sum(s["cycle_ms"] for s in good)
                           * 1e3, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {
        "attempted": len(warm) + len(reqs) + len(launches) + checked,
        "failed": failed,
        "metrics": metrics,
        "samples": {"requests": len(reqs), "verified": len(good),
                    "rounds": len(rounds),
                    "setup_launches": len(setup)},
        "latencies_ms": [s["ms"] for s in samples],
        "rounds": rounds,
        "classes": [wl.request_class(workload, r) for r in reqs],
    }


# -- the traced run -----------------------------------------------------------


def run_traced(args) -> dict:
    from repro.obs import RingBufferSink, Tracer, write_chrome_trace

    import layers as lay

    ring = RingBufferSink(capacity=1_000_000)
    tracer = Tracer([ring])
    metrics = {"setup.interpreter_ms": (interpreter_ms(TRACE_LAUNCHES),
                                        "ms")}
    known = wl.known_answers()
    attempted, failed, counts, breakdown = 0, [], {}, {}
    for workload in wl.WORKLOADS:
        n = round(args.seconds * TRACE_PASS_SHARE * wl.RATES[workload])
        reqs = wl.make_requests(workload, args.seed, n, known)
        launches, split = _setup_split(workload, reqs[0], known)
        attempted += len(launches)
        failed += [{"problem": x["problem"]} for x in launches
                   if x["problem"]]
        metrics.update(split)

        program = wl.load(workload)
        warm = wl.warmup_requests(workload, known)
        for req in warm:
            req["id"] = -1
        serve_pass(program, workload, warm)
        gc.collect()
        gc.freeze()
        plain = serve_pass(program, workload, reqs)
        layer_tracer = lay.LayerTracer(tracer)
        layer_tracer.install(workload)
        first = len(ring)
        try:
            traced = serve_pass(program, workload, reqs,
                                layers=layer_tracer)
        finally:
            layer_tracer.uninstall()
        attribution, negative = lay.self_times(list(ring)[first:])
        passes = [plain, traced]
        counted = None
        if workload != "grid":
            counted = serve_pass(program, workload, reqs,
                                 solver_tracer=Tracer([]))
            passes.append(counted)
        for samples in passes:
            attempted += len(samples)
            failed += check_samples(workload, reqs, samples, known)
        if len(attribution) != len(reqs):
            failed.append({"problem": f"{workload}: {len(attribution)} "
                           f"request spans for {len(reqs)} requests"})
        if negative:
            i, name, ns = negative[0]
            failed.append({"problem": f"{workload}: {len(negative)} spans "
                           f"charged time twice, first {name} in request "
                           f"{i} with self time {ns} ns"})
        in_timed = sum(s["info"].get(lay.SPAN_IN_TIMED, 0) for s in traced)
        if in_timed:
            failed.append({"problem": f"{workload}: {in_timed} spans opened "
                           f"inside a timed call, charged twice"})
        overhead = (sum(x["ms"] for x in traced)
                    / sum(x["ms"] for x in plain) - 1)
        metrics[f"{workload}.trace.overhead_pct"] = (overhead * 100, "%")
        metrics.update(_layer_metrics(workload, reqs, traced, counted,
                                      attribution, known))
        breakdown[workload] = _breakdown(attribution)
        counts[workload] = len(reqs)
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-seed{args.seed}.json")
    write_chrome_trace(list(ring), spans_path, process_name="perfbench")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "samples": counts, "breakdown": breakdown,
            "spans": os.path.relpath(spans_path, wl.ROOT)}


def _setup_split(workload: str, req: dict, known: dict) -> tuple:
    """Start-up split into imports per package, input build and the
    first request, from fresh interpreters; returns the launches and
    the metrics."""
    launches = [launch_cold(workload, req, known, importtime=timed)
                for timed in [False] * TRACE_LAUNCHES + [True] * TRACE_LAUNCHES]
    plain = [x for x in launches[:TRACE_LAUNCHES] if not x["problem"]]
    timed = [x for x in launches[TRACE_LAUNCHES:] if not x["problem"]]
    if not plain or not timed:
        raise RuntimeError(f"{workload}: cold launches failed")
    out = {
        f"{workload}.setup.build_ms": (statistics.median(
            x["t_built"] - x["t_imported"] for x in plain) * 1e3, "ms"),
        f"{workload}.setup.first_request_ms": (statistics.median(
            x["t_answered"] - x["t_built"] for x in plain) * 1e3, "ms"),
    }
    by_package = [import_ms_by_package(x["stderr"]) for x in timed]
    out[f"{workload}.setup.import_ms"] = (statistics.median(
        sum(p.values()) for p in by_package), "ms")
    for package in IMPORT_PACKAGES[workload]:
        out[f"{workload}.setup.import_ms.{package}"] = (statistics.median(
            p.get(package, 0.0) for p in by_package), "ms")
    return launches, out


def _layer_metrics(workload: str, reqs: list, traced: list,
                   counted: list | None, attribution: dict,
                   known: dict) -> dict:
    n = len(reqs)

    def self_ns(layer: str, ids=None) -> int:
        return sum(layers.get(layer, 0)
                   for i, (_ns, layers, _whole) in attribution.items()
                   if ids is None or i in ids)

    answers = [s["answer"] for s in traced]
    m = {}
    if workload in ("solve", "query"):
        m["core.compiled.compile_ms"] = (
            self_ns("core.compiled.compile") / n / 1e6, "ms")
        totals = {k: sum(s["answer"]["counts"][k] for s in counted)
                  for k in ("f_evals", "g_evals", "proposed", "pruned")}
        nodes_counted = sum(s["answer"]["nodes"] for s in counted)
        m["core.solver.f_evals_per_node"] = (
            totals["f_evals"] / nodes_counted, "ratio")
        m["core.solver.g_evals_per_node"] = (
            totals["g_evals"] / nodes_counted, "ratio")
    if workload == "solve":
        nodes = {s["id"]: s["answer"]["nodes"] for s in traced}
        compiled = {s["id"] for s in traced
                    if s["info"].get("engine") == "compiled"}
        reference = set(nodes) - compiled
        m["core.compiled.us_per_node"] = (
            self_ns("core.compiled.bfs", compiled)
            / sum(nodes[i] for i in compiled) / 1e3, "us")
        m["core.compiled.share"] = (len(compiled) / n, "share")
        m["core.solver.reference_us_per_node"] = (
            self_ns("core.solver.explore", reference)
            / sum(nodes[i] for i in reference) / 1e3, "us")
        m["core.solver.digest_ms"] = (
            self_ns("core.solver.digest") / n / 1e6, "ms")
        m["core.solver.nodes"] = (sum(nodes.values()) / n, "count")
        m["core.solver.solutions_per_node"] = (
            sum(a["solutions"] for a in answers) / sum(nodes.values()),
            "ratio")
        m["core.solver.prune_ratio"] = (
            totals["pruned"] / totals["proposed"], "ratio")
    elif workload == "query":
        bfs_nodes = sum(known["query"][f"{r['process']}/{r['depth']}"]
                        ["bfs_nodes"] for r in reqs)
        m["core.search.search_ms"] = (
            self_ns("core.search.ordered") / n / 1e6, "ms")
        m["core.search.node_ratio"] = (
            sum(a["nodes"] for a in answers) / bfs_nodes, "ratio")
        m["core.search.parse_ms"] = (
            self_ns("core.search.parse") / n / 1e6, "ms")
        m["core.search.replay_ms"] = (
            self_ns("core.search.replay") / n / 1e6, "ms")
        m["core.search.early_exit_share"] = (
            sum(bool(a["short_circuited"]) for a in answers) / n,
            "share")
    else:
        steps = sum(a["steps"] for a in answers)
        infos = [s["info"] for s in traced]
        events = sum(i.get("check.events", 0) for i in infos)
        supervised = sum(whole.get("faults.supervised", 0)
                         for _ns, _layers, whole in attribution.values())
        m["kahn.us_per_step"] = (self_ns("kahn.run") / steps / 1e3, "us")
        m["kahn.steps_per_cell"] = (steps / n, "count")
        m["faults.run_supervised_ms"] = (supervised / n / 1e6, "ms")
        m["faults.injected_per_cell"] = (
            sum(i.get("faults.injected", 0) for i in infos) / n, "count")
        m["faults.pipeline_ms"] = (self_ns("faults.plan") / n / 1e6, "ms")
        m["core.description.check_ms"] = (
            self_ns("core.description.check") / n / 1e6, "ms")
        m["core.description.check_us_per_event"] = (
            self_ns("core.description.check") / events / 1e3, "us")
        m["obs.recorder.record_ms"] = (
            (self_ns("obs.recorder") + self_ns("obs.recorder.digest"))
            / n / 1e6, "ms")
    return {f"{workload}.{k}": v for k, v in m.items()}


def _breakdown(attribution: dict) -> dict:
    """Share of all request time per layer (self time)."""
    total = sum(req_ns for req_ns, _, _ in attribution.values())
    shares: dict = {}
    for _req_ns, layers, _ in attribution.values():
        for layer, ns in layers.items():
            shares[layer] = shares.get(layer, 0) + ns
    return {k: v / total for k, v in
            sorted(shares.items(), key=lambda kv: -kv[1])}


# -- entry point --------------------------------------------------------------


def run_once(args) -> int:
    wl.use_checkout()
    out = run_traced(args) if args.trace else run_untraced(args)
    failed = out["failed"]
    result = {
        "correct": not failed,
        "attempted": out["attempted"],
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }
    record = dict(out, provenance=provenance(args, out["samples"]),
                  result=result)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in failed[:5]:
        print(f"perfbench: FAILED {json.dumps(failure)}")
    prov = record["provenance"]
    print(f"perfbench: {args.workload} seed {args.seed} trace "
          f"{args.trace}: {json.dumps(out['samples'])} on "
          f"{prov['commit'] or 'src ' + prov['source_sha256'][:12]}, "
          f"Python {prov['python']}, nproc {prov['nproc']}, calibration "
          f"{prov['calibration_ms']:.1f} ms; details in "
          f"{os.path.relpath(path, wl.ROOT)}")
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=wl.benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="steadiness report over ten seeds per workload")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.report:
        import report

        return report.main(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
