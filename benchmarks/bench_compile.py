"""[EXT] Compiled f(v) ⊑ g(u) hot path vs the memoized reference.

The ROADMAP's "compile the hot path" item, cashed in: giving each
channel a slot, running the §3.3 BFS over flat tuples (per-channel
environments and event tuples), deriving each node's ``g`` from its
parent's, and collapsing the finite-fragment order tests to tuple
prefix checks (see :mod:`repro.core.compiled`).  Timed cold — slot
assignment and closure compilation inside the measured region —
against the memoized reference loop at the same depth, with the
speedup refused unless every observable artifact is bit-identical:

* result digests at every depth up to the benchmark depth,
* truncation + checkpoint-resume results across engine mixes,
* the solver cache key (shared entries across engines),
* conformance-grid schedule fingerprints (the grid conforms against
  ``is_smooth_solution`` and must not notice the engine at all).

An untracked row times the compile itself: a rebuilt catalog dfm's
first, probed compile against a memoized one.
"""

import gc
import os
import time
from collections import OrderedDict

from conftest import banner, row

from repro.channels.channel import Channel
from repro.core.description import combine
from repro.core.solver import SmoothSolutionSolver, alphabet_candidates
from repro.par import run_conformance_parallel
from repro.processes.merge import dfm_descriptions

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})

#: ≥10× is the tracked floor; measured ~20-40× on the CI runner.
MIN_SPEEDUP = float(os.environ.get("COMPILE_MIN_SPEEDUP", "10"))


def _dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


def _solver(compiled):
    return SmoothSolutionSolver(
        _dfm(), alphabet_candidates([B, C, D]), compiled=compiled)


def _best_of(fn, repeats=5):
    """Best-of-N wall clock with the collector paused: the speedup
    row compares algorithms, not allocator luck."""
    best = float("inf")
    result = None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return result, best


def test_compiled_explore_speedup(benchmark):
    """Cold compiled exploration vs the memoized reference at the
    same depth: ≥10× on dfm depth 6, digest-identical throughout."""
    depth = int(os.environ.get("SOLVER_COMPILE_DEPTH", "6"))

    for d in range(depth + 1):
        assert _solver(True).explore(d).digest() == \
            _solver(False).explore(d).digest(), f"depth {d}"

    # cold = a fresh solver per run, so slot assignment + closure
    # compilation are paid inside the measured region
    ref, ref_s = _best_of(lambda: _solver(False).explore(depth),
                          repeats=3)
    com, com_s = _best_of(lambda: _solver(True).explore(depth))
    result = benchmark(lambda: _solver(True).explore(depth))

    assert com.digest() == ref.digest()
    assert com.nodes_explored == ref.nodes_explored
    speedup = ref_s / com_s if com_s > 0 else 0.0

    banner("EXT-COMPILE",
           "compiled hot path vs memoized reference (§3.3 dfm)")
    row("depth", depth)
    row("nodes explored", result.nodes_explored)
    row("reference explore (ms, best-of-3)", round(ref_s * 1e3, 1))
    row("compiled explore (ms, best-of-5)", round(com_s * 1e3, 1))
    row("speedup", round(speedup, 2))
    row("digests identical", True)
    assert speedup >= MIN_SPEEDUP, (
        f"compiled explore only {speedup:.1f}x faster than the "
        f"reference at depth {depth} "
        f"({ref_s * 1e3:.1f}ms -> {com_s * 1e3:.1f}ms); "
        f"floor is {MIN_SPEEDUP:.0f}x")


def test_compiled_equivalence_artifacts(tmp_path):
    """The non-negotiables behind the speedup row: truncation,
    checkpoint resume, cache keys and cache payloads are engine-
    independent, bit for bit."""
    from repro.cache.keys import solver_cache_key
    from repro.cache.store import CacheStore

    full = _solver(False).explore(4)

    # truncate on one engine, resume on the other, both orders
    mixes = []
    for first, second in ((False, True), (True, False)):
        part = _solver(first).explore(4, max_nodes=100)
        resumed = _solver(second).explore(
            4, resume_from=part.checkpoint())
        mixes.append(resumed.digest() == full.digest())
    assert all(mixes)

    # one cache entry serves both engines
    key_ref = solver_cache_key(
        _dfm(), alphabet_candidates([B, C, D]), 4, 64, 200_000, None)
    key_com = solver_cache_key(
        _dfm(), alphabet_candidates([B, C, D]), 4, 64, 200_000, None)
    assert key_ref == key_com
    cache = CacheStore(tmp_path)
    warm = _solver(True)
    warm.cache = cache
    warm.explore(4)
    reader = _solver(False)
    reader.cache = cache
    assert reader.explore(4).digest() == full.digest()
    assert cache.counters()["hit"] == 1

    banner("EXT-COMPILE", "compiled/reference artifact equivalence")
    row("resume digests identical (both mixes)", True)
    row("cache keys identical", True)
    row("cross-engine cache hit", True)


def test_grid_schedule_digests_engine_independent(monkeypatch):
    """A serial dfm conformance grid, with compilation available and
    with it force-disabled: identical schedule digests and outcomes
    (the grid's conformance check never routes through the engine)."""
    def fingerprint(report):
        return [
            (case.plan, case.seed, case.outcome,
             case.result.digest(),
             case.schedule.digest() if case.schedule is not None
             else None)
            for case in report.cases
        ]

    normal = run_conformance_parallel("dfm", seeds=[0, 1], workers=1)
    import repro.core.compiled as compiled_mod

    monkeypatch.setattr(compiled_mod, "compile_description",
                        lambda *a, **k: None)
    forced = run_conformance_parallel("dfm", seeds=[0, 1], workers=1)
    assert fingerprint(normal) == fingerprint(forced)
    banner("EXT-COMPILE", "grid schedule digests engine-independent")
    row("cells", len(normal.cases))
    row("fingerprints identical", True)


def test_rebuilt_network_skips_the_probe(monkeypatch):
    """Compiling a rebuilt catalog dfm: the first compile probes, a
    later one finds the pass memoized — and the memoized compile's
    walk is the reference engine's."""
    import repro.core.compiled as compiled_mod
    from repro.processes.merge import make_dfm

    memo = OrderedDict()
    monkeypatch.setattr(compiled_mod, "_PROBE_PASSES", memo)
    probes = []
    probe = compiled_mod._probe_agrees

    def counting(compiled):
        probes.append(compiled)
        return probe(compiled)

    monkeypatch.setattr(compiled_mod, "_probe_agrees", counting)

    def compile_rebuilt(forget):
        """(the rebuilt process's solver, its compile in seconds)"""
        proto = make_dfm().solver()
        if forget:
            memo.clear()
        started = time.perf_counter()
        compiled = compiled_mod.compile_description(proto.description,
                                                    proto.candidates)
        elapsed = time.perf_counter() - started
        assert compiled is not None
        return proto, elapsed

    repeats = 20
    probed = min(compile_rebuilt(True)[1] for _ in range(repeats))
    assert len(probes) == repeats
    memoized = min(compile_rebuilt(False)[1] for _ in range(repeats))
    assert len(probes) == repeats
    proto, _ = compile_rebuilt(False)
    com, ref = (SmoothSolutionSolver(
        proto.description, proto.candidates,
        limit_depth=proto.limit_depth, compiled=engine).explore(4)
        for engine in (True, False))
    assert com.digest() == ref.digest()
    assert len(probes) == repeats

    banner("EXT-COMPILE", "compile-time probe once per network "
                          "(rebuilt catalog dfm)")
    row(f"dfm compile, first (probed) (us, best-of-{repeats})",
        round(probed * 1e6, 1))
    row(f"dfm compile, memoized (us, best-of-{repeats})",
        round(memoized * 1e6, 1))
    row("memoized explore(4) digest = reference", True)
