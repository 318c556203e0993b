"""Cached conformance grids: warm reruns are bit-for-bit equal.

Grid cells are independent computations fully determined by their
inputs (the same property that makes the grid process-parallel), so a
cell served from the persistent store must reproduce the cold run's
outcome and schedule digest exactly — asserted here through
:meth:`~repro.faults.harness.ConformanceReport.digest` on both the
serial and the pool executor.
"""

import json

import pytest

from repro import par
from repro.cache.store import CacheStore
from repro.channels.channel import Channel
from repro.core.description import combine
from repro.faults.harness import run_conformance
from repro.kahn.agents import dfm_agent, source_agent
from repro.processes.merge import dfm_descriptions

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm_grid_inputs():
    spec = combine(dfm_descriptions(B, C, D), name="dfm")
    agents = {"eb": lambda: source_agent(B, [0, 2, 0, 2]),
              "dfm": lambda: dfm_agent(B, C, D)}
    plans = {"none": lambda: None}
    return agents, [B, C, D], spec, plans


class TestSerialGridCache:
    def test_warm_run_is_bit_for_bit_equal(self, tmp_path):
        agents, channels, spec, plans = dfm_grid_inputs()
        store = CacheStore(tmp_path)
        cold = run_conformance("dfm", agents, channels, spec, plans,
                               seeds=[0, 1], cache=store)
        assert store.counters()["write"] == 2
        assert not any(c.cached for c in cold.cases)

        warm = run_conformance("dfm", agents, channels, spec, plans,
                               seeds=[0, 1],
                               cache=CacheStore(tmp_path))
        assert all(c.cached for c in warm.cases)
        assert warm.digest() == cold.digest()
        for a, b in zip(cold.cases, warm.cases):
            assert a.outcome == b.outcome
            assert a.schedule.digest() == b.schedule.digest()
            assert b.run_digest() == a.result.digest()
            assert b.result is None  # cache-served: nothing ran

    def test_uncached_run_unaffected(self):
        agents, channels, spec, plans = dfm_grid_inputs()
        report = run_conformance("dfm", agents, channels, spec,
                                 plans, seeds=[0])
        assert not any(c.cached for c in report.cases)

    def test_new_seed_misses_old_seed_hits(self, tmp_path):
        agents, channels, spec, plans = dfm_grid_inputs()
        run_conformance("dfm", agents, channels, spec, plans,
                        seeds=[0], cache=CacheStore(tmp_path))
        store = CacheStore(tmp_path)
        mixed = run_conformance("dfm", agents, channels, spec, plans,
                                seeds=[0, 7], cache=store)
        assert [c.cached for c in mixed.cases] == [True, False]
        assert store.counters() == {"hit": 1, "miss": 1,
                                    "write": 1, "evict": 0}

    def test_facet_change_misses(self, tmp_path):
        # a different step budget is a different cell key — the cached
        # answer must NOT be reused for a differently-budgeted grid
        agents, channels, spec, plans = dfm_grid_inputs()
        run_conformance("dfm", agents, channels, spec, plans,
                        seeds=[0], cache=CacheStore(tmp_path))
        store = CacheStore(tmp_path)
        report = run_conformance("dfm", agents, channels, spec, plans,
                                 seeds=[0], max_steps=123,
                                 cache=store)
        assert not report.cases[0].cached
        assert store.counters()["miss"] == 1

    def test_corrupt_entry_reruns_the_cell(self, tmp_path):
        agents, channels, spec, plans = dfm_grid_inputs()
        store = CacheStore(tmp_path)
        cold = run_conformance("dfm", agents, channels, spec, plans,
                               seeds=[0], cache=store)
        [entry] = (tmp_path / "cell").glob("*.json")
        entry.write_text("garbage", encoding="utf-8")
        warm = run_conformance("dfm", agents, channels, spec, plans,
                               seeds=[0],
                               cache=CacheStore(tmp_path))
        assert not warm.cases[0].cached
        assert warm.digest() == cold.digest()

    def test_tampered_payload_coordinate_is_a_miss(self, tmp_path):
        # an entry whose recorded (plan, seed) disagrees with the
        # requested cell is rejected even if it parses cleanly
        agents, channels, spec, plans = dfm_grid_inputs()
        store = CacheStore(tmp_path)
        run_conformance("dfm", agents, channels, spec, plans,
                        seeds=[0], cache=store)
        [path] = (tmp_path / "cell").glob("*.json")
        entry = json.loads(path.read_text())
        entry["value"]["seed"] = 999
        path.write_text(json.dumps(entry), encoding="utf-8")
        warm = run_conformance("dfm", agents, channels, spec, plans,
                               seeds=[0],
                               cache=CacheStore(tmp_path))
        assert not warm.cases[0].cached

    def test_record_false_round_trip(self, tmp_path):
        agents, channels, spec, plans = dfm_grid_inputs()
        cold = run_conformance("dfm", agents, channels, spec, plans,
                               seeds=[0], record=False,
                               cache=CacheStore(tmp_path))
        warm = run_conformance("dfm", agents, channels, spec, plans,
                               seeds=[0], record=False,
                               cache=CacheStore(tmp_path))
        assert warm.cases[0].cached
        assert warm.cases[0].schedule is None
        assert warm.digest() == cold.digest()


class TestParallelGridCache:
    def needs_fork(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("requires the fork start method")

    def test_pool_warm_run_is_bit_for_bit_equal(self, tmp_path):
        self.needs_fork()
        store = CacheStore(tmp_path)
        cold = par.run_conformance_parallel(
            "dfm", seeds=[0, 1], workers=2, cache=store)
        assert store.counters()["write"] == len(cold.cases)

        warm_store = CacheStore(tmp_path)
        warm = par.run_conformance_parallel(
            "dfm", seeds=[0, 1], workers=2, cache=warm_store)
        assert all(c.cached for c in warm.cases)
        assert warm_store.counters()["hit"] == len(warm.cases)
        assert warm.digest() == cold.digest()

    def test_pool_partial_warm_preserves_grid_order(self, tmp_path):
        self.needs_fork()
        cold = par.run_conformance_parallel(
            "dfm", seeds=[0, 1, 2], workers=2,
            cache=CacheStore(tmp_path))
        # drop one plan's entries: grid order must survive the mix of
        # cached and freshly-computed cells
        store = CacheStore(tmp_path)
        partial = par.run_conformance_parallel(
            "dfm", seeds=[0, 1, 2, 3], workers=2, cache=store)
        assert [(c.plan, c.seed) for c in partial.cases] == \
            [(c.plan, c.seed) for c in par.run_conformance_parallel(
                "dfm", seeds=[0, 1, 2, 3], workers=1).cases]
        cached_coords = {(c.plan, c.seed)
                         for c in partial.cases if c.cached}
        assert cached_coords == {(c.plan, c.seed)
                                 for c in cold.cases}

    def test_serial_and_pool_share_cache_keys(self, tmp_path):
        self.needs_fork()
        # cells written by the serial executor are hits for the pool
        # executor and vice versa — the key must not depend on the
        # execution strategy
        par.run_conformance_parallel(
            "dfm", seeds=[0], workers=1, cache=CacheStore(tmp_path))
        store = CacheStore(tmp_path)
        warm = par.run_conformance_parallel(
            "dfm", seeds=[0, 1], workers=2, cache=store)
        by_seed = {c.seed: c.cached for c in warm.cases
                   if c.plan == "none"}
        assert by_seed == {0: True, 1: False}

    def test_serial_and_pool_scoreboards_agree(self, tmp_path):
        # where a cell runs must not change how it is counted: a cold
        # then a warm grid on one store leave the same scoreboard on
        # either executor
        self.needs_fork()
        from repro.obs.telemetry import FleetStatus

        fields = ("done", "cached", "cache_hit_rate", "conforming")
        boards = {}
        for workers in (1, 2):
            store = CacheStore(tmp_path / f"workers-{workers}")
            boards[workers] = []
            for _run in ("cold", "warm"):
                status = FleetStatus()
                par.run_conformance_parallel(
                    "dfm", seeds=[0, 1], workers=workers, cache=store,
                    status=status)
                snap = status.snapshot()
                boards[workers].append(tuple(snap[f] for f in fields))
        assert boards[1] == boards[2] == [(6, 0, 0.0, 6), (6, 6, 1.0, 6)]


class TestLiveSerialScoreboard:
    """The serial executor feeds the live scoreboard cell by cell,
    not the finished grid in one go."""

    def test_on_case_sees_each_cell_in_grid_order(self, tmp_path):
        agents, channels, spec, plans = dfm_grid_inputs()
        store = CacheStore(tmp_path)
        run_conformance("dfm", agents, channels, spec, plans,
                        seeds=[0], cache=store)
        seen = []
        report = run_conformance(
            "dfm", agents, channels, spec, plans, seeds=[0, 1, 2],
            cache=CacheStore(tmp_path),
            on_case=lambda case: seen.append((case.seed, case.cached)))
        assert seen == [(0, True), (1, False), (2, False)]
        assert [(c.seed, c.cached) for c in report.cases] == seen

    @pytest.mark.parametrize("warm", [False, True])
    def test_done_counts_rise_one_cell_at_a_time(self, tmp_path, warm):
        from repro.obs.telemetry import FleetStatus

        store = CacheStore(tmp_path)
        if warm:
            par.run_conformance_parallel("dfm", seeds=[0, 1],
                                         workers=1, cache=store)
        seen = []

        class Watching(FleetStatus):
            def on_complete(self, outcome, elapsed_s, cached=False):
                super().on_complete(outcome, elapsed_s, cached=cached)
                seen.append(self.snapshot())

        status = Watching()
        report = par.run_conformance_parallel(
            "dfm", seeds=[0, 1], workers=1, cache=store, status=status)
        total = len(report.cases)
        assert [snap["done"] for snap in seen] == \
            list(range(1, total + 1))
        assert all(snap["workers"] == 1 and snap["busy"] == 1
                   and not snap["finished"] for snap in seen)
        assert [snap["cached"] for snap in seen] == \
            list(range(1, total + 1) if warm else [0] * total)
        final = status.snapshot()
        assert final["finished"] and final["busy"] == 0


class TestEmptyGrid:
    def test_no_seeds_is_vacuously_conforming(self):
        report = par.run_conformance_parallel("dfm", seeds=[],
                                              workers=4)
        assert report.cases == []
        assert report.all_conform
        assert report.outcomes() == {}

    def test_empty_grid_renders_zero_cells(self):
        from repro.report import render_conformance_report

        report = par.run_conformance_parallel("dfm", seeds=[])
        text = render_conformance_report(report)
        assert "0 cells" in text

    def test_serial_empty_grid(self):
        agents, channels, spec, plans = dfm_grid_inputs()
        report = run_conformance("dfm", agents, channels, spec,
                                 plans, seeds=[])
        assert report.all_conform and report.cases == []
