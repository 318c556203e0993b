"""Tests for repro.report and the ``python -m repro`` CLI."""

import pytest

from repro.channels.channel import Channel
from repro.channels.event import Event
from repro.core.description import Description, DescriptionSystem, combine
from repro.core.solver import solve
from repro.functions.base import chan
from repro.functions.seq_fns import even_of
from repro.kahn.agents import dfm_agent, source_agent
from repro.kahn.scheduler import RandomOracle, run_network
from repro.processes.merge import dfm_descriptions
from repro.report import (
    render_description,
    render_metrics,
    render_run,
    render_run_diff,
    render_schedule,
    render_schedule_diff,
    render_solver_result,
    render_system,
    render_table,
    render_trace,
    render_verdict,
)
from repro.traces.trace import Trace

B = Channel("b", alphabet={0, 2})
C = Channel("c", alphabet={1, 3})
D = Channel("d", alphabet={0, 1, 2, 3})


def dfm():
    return combine(dfm_descriptions(B, C, D), name="dfm")


class TestRenderers:
    def test_render_trace_empty(self):
        assert render_trace(Trace.empty()) == "ε"

    def test_render_trace_finite(self):
        t = Trace.from_pairs([(B, 0), (D, 0)])
        assert render_trace(t) == "(b,0)(d,0)"

    def test_render_trace_truncates(self):
        t = Trace.from_pairs([(B, 0)] * 20)
        assert render_trace(t, max_events=3).endswith("…")

    def test_render_trace_lazy(self):
        t = Trace.cycle_pairs([(B, 0)])
        assert render_trace(t, max_events=2).endswith("…")

    def test_render_trace_short_lazy_not_marked_truncated(self):
        # a lazy trace that exhausts before the cap is NOT truncated
        t = Trace.lazy(iter([Event(B, 0), Event(D, 0)]))
        assert render_trace(t, max_events=16) == "(b,0)(d,0)"

    def test_render_trace_lazy_exactly_at_cap(self):
        t = Trace.lazy(iter([Event(B, 0), Event(B, 0)]))
        assert render_trace(t, max_events=2) == "(b,0)(b,0)"

    def test_render_trace_lazy_one_past_cap(self):
        t = Trace.lazy(iter([Event(B, 0)] * 3))
        rendered = render_trace(t, max_events=2)
        assert rendered == "(b,0)(b,0)…"

    def test_render_trace_empty_lazy(self):
        t = Trace.lazy(iter([]))
        assert render_trace(t) == "ε"

    def test_render_trace_finite_exactly_at_cap(self):
        t = Trace.from_pairs([(B, 0), (B, 2)])
        assert render_trace(t, max_events=2) == "(b,0)(b,2)"

    def test_render_description(self):
        text = render_description(
            Description(even_of(chan(D)), chan(B))
        )
        assert "⟵" in text and "{b,d}" in text

    def test_render_system(self):
        system = DescriptionSystem(
            [Description(even_of(chan(D)), chan(B))],
            channels=[B, D], name="s",
        )
        assert "system 's'" in render_system(system)

    def test_render_verdict_positive(self):
        verdict = dfm().check(Trace.from_pairs([(B, 0), (D, 0)]))
        text = render_verdict(verdict)
        assert "SMOOTH SOLUTION" in text

    def test_render_verdict_negative(self):
        verdict = dfm().check(Trace.from_pairs([(D, 0)]))
        text = render_verdict(verdict)
        assert "violation" in text
        assert "not a solution" in text

    def test_render_verdict_truncates_violations(self):
        t = Trace.from_pairs([(D, 0), (D, 1), (D, 2), (D, 3),
                              (D, 0), (D, 1)])
        verdict = dfm().check(t)
        assert "more" in render_verdict(verdict)

    def test_render_solver_result(self):
        result = solve(dfm(), [B, C, D], max_depth=2)
        text = render_solver_result(result, max_listed=2)
        assert "explored" in text
        assert "…" in text or "solutions" in text

    def test_render_run(self):
        result = run_network(
            {"eb": source_agent(B, [0]),
             "dfm": dfm_agent(B, C, D)},
            [B, C, D], RandomOracle(0), max_steps=50,
        )
        text = render_run(result)
        assert "quiescent" in text

    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [["x", "y"], ["zz", "w"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) >= 1

    def test_render_run_shows_failed_agents(self):
        from repro.kahn.effects import Send

        def crasher():
            yield Send(B, 0)
            raise ValueError("kaput")

        result = run_network({"crash": crasher()}, [B],
                             RandomOracle(0), max_steps=10)
        text = render_run(result)
        assert "failed:  crash" in text

    def test_render_solver_result_reflects_fields(self):
        # round-trip: every headline number appears in the rendering
        result = solve(dfm(), [B, C, D], max_depth=3)
        text = render_solver_result(result, max_listed=100)
        assert str(result.nodes_explored) in text
        assert str(len(result.finite_solutions)) in text
        for t in result.finite_solutions:
            assert render_trace(t) in text

    def test_render_verdict_roundtrips_trace(self):
        t = Trace.from_pairs([(B, 0), (D, 0)])
        text = render_verdict(dfm().check(t))
        assert render_trace(t) in text
        assert "dfm" in text

    def test_render_metrics_counters_and_stats(self):
        text = render_metrics({
            "solver.nodes_expanded": 7,
            "solver.branching": {"count": 3, "mean": 2.5,
                                 "min": 1, "max": 4,
                                 "buckets": {"1": 3}},
        })
        assert "solver.nodes_expanded" in text and "7" in text
        assert "mean=2.5" in text
        assert "buckets" not in text  # too noisy for the one-liner

    def test_render_metrics_empty(self):
        assert "none recorded" in render_metrics({})

    def test_render_metrics_golden_sorted(self):
        # keys arrive in insertion order; output must be sorted, so
        # two runs of the same network render identically
        text = render_metrics({"z.last": 1, "a.first": 2},
                              title="m")
        assert text == ("m:\n"
                        "  a.first                          2\n"
                        "  z.last                           1")

    def test_render_schedule_golden(self):
        from repro.obs import Schedule

        s = Schedule(
            agent_picks=[["snd", ["snd", "rcv"]],
                         ["rcv", ["rcv"]]],
            choice_picks=[[1, 2, "snd"]],
            rng_draws=[["data:DropFault", "random", 0.25]],
            meta={"seed": 3, "plan": "drop"},
        )
        text = render_schedule(s)
        assert text == (
            f"schedule (4 decisions, digest {s.digest()[:12]})\n"
            "  meta plan               drop\n"
            "  meta seed               3\n"
            "  agent_picks (2):\n"
            "    [0] snd  (ready: snd, rcv)\n"
            "    [1] rcv  (ready: rcv)\n"
            "  choice_picks (1):\n"
            "    [0] branch 1/2 in snd\n"
            "  rng_draws (1):\n"
            "    [0] data:DropFault random -> 0.25"
        )

    def test_render_schedule_truncates(self):
        from repro.obs import Schedule

        s = Schedule(agent_picks=[["a", ["a"]]] * 10)
        text = render_schedule(s, max_decisions=3)
        assert "… 7 more" in text

    def test_render_schedule_diff(self):
        from repro.obs import Schedule, diff_schedules

        a = Schedule(agent_picks=[["x", ["x", "y"]]])
        b = Schedule(agent_picks=[["y", ["x", "y"]]])
        text = render_schedule_diff(diff_schedules(a, b))
        assert "agent_picks[0]" in text
        assert render_schedule_diff(diff_schedules(a, a.copy())) \
            == "schedules identical"

    def test_render_run_diff(self):
        a = run_network(
            {"eb": source_agent(B, [0, 2]), "dfm": dfm_agent(B, C, D)},
            [B, C, D], RandomOracle(7))
        b = run_network(
            {"eb": source_agent(B, [0, 2]), "dfm": dfm_agent(B, C, D)},
            [B, C, D], RandomOracle(7))
        from repro.obs import diff_runs

        assert "identical" in render_run_diff(diff_runs(a, b))


class TestCli:
    @pytest.mark.parametrize(
        "command", ["summary", "dfm", "anomaly", "fig3", "zoo"]
    )
    def test_commands_run(self, command, capsys):
        from repro.__main__ import main

        assert main([command]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_default_is_summary(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        assert "PODC" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_search_choices_follow_the_registries(self, monkeypatch,
                                                  capsys):
        # solve and query offer what the solver registers
        from repro.__main__ import main
        from repro.core import search

        monkeypatch.setattr(search, "STRATEGIES",
                            search.STRATEGIES + ("extra",))
        for command in ("solve", "query"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = capsys.readouterr().out
            assert "{bfs,best-first,extra}" in out
            assert "{auto,reference,compiled}" in out

    @pytest.mark.parametrize("flag,argv", [
        ("--depth", ["solve", "dfm", "--depth", "-1"]),
        ("--depth", ["query", "dfm", "--depth", "-2", "--exists", "true"]),
        ("--max-nodes", ["solve", "dfm", "--max-nodes", "-3"]),
        ("--max-nodes", ["query", "dfm", "--max-nodes", "-1",
                         "--exists", "true"]),
        ("--workers", ["grid", "dfm", "--seeds", "1", "--workers", "-2"]),
        ("--workers", ["grid", "dfm", "--workers", "0"]),
        ("--seeds", ["grid", "dfm", "--seeds", "-1"]),
        ("--max-steps", ["grid", "dfm", "--max-steps", "-1"]),
        ("--workers", ["top", "dfm", "--workers", "0"]),
        ("--seeds", ["top", "dfm", "--seeds", "-1"]),
        ("--max-steps", ["top", "dfm", "--max-steps", "-1"]),
        ("--max-steps", ["record", "dfm", "--max-steps", "-1"]),
        ("--max-steps", ["trace", "dfm", "--max-steps", "-1"]),
        ("--budget-seconds", ["solve", "dfm", "--budget-seconds", "-1"]),
        ("--budget-seconds", ["query", "dfm", "--budget-seconds", "nan",
                              "--exists", "true"]),
        ("--cell-timeout", ["grid", "dfm", "--seeds", "1",
                            "--cell-timeout", "-1"]),
        ("--cell-timeout", ["top", "dfm", "--cell-timeout", "nan"]),
        ("--retries", ["grid", "dfm", "--retries", "-3"]),
        ("--retries", ["top", "dfm", "--retries", "-1"]),
    ], ids=["solve-depth", "query-depth", "solve-max-nodes",
            "query-max-nodes", "grid-workers-negative",
            "grid-workers-zero", "grid-seeds", "grid-max-steps",
            "top-workers", "top-seeds", "top-max-steps",
            "record-max-steps", "trace-max-steps",
            "solve-budget-seconds", "query-budget-seconds",
            "grid-cell-timeout", "top-cell-timeout", "grid-retries",
            "top-retries"])
    def test_out_of_range_counts_are_usage_errors(self, flag, argv,
                                                  capsys):
        # a negative or NaN bound, budget or count, or no worker at
        # all, would otherwise run and print a meaningless answer
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in \
            capsys.readouterr().err

    def test_zero_node_budget_still_runs(self, capsys):
        # --max-nodes 0 is a budget that fires at once, not an error
        # (--seeds 0, the empty grid: TestGridCacheCli)
        from repro.__main__ import main

        assert main(["solve", "dfm", "--max-nodes", "0"]) == 1
        assert "node budget (0) exhausted" in capsys.readouterr().out
        assert main(["query", "dfm", "--max-nodes", "0",
                     "--exists", "true"]) == 2
        assert "unresolved" in capsys.readouterr().out


class TestTraceCli:
    @pytest.mark.parametrize("example", ["alternating_bit", "dfm"])
    def test_trace_writes_perfetto_json(self, example, tmp_path,
                                        capsys):
        import json

        from repro.__main__ import main

        out = tmp_path / f"{example}.perfetto.json"
        assert main(["trace", example, "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events
        cats = {e.get("cat") for e in events}
        assert "solver" in cats
        assert "scheduler" in cats

    def test_abp_trace_has_fault_spans_and_jsonl(self, tmp_path,
                                                 capsys):
        import json

        from repro.__main__ import main

        out = tmp_path / "abp.perfetto.json"
        jsonl = tmp_path / "abp.jsonl"
        assert main(["trace", "alternating_bit", "-o", str(out),
                     "--jsonl", str(jsonl)]) == 0
        del capsys  # output checked via files
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"solver", "scheduler", "fault", "runtime"} <= cats
        lines = jsonl.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

    def test_trace_rejects_unknown_example(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["trace", "not_an_example"])


class TestRecorderCli:
    def _record(self, tmp_path, *extra):
        from repro.__main__ import main

        out = tmp_path / "run.schedule.json"
        assert main(["record", "dfm", "--plan", "drop",
                     "--seed", "11", "-o", str(out), *extra]) == 0
        return out

    def test_record_writes_schedule_json(self, tmp_path, capsys):
        import json

        out = self._record(tmp_path)
        doc = json.loads(out.read_text())
        assert doc["version"] == 1
        assert doc["meta"]["scenario"] == "dfm"
        assert doc["agent_picks"]
        assert "recorded" in capsys.readouterr().out

    def test_replay_matches_exit_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        out = self._record(tmp_path)
        assert main(["replay", str(out)]) == 0
        assert "MATCHES" in capsys.readouterr().out

    def test_replay_tampered_exit_nonzero(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        out = self._record(tmp_path)
        doc = json.loads(out.read_text())
        doc["meta"]["digest"] = "0" * 64
        out.write_text(json.dumps(doc))
        assert main(["replay", str(out), "--lenient"]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_replay_of_a_foreign_schedule_diverges(self, tmp_path,
                                                    capsys):
        # decisions that no longer fit the registered network (say, a
        # schedule recorded before the scenario changed) are reported
        # as a divergence, not raised as a traceback
        import json

        from repro.__main__ import main

        out = self._record(tmp_path)
        doc = json.loads(out.read_text())
        doc["agent_picks"] = doc["agent_picks"][:3]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(out)]) == 1
        assert "replay DIVERGED" in capsys.readouterr().out

    def test_diff_identical_and_divergent(self, tmp_path, capsys):
        from repro.__main__ import main

        a = tmp_path / "a.schedule.json"
        b = tmp_path / "b.schedule.json"
        assert main(["record", "dfm", "--plan", "drop",
                     "--seed", "11", "-o", str(a)]) == 0
        assert main(["record", "dfm", "--plan", "drop",
                     "--seed", "12", "-o", str(b)]) == 0
        assert main(["diff", str(a), str(a)]) == 0
        assert main(["diff", str(a), str(b)]) == 1
        assert "identical" in capsys.readouterr().out

    def test_record_abp_and_shrink(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "abp.schedule.json"
        assert main(["record", "alternating_bit",
                     "--plan", "black-hole", "--seed", "0",
                     "--max-steps", "2000", "-o", str(out)]) == 0
        assert "livelock" in capsys.readouterr().out
        small = tmp_path / "abp.min.json"
        assert main(["shrink", str(out), "-o", str(small)]) == 0
        assert "shrunk" in capsys.readouterr().out
        # the minimal schedule still replays (leniently) to the
        # recorded verdict
        assert main(["replay", str(small), "--lenient"]) == 0
        assert "livelock" in capsys.readouterr().out

    def test_record_rejects_unknown_scenario(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["record", "not_a_scenario"])

    def test_record_rejects_unknown_plan(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "x.json"
        for scenario in ("alternating_bit", "dfm"):
            assert main(["record", scenario, "--plan", "bogus",
                         "-o", str(out)]) == 2
            assert "unknown plan" in capsys.readouterr().err
        assert not out.exists()


#: Every plan of the built-in scenarios, unfair ones included.
BUILT_IN_PLANS = {
    "dfm": ("none", "drop", "heavy-drop"),
    "alternating_bit": ("no-faults", "fair-loss", "heavy-loss",
                        "loss+dup", "black-hole"),
}


class TestRecordingIsAGridCell:
    """``record S --plan P --seed K`` records exactly grid cell
    ``(P, K)`` of the registered scenario ``S``, and the schedule
    replays to the recorded verdict and digest."""

    def test_table_covers_every_registered_plan(self):
        from repro.par import get_scenario

        for name, plans in BUILT_IN_PLANS.items():
            assert tuple(get_scenario(name).plans) == plans

    @pytest.mark.parametrize("scenario, plan", [
        (name, plan) for name, plans in BUILT_IN_PLANS.items()
        for plan in plans])
    def test_record_is_the_cell_and_replays(self, scenario, plan,
                                            tmp_path, capsys):
        from repro import par
        from repro.__main__ import main
        from repro.obs.recorder import Schedule

        sc = par.get_scenario(scenario)
        cell = par.run_cell(par.CellTask(scenario, plan, 3,
                                         sc.max_steps))
        out = tmp_path / "cell.schedule.json"
        assert main(["record", scenario, "--plan", plan, "--seed", "3",
                     "-o", str(out)]) == 0
        recorded = Schedule.load(str(out))
        assert recorded.meta["digest"] == cell.schedule.meta["digest"]
        assert recorded.digest() == cell.schedule.digest()
        assert recorded.meta["outcome"] == cell.outcome
        capsys.readouterr()
        assert main(["replay", str(out)]) == 0
        assert "MATCHES" in capsys.readouterr().out


class TestOneScenarioRegistry:
    """One registry entry defines a scenario for every subcommand."""

    def test_registered_scenario_reaches_every_subcommand(
            self, tmp_path, capsys):
        from repro import par
        from repro.__main__ import main

        name = "test-cli-registry-scratch"
        try:
            par.register_scenario(name,
                                  lambda: par.get_scenario("dfm"))
            schedule = tmp_path / "s.schedule.json"
            assert main(["trace", name,
                         "-o", str(tmp_path / "t.json")]) == 0
            assert main(["record", name, "--plan", "drop",
                         "-o", str(schedule)]) == 0
            assert main(["replay", str(schedule)]) == 0
            assert "MATCHES" in capsys.readouterr().out
            assert main(["solve", name]) == 0
            assert "result digest b0b87ee9b724" in \
                capsys.readouterr().out
            assert main(["query", name, "--exists", "on:b >= 1"]) == 0
            assert main(["grid", name, "--seeds", "1"]) == 0
        finally:
            par._SCENARIOS.pop(name, None)

    @pytest.mark.parametrize("scenario, digest", [
        ("dfm", "b0b87ee9b724"),
        ("alternating_bit", "524e35fe367e"),
    ])
    def test_default_depth_solve_digest(self, scenario, digest,
                                        capsys):
        from repro.__main__ import main

        assert main(["solve", scenario]) == 0
        assert f"result digest {digest}" in capsys.readouterr().out

    def test_default_grid_leaves_out_the_unfair_plan(self, capsys):
        import re

        from repro.__main__ import main

        assert main(["grid", "alternating_bit", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        rows = re.findall(r"^  (\S+) +(.+)$", out, re.M)
        assert rows == [("fair-loss", "conforms: 2"),
                        ("heavy-loss", "conforms: 2"),
                        ("loss+dup", "conforms: 2"),
                        ("no-faults", "conforms: 2")]

    def test_unfair_plan_runs_on_request_and_livelocks(self, capsys):
        from repro.__main__ import main

        assert main(["grid", "alternating_bit", "--plan", "black-hole",
                     "--seeds", "1"]) == 1
        assert "[black-hole × seed 0] livelock" in \
            capsys.readouterr().out


class TestQueryCli:
    @pytest.mark.parametrize("argv", [
        ["dfm", "--depth", "3", "--exists", "on:e >= 1"],
        ["dfm", "--depth", "3", "--all", "msg:B:0, length >= 0"],
        ["alternating_bit", "--depth", "4", "--exists", "on:in >= 1"],
    ])
    def test_unknown_channel_exits_two(self, argv, capsys):
        from repro.__main__ import main

        # a clause over a channel the traces never carry counts 0, so
        # the search would answer a typo definitely
        assert main(["query", *argv]) == 2
        assert "unknown channel" in capsys.readouterr().err

    def test_known_channel_still_answers(self, capsys):
        from repro.__main__ import main

        assert main(["query", "dfm", "--depth", "3",
                     "--exists", "on:b >= 1"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_textual_predicate_walks_the_state_graph(self, capsys):
        from repro.__main__ import main

        # the command hands query the predicate's text, which is what
        # lets it answer on the projection-state graph: 213 states
        # where the depth-4 tree has 697 nodes
        assert main(["query", "dfm", "--depth", "4",
                     "--all", "length <= 4"]) == 0
        assert "projection states explored: 213 " in \
            capsys.readouterr().out


class TestSolveCli:
    def test_complete_run_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["solve", "dfm", "--depth", "3"]) == 0
        out = capsys.readouterr().out
        assert "finite smooth solutions" in out
        assert "result digest" in out

    @pytest.mark.parametrize("argv", [
        ["solve", "--dedup"],
        ["solve", "--strategy", "best-first",
         "--heuristic", "channel-balance"],
        ["solve", "--strategy", "best-first", "--heuristic", "depth"],
        ["query", "--exists", "true", "--heuristic", "rhs-distance"],
        ["query", "--exists", "true", "--cache"],
    ], ids=["dedup", "channel-balance", "heuristic-depth",
            "query-heuristic", "query-cache"])
    def test_retired_search_options_are_usage_errors(self, argv, capsys):
        # every tree node takes its own g and f, best-first ranks by
        # rhs-distance alone, and a query reads and writes no cache:
        # argparse refuses the rest
        from repro.__main__ import main

        command, *options = argv
        with pytest.raises(SystemExit) as exc:
            main([command, "dfm", *options])
        assert exc.value.code == 2
        assert argv[-1] in capsys.readouterr().err

    def test_truncated_run_exits_one_and_checkpoints(self, tmp_path,
                                                     capsys):
        from repro.__main__ import main

        ck = tmp_path / "ck.json"
        assert main(["solve", "dfm", "--depth", "4",
                     "--max-nodes", "25",
                     "--checkpoint-out", str(ck)]) == 1
        assert "TRUNCATED" in capsys.readouterr().out
        assert ck.exists()

    def test_resume_reaches_straight_run_digest(self, tmp_path,
                                                capsys):
        from repro.__main__ import main

        assert main(["solve", "dfm", "--depth", "4"]) == 0
        straight = capsys.readouterr().out
        ck = tmp_path / "ck.json"
        assert main(["solve", "dfm", "--depth", "4",
                     "--max-nodes", "25",
                     "--checkpoint-out", str(ck)]) == 1
        capsys.readouterr()
        assert main(["solve", "dfm", "--depth", "4",
                     "--resume", str(ck)]) == 0
        resumed = capsys.readouterr().out
        digest = [line for line in straight.splitlines()
                  if line.startswith("result digest")]
        assert digest and digest[0] in resumed

    def test_bad_checkpoint_exits_two(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"depth": 4}', encoding="utf-8")
        assert main(["solve", "dfm", "--resume", str(bad)]) == 2
        assert "version" in capsys.readouterr().err

    @pytest.mark.parametrize("depth,meta,reason", [
        ("5", None, "taken at depth 4"),
        ("4", {"strategy": "iterative-deepening", "iteration": 3,
               "tested": []}, "iterative-deepening"),
    ], ids=["other-depth", "deepening"])
    def test_checkpoint_that_does_not_fit_exits_two(
            self, tmp_path, capsys, depth, meta, reason):
        # a usage error, like an unreadable file: the reason on
        # stderr and exit 2, not a traceback and the truncation code
        import json

        from repro.__main__ import main

        ck = tmp_path / "ck.json"
        assert main(["solve", "dfm", "--depth", "4",
                     "--max-nodes", "25",
                     "--checkpoint-out", str(ck)]) == 1
        if meta is not None:
            doc = json.loads(ck.read_text(encoding="utf-8"))
            doc["meta"] = meta
            ck.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["solve", "dfm", "--depth", depth,
                     "--resume", str(ck)]) == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "Traceback" not in err

    def test_solver_cache_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        args = ["solve", "dfm", "--depth", "3", "--cache",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "miss 1, write 1" in capsys.readouterr().out
        assert main(args) == 0
        assert "hit 1" in capsys.readouterr().out

    def test_cache_hit_hashes_once_and_prints_the_same_digest(
            self, tmp_path, capsys, monkeypatch):
        # the cache write hashes the cold result and the rebuild
        # verifies the stored digest; printing reuses either
        from repro.__main__ import main
        from repro.core.solver import SolverResult

        args = ["solve", "dfm", "--depth", "3", "--cache",
                "--cache-dir", str(tmp_path)]
        hashed = []
        digest = SolverResult.digest

        def counting(self):
            hashed.append(self)
            return digest(self)

        monkeypatch.setattr(SolverResult, "digest", counting)
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "miss 1, write 1" in cold
        assert len(hashed) == 1
        hashed.clear()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "hit 1" in warm
        assert len(hashed) == 1
        printed = [line for line in cold.splitlines()
                   if line.startswith("result digest")]
        assert printed and printed[0] in warm.splitlines()


class TestGridCacheCli:
    def _grid(self, tmp_path, *extra):
        return ["grid", "dfm", "--seeds", "1", "--plan", "none",
                "--cache", "--cache-dir", str(tmp_path), *extra]

    def test_warm_rerun_same_digest_all_cached(self, tmp_path,
                                               capsys):
        from repro.__main__ import main

        assert main(self._grid(tmp_path)) == 0
        cold = capsys.readouterr().out
        assert main(self._grid(tmp_path)) == 0
        warm = capsys.readouterr().out

        def digest_line(text):
            return [line for line in text.splitlines()
                    if line.startswith("report digest")][0]

        assert digest_line(cold) == digest_line(warm)
        assert "(1 cached)" in warm
        assert "served from cache" in warm

    def test_cache_stats_json(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        assert main(self._grid(tmp_path, "--cache-stats")) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        stats = json.loads(out[start:])
        assert stats["entries"] == {"cell": 1}
        assert stats["counters"]["write"] == 1

    def test_empty_grid_exits_zero(self, capsys):
        from repro.__main__ import main

        assert main(["grid", "dfm", "--seeds", "0"]) == 0
        assert "0 cells" in capsys.readouterr().out


class TestFleetCli:
    """The supervised-grid CLI surface: chaos self-test, quarantine
    bundles, exit-status semantics, bundle replay."""

    FORK = "fork" in __import__(
        "multiprocessing").get_all_start_methods()

    @pytest.fixture
    def chaos_run(self, tmp_path, capsys):
        if not self.FORK:
            pytest.skip("fleet executor requires fork")
        from repro.__main__ import main

        qdir = tmp_path / "quarantine"
        code = main(["grid", "dfm", "--workers", "2", "--seeds", "1",
                     "--plan", "none", "--retries", "1",
                     "--chaos", "kill-worker:1.0",
                     "--quarantine-dir", str(qdir)])
        return code, capsys.readouterr().out, qdir

    def test_chaos_kills_degrade_but_exit_zero(self, chaos_run):
        # infrastructure kills are not non-conformance: exit 0
        code, out, _ = chaos_run
        assert code == 0
        assert "DEGRADED" in out
        assert "quarantined" in out
        assert "chaos: kill-worker:1.0" in out
        assert "surviving digest" in out

    def test_bundle_replay_reproduces(self, chaos_run, capsys):
        from repro.__main__ import main

        _, _, qdir = chaos_run
        [bundle] = sorted(qdir.iterdir())
        assert main(["replay", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCES" in out
        assert "crashed" in out

    def test_genuine_failure_still_exits_one(self, capsys):
        if not self.FORK:
            pytest.skip("fleet executor requires fork")
        from repro.__main__ import main

        # black-box: a too-small step budget exhausts cells, which IS
        # a genuine (non-infra) failure and must fail the exit status
        code = main(["grid", "dfm", "--workers", "2", "--seeds", "1",
                     "--max-steps", "3", "--cell-timeout", "60"])
        out = capsys.readouterr().out
        assert code == 1
        assert "exhausted" in out
        assert "DEGRADED" not in out

    def test_bad_chaos_spec_exits_two(self, capsys):
        from repro.__main__ import main

        assert main(["grid", "dfm", "--chaos", "eat-disk:0.5"]) == 2
        assert "unknown chaos" in capsys.readouterr().err

    def test_schedule_replay_still_works(self, tmp_path, capsys):
        # the replay command sniffs bundles without breaking its
        # original contract: schedule JSONs replay as before
        from repro.__main__ import main

        out_path = tmp_path / "s.json"
        assert main(["record", "dfm", "--seed", "3",
                     "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(out_path)]) == 0
        assert "MATCHES" in capsys.readouterr().out

    def test_solve_fsync_checkpoint(self, tmp_path, capsys):
        from repro.__main__ import main

        ck = tmp_path / "ck.json"
        assert main(["solve", "dfm", "--depth", "3", "--fsync",
                     "--cache", "--cache-dir", str(tmp_path / "c"),
                     "--checkpoint-out", str(ck)]) == 0
        assert ck.exists()
        assert "wrote checkpoint" in capsys.readouterr().out


class TestRenderMetricsQuantiles:
    def test_histogram_summary_shows_quantiles(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        h = reg.histogram("solver.branching")
        for v in (1, 2, 3, 10):
            h.record(v)
        text = render_metrics(reg.summary())
        assert "p50=2" in text
        assert "p90=10" in text
        assert "p99=10" in text

    def test_golden_histogram_row(self):
        # the summary's keys render sorted and stable — a golden line
        # that locks the p50/p90/p99 satellite in place
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.histogram("h").record(2)
        text = render_metrics(reg.summary(), title="m")
        assert text == (
            "m:\n"
            "  h                                count=1 max=2 mean=2"
            " min=2 p50=2 p90=2 p99=2 total=2")


class TestRenderFleetStatus:
    def _snapshot(self, **over):
        snap = {
            "scenario": "dfm", "total": 6, "done": 3, "busy": 2,
            "workers": 2, "conforming": 3, "genuine_failures": 0,
            "retries": 1, "timeouts": 0, "crashes": 1,
            "quarantined": 0, "cached": 1, "cache_hit_rate": 0.25,
            "trace_records": 128,
            "elapsed_s": 1.5, "eta_s": 1.5, "finished": False,
        }
        snap.update(over)
        return snap

    def test_golden_running(self):
        from repro.report import render_fleet_status

        text = render_fleet_status(self._snapshot(), width=10)
        assert text == (
            "repro top — grid dfm [running]\n"
            "  [█████·····] 3/6 cells (50%)\n"
            "  workers 2  busy 2  elapsed 1.5s  eta 1.5s\n"
            "  conforming 3  failures 0  quarantined 0\n"
            "  retries 1  timeouts 0  crashes 1\n"
            "  cache hits 1 (25%)  trace records 128")

    def test_finished_and_unknowns(self):
        from repro.report import render_fleet_status

        text = render_fleet_status(self._snapshot(
            finished=True, eta_s=None, cache_hit_rate=None))
        assert "[done]" in text
        assert "eta —" in text
        assert "(—)" in text

    def test_empty_snapshot_renders(self):
        from repro.report import render_fleet_status

        text = render_fleet_status({})
        assert "0/0 cells" in text


class TestGridArtifactsCli:
    def test_grid_writes_all_artifacts(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        html = tmp_path / "r.html"
        prom = tmp_path / "m.prom"
        mjson = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        assert main(["grid", "dfm", "--seeds", "1",
                     "--html-report", str(html),
                     "--metrics-out", str(prom),
                     "--metrics-json", str(mjson),
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "wrote HTML flight-deck report" in out
        assert html.read_text(encoding="utf-8").startswith(
            "<!DOCTYPE html>")
        assert prom.read_text(encoding="utf-8").endswith("\n")
        doc = json.loads(mjson.read_text(encoding="utf-8"))
        assert doc["meta"]["scenario"] == "dfm"
        assert json.loads(
            trace.read_text(encoding="utf-8"))["traceEvents"]

    def test_prometheus_sums_match_grid(self, tmp_path, capsys):
        from repro.__main__ import main

        prom = tmp_path / "m.prom"
        assert main(["grid", "dfm", "--seeds", "1",
                     "--metrics-out", str(prom)]) == 0
        text = prom.read_text(encoding="utf-8")
        # 3 plans × 1 seed; exposition totals agree with the grid
        assert "repro_grid_cells 3" in text
        assert "repro_grid_outcome_conforms 3" in text


class TestBenchCli:
    CORE = {
        "generated_at": "t", "python": "3.11", "platform": "l",
        "rows": [
            {"experiment": "S33-MEMO", "label": "depth", "value": 6},
            {"experiment": "S33-MEMO", "label": "speedup",
             "value": 4.0},
        ],
    }

    def _write_core(self, path, speedup=4.0):
        import copy
        import json

        core = copy.deepcopy(self.CORE)
        core["rows"][1]["value"] = speedup
        path.write_text(json.dumps(core), encoding="utf-8")

    def test_append_then_check_passes(self, tmp_path, capsys):
        from repro.__main__ import main

        core = tmp_path / "core.json"
        hist = tmp_path / "hist.jsonl"
        self._write_core(core)
        assert main(["bench-append", "--core", str(core),
                     "--history", str(hist), "--sha", "abc"]) == 0
        assert "appended" in capsys.readouterr().out
        assert main(["bench-check", "--core", str(core),
                     "--history", str(hist)]) == 0
        assert "bench-check: PASS" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        from repro.__main__ import main

        core = tmp_path / "core.json"
        hist = tmp_path / "hist.jsonl"
        self._write_core(core)
        assert main(["bench-append", "--core", str(core),
                     "--history", str(hist), "--sha", "abc"]) == 0
        bad = tmp_path / "bad.json"
        self._write_core(bad, speedup=1.0)
        capsys.readouterr()
        assert main(["bench-check", "--core", str(bad),
                     "--history", str(hist)]) == 1
        out = capsys.readouterr().out
        assert "REGRESS" in out and "FAIL" in out

    def test_empty_history_seeds(self, tmp_path, capsys):
        from repro.__main__ import main

        core = tmp_path / "core.json"
        self._write_core(core)
        assert main(["bench-check", "--core", str(core),
                     "--history", str(tmp_path / "no.jsonl")]) == 0
        assert "SEEDING" in capsys.readouterr().out

    def test_missing_core_exits_two(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["bench-check",
                     "--core", str(tmp_path / "absent.json"),
                     "--history", str(tmp_path / "h.jsonl")]) == 2
        assert "cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize("porcelain, stamp", [
        ("", "abc123"),
        (" M src/repro/par/__init__.py\n", "abc123+dirty"),
    ])
    def test_append_stamps_the_measured_tree(self, porcelain, stamp,
                                             tmp_path, monkeypatch,
                                             capsys):
        import json
        import subprocess

        from repro.__main__ import _git_sha, main

        calls = []

        def fake_run(cmd, **_kwargs):
            calls.append(cmd)
            out = "abc123\n" if cmd[1] == "rev-parse" else porcelain
            return subprocess.CompletedProcess(cmd, 0, stdout=out,
                                               stderr="")

        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.setattr(subprocess, "run", fake_run)
        assert _git_sha() == stamp
        assert ["git", "status", "--porcelain",
                "--untracked-files=no"] in calls
        core = tmp_path / "core.json"
        hist = tmp_path / "hist.jsonl"
        self._write_core(core)
        assert main(["bench-append", "--core", str(core),
                     "--history", str(hist)]) == 0
        assert main(["bench-append", "--core", str(core),
                     "--history", str(hist), "--sha", "given"]) == 0
        monkeypatch.setenv("GITHUB_SHA", "from-ci")
        assert main(["bench-append", "--core", str(core),
                     "--history", str(hist)]) == 0
        shas = [json.loads(line)["sha"]
                for line in hist.read_text().splitlines()]
        assert shas == [stamp, "given", "from-ci"]
        del capsys  # output checked via the history file


class TestTopCli:
    def test_top_runs_grid_and_prints_scoreboard(self, capsys):
        # stdout is captured (not a TTY): the scoreboard degrades to
        # one plain line per refresh — no cursor control, CI-safe
        from repro.__main__ import main

        assert main(["top", "dfm", "--seeds", "1", "--workers", "2",
                     "--interval", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "top dfm [" in out
        assert "\x1b[" not in out
        assert "report digest" in out
        # the final refresh reports the finished grid
        lines = [ln for ln in out.splitlines()
                 if ln.startswith("top dfm")]
        assert lines and "[done]" in lines[-1]

    def test_top_rejects_unknown_scenario(self, capsys):
        from repro.__main__ import main

        assert main(["top", "not-a-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestFleetLine:
    def test_plain_line_format(self):
        from repro.report import render_fleet_line

        snap = {"scenario": "dfm", "total": 8, "done": 4,
                "busy": 2, "workers": 2, "conforming": 3,
                "genuine_failures": 1, "retries": 2, "cached": 1,
                "elapsed_s": 1.25, "eta_s": 1.5, "finished": False}
        line = render_fleet_line(snap)
        assert line == ("top dfm [running] 4/8 (50%) busy 2/2 "
                        "ok 3 fail 1 retry 2 cached 1 "
                        "elapsed 1.2s eta 1.5s")
        assert "\n" not in line and "\x1b" not in line

    def test_finished_and_empty_snapshots(self):
        from repro.report import render_fleet_line

        done = render_fleet_line({"scenario": "dfm", "total": 2,
                                  "done": 2, "finished": True,
                                  "elapsed_s": 0.5})
        assert "[done]" in done and "eta —" in done
        bare = render_fleet_line({})
        assert bare.startswith("top ? [running] 0/0 (0%)")


class TestWhyCli:
    def _pair(self, tmp_path):
        from repro.__main__ import main

        a = tmp_path / "a.schedule.json"
        b = tmp_path / "b.schedule.json"
        assert main(["record", "dfm", "--plan", "drop",
                     "--seed", "11", "-o", str(a)]) == 0
        assert main(["record", "dfm", "--plan", "drop",
                     "--seed", "12", "-o", str(b)]) == 0
        return a, b

    def test_single_schedule_prints_causal_summary(self, tmp_path,
                                                   capsys):
        from repro.__main__ import main

        a, _ = self._pair(tmp_path)
        capsys.readouterr()
        assert main(["why", str(a)]) == 0
        out = capsys.readouterr().out
        assert "causal graph:" in out
        assert "digest" in out
        assert "critical path" in out

    def test_identical_pair_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        a, _ = self._pair(tmp_path)
        capsys.readouterr()
        assert main(["why", str(a), str(a)]) == 0
        assert "causally identical" in capsys.readouterr().out

    def test_divergent_pair_explains_and_exits_one(self, tmp_path,
                                                   capsys):
        from repro.__main__ import main

        a, b = self._pair(tmp_path)
        capsys.readouterr()
        assert main(["why", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "root cause" in out

    def test_exports_dot_json_trace(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        a, _ = self._pair(tmp_path)
        dot = tmp_path / "g.dot"
        js = tmp_path / "g.json"
        trace = tmp_path / "g.trace.json"
        assert main(["why", str(a), "--dot", str(dot),
                     "--json", str(js), "--trace", str(trace)]) == 0
        assert dot.read_text().startswith("digraph")
        doc = json.loads(js.read_text())
        assert doc["nodes"] and doc["digest"]
        assert doc["critical_path"]
        events = json.loads(trace.read_text())["traceEvents"]
        phases = {e["ph"] for e in events}
        # flow arrows ride on the timeline as matched s/f pairs
        assert {"s", "f"} <= phases
        starts = [e for e in events if e["ph"] == "s"]
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert starts and {e["id"] for e in starts} == finishes

    def test_graph_json_digest_stable_across_reruns(self, tmp_path,
                                                    capsys):
        import json

        from repro.__main__ import main

        a, _ = self._pair(tmp_path)
        j1 = tmp_path / "g1.json"
        j2 = tmp_path / "g2.json"
        assert main(["why", str(a), "--json", str(j1)]) == 0
        assert main(["why", str(a), "--json", str(j2)]) == 0
        assert json.loads(j1.read_text())["digest"] == \
            json.loads(j2.read_text())["digest"]

    def test_diff_explain_names_root_decision(self, tmp_path,
                                              capsys):
        from repro.__main__ import main

        a, b = self._pair(tmp_path)
        capsys.readouterr()
        assert main(["diff", str(a), str(b), "--explain"]) == 1
        out = capsys.readouterr().out
        assert "root cause" in out
        assert "causal chain" in out


class TestSolveProfileCli:
    def test_profile_prints_hotspot_table(self, capsys):
        from repro.__main__ import main

        assert main(["solve", "dfm", "--depth", "3",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "solver hotspots" in out
        assert "rhs.apply" in out
        assert "result digest" in out

    def test_profile_exports(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        pj = tmp_path / "prof.json"
        folded = tmp_path / "prof.folded"
        assert main(["solve", "dfm", "--depth", "3",
                     "--profile-json", str(pj),
                     "--profile-folded", str(folded)]) == 0
        prof = json.loads(pj.read_text())
        assert prof["g_evaluations"] > 0
        assert prof["sites"]["rhs.apply"]["calls"] == \
            prof["g_evaluations"]
        lines = folded.read_text().splitlines()
        assert lines and all(
            ln.rsplit(" ", 1)[1].isdigit() for ln in lines)

    def test_profile_does_not_change_the_result(self, capsys):
        from repro.__main__ import main

        assert main(["solve", "dfm", "--depth", "3"]) == 0
        plain = capsys.readouterr().out
        assert main(["solve", "dfm", "--depth", "3",
                     "--profile"]) == 0
        profiled = capsys.readouterr().out
        digest = [ln for ln in plain.splitlines()
                  if ln.startswith("result digest")]
        assert digest and digest[0] in profiled
