"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            "list", "matrix", "simulate", "explore", "trace",
            "experiments", "top",
        ):
            args = parser.parse_args([command])
            assert args.command == command


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "RMS" in out and "queueing" in out
        assert "disagree" in out

    def test_matrix_figure3(self, capsys):
        assert main(["matrix", "--figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "match=284" in out

    def test_simulate_converging(self, capsys):
        assert main(["simulate", "--instance", "good-gadget", "--model", "REA"]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out

    def test_simulate_diverging(self, capsys):
        assert main([
            "simulate", "--instance", "bad-gadget", "--model", "R1O",
            "--max-steps", "120",
        ]) == 0
        out = capsys.readouterr().out
        assert "converged: False" in out

    def test_explore_oscillation(self, capsys):
        assert main(["explore", "--instance", "disagree", "--model", "R1O"]) == 0
        out = capsys.readouterr().out
        assert "oscillates: True" in out
        assert "witness" in out

    def test_explore_safety(self, capsys):
        assert main(["explore", "--instance", "disagree", "--model", "REA"]) == 0
        out = capsys.readouterr().out
        assert "oscillates: False" in out
        assert "complete search: True" in out

    @pytest.mark.parametrize("example", ["fig6", "fig7", "fig8", "fig9"])
    def test_trace(self, example, capsys):
        assert main(["trace", "--example", example]) == 0
        out = capsys.readouterr().out
        assert "U(t)" in out

    def test_trace_fig8_content(self, capsys):
        main(["trace", "--example", "fig8"])
        out = capsys.readouterr().out
        assert "subd" in out

    def test_unknown_instance_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--instance", "nope"])


class TestNewCommands:
    def test_explain(self, capsys):
        assert main(["explain", "REA", "R1O"]) == 0
        out = capsys.readouterr().out
        assert "R1O realizes REA: 2" in out
        assert "Prop. 3.3" in out

    def test_explain_unknown_cell_renders(self, capsys):
        assert main(["explain", "R1A", "UEA"]) == 0
        out = capsys.readouterr().out
        assert "realizes" in out

    def test_solve(self, capsys):
        assert main(["solve", "--instance", "disagree"]) == 0
        out = capsys.readouterr().out
        assert "2 stable solution(s)" in out
        assert "greedy construction succeeds: False" in out

    def test_solve_good_gadget(self, capsys):
        assert main(["solve", "--instance", "good-gadget"]) == 0
        out = capsys.readouterr().out
        assert "1 stable solution(s)" in out
        assert "greedy construction succeeds: True" in out

    def test_wheel_present(self, capsys):
        assert main(["wheel", "--instance", "bad-gadget"]) == 0
        assert "DisputeWheel" in capsys.readouterr().out

    def test_wheel_absent(self, capsys):
        assert main(["wheel", "--instance", "chain"]) == 0
        assert "no dispute wheel" in capsys.readouterr().out

    def test_sat_satisfiable(self, capsys):
        assert main(["sat", "1,-2;2,3;-1,-3"]) == 0
        out = capsys.readouterr().out
        assert "satisfying assignment" in out
        assert "stable routing" in out

    def test_sat_unsatisfiable(self, capsys):
        assert main(["sat", "1;-1"]) == 0
        out = capsys.readouterr().out
        assert "UNSATISFIABLE" in out

    def test_sat_bad_formula(self):
        with pytest.raises(ValueError):
            main(["sat", "foo"])


class TestPerfFlags:
    def test_explore_reference_engine_unreduced(self, capsys, tmp_path):
        assert main([
            "explore", "--instance", "disagree", "--model", "R1O",
            "--engine", "reference", "--reduction", "none", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "oscillates: True" in out
        assert "pruned: 0" in out

    def test_explore_warm_cache_round_trip(self, capsys, tmp_path):
        argv = [
            "explore", "--instance", "disagree", "--model", "REA",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert "oscillates: False" in warm

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        main([
            "explore", "--instance", "disagree", "--model", "R1O",
            "--cache-dir", str(tmp_path),
        ])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_dir_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        main(["explore", "--instance", "disagree", "--model", "R1O"])
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path / "env") in out
        assert "entries: 1" in out

    def test_matrix_accepts_perf_flags(self, capsys, tmp_path):
        assert main([
            "matrix", "--figure", "3", "--reduction", "ample",
            "--engine", "packed", "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_matrix_surfaces_per_cell_cache_and_pruning(self, capsys, tmp_path):
        argv = ["matrix", "--figure", "3", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "oscillates" in cold and "pruned" in cold and "cache" in cold
        assert "| miss" in cold and "| hit" not in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "| hit" in warm and "| miss" not in warm


class TestObservability:
    def read_jsonl(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def test_explore_telemetry_writes_jsonl(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main([
            "explore", "--instance", "disagree", "--model", "R1O",
            "--no-cache", "--telemetry", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "oscillates: True" in out
        records = self.read_jsonl(path)
        kinds = [record["type"] for record in records]
        assert kinds[0] == "run" and kinds[-1] == "summary"
        assert records[0]["command"] == "explore"
        assert any(kind == "verdict" for kind in kinds)

    def test_telemetry_env_fallback(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(path))
        assert main([
            "explore", "--instance", "disagree", "--model", "REA",
            "--no-cache",
        ]) == 0
        capsys.readouterr()
        assert any(
            record["type"] == "verdict" for record in self.read_jsonl(path)
        )

    def test_telemetry_does_not_change_stdout(self, capsys, tmp_path):
        argv = [
            "explore", "--instance", "disagree", "--model", "REA",
            "--no-cache",
        ]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--telemetry", str(tmp_path / "t.jsonl")]) == 0
        instrumented = capsys.readouterr().out
        assert instrumented == plain

    def test_stats_renders_phase_table(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        main([
            "explore", "--instance", "disagree", "--model", "R1O",
            "--no-cache", "--telemetry", str(path),
        ])
        capsys.readouterr()
        assert main(["stats", str(path), "--counters"]) == 0
        out = capsys.readouterr().out
        assert "runs: 1" in out and "verdicts: 1" in out
        assert "explore.search" in out
        assert "explore.states" in out  # --counters section

    def test_stats_json_merges_files(self, capsys, tmp_path):
        paths = []
        for index, model_name in enumerate(("R1O", "REA")):
            path = tmp_path / f"run{index}.jsonl"
            main([
                "explore", "--instance", "disagree", "--model", model_name,
                "--no-cache", "--telemetry", str(path),
            ])
            paths.append(str(path))
        capsys.readouterr()
        assert main(["stats", *paths, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["runs"] == 2 and data["verdicts"] == 2
        assert data["counters"]["explore.runs"] == 2
        assert data["phases"]["explore"]["calls"] >= 2

    def test_cache_stats_reports_telemetry_counters(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        path = tmp_path / "t.jsonl"
        for _ in range(2):  # miss+write, then hit
            main([
                "explore", "--instance", "disagree", "--model", "R1O",
                "--cache-dir", str(cache_dir), "--telemetry", str(path),
            ])
        capsys.readouterr()
        assert main([
            "cache", "stats", "--cache-dir", str(cache_dir),
            "--telemetry", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "hits: 1" in out
        assert "misses: 1" in out
        assert "writes: 1" in out
        assert "evicted: 0" in out

    def test_progress_reports_to_stderr_only(self, capsys, tmp_path):
        assert main([
            "explore", "--instance", "fig7", "--model", "RMS",
            "--reduction", "none", "--max-states", "3000", "--no-cache",
            "--progress",
        ]) == 0
        captured = capsys.readouterr()
        assert "[repro] explore FIG7-EXACT/RMS" in captured.err
        assert "states=" in captured.err
        assert "[repro]" not in captured.out

    def test_experiments_json_is_machine_readable(self, capsys, tmp_path):
        assert main([
            "experiments", "--json", "--cache-dir", str(tmp_path),
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["figure3"]["matches"] == 284
        assert data["disagree"]["correct"] is True
        certification = data["figure3"]["certification"]
        assert len(certification) == 24
        assert certification["R1O"]["oscillates"] is True
        assert certification["R1O"]["cache"] in ("hit", "miss")
        assert data["fig7"]["correct"] is True
        assert data["fig7"]["impossible_proved"] is True


class TestServeCli:
    def test_parser_defaults(self):
        parser = build_parser()
        serve = parser.parse_args(["serve"])
        assert serve.command == "serve"
        assert (serve.host, serve.port) == ("127.0.0.1", 8351)
        assert serve.workers == 2
        assert serve.queue_cap == 64
        assert serve.deadline == 30.0
        assert serve.response_cache == 256
        query = parser.parse_args(["query"])
        assert query.command == "query"
        assert query.url == "http://127.0.0.1:8351"
        assert query.instance == "disagree"
        assert query.models is None
        assert query.retries == 0

    def test_serve_rejects_bad_knobs(self, capsys, tmp_path):
        assert main([
            "serve", "--cache-dir", str(tmp_path), "--queue-cap", "0",
        ]) == 2
        assert "queue_cap" in capsys.readouterr().err

    def test_query_unreachable_server(self, capsys):
        assert main([
            "query", "--url", "http://127.0.0.1:1", "--models", "R1O",
            "--timeout", "2",
        ]) == 1
        assert "cannot reach" in capsys.readouterr().err

    @pytest.fixture
    def live_server(self, tmp_path):
        from repro.serve import ReproServer, ServeConfig, VerdictService

        service = VerdictService(
            ServeConfig(cache_dir=str(tmp_path / "cache"), queue_cap=8)
        )
        with ReproServer(service) as server:
            yield server

    def test_query_renders_verdict_table(self, capsys, live_server):
        assert main([
            "query", "--url", live_server.url,
            "--models", "R1O", "REA", "--queue-bound", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "instance: DISAGREE" in out
        assert "R1O  oscillates=True" in out
        assert "REA  oscillates=False" in out
        assert "served=computed" in out

    def test_query_json_round_trip(self, capsys, live_server):
        assert main([
            "query", "--url", live_server.url,
            "--models", "R1O", "--queue-bound", "2", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["results"]) == {"R1O"}
        assert data["served"]["R1O"] in ("computed", "memory", "disk")

    def test_query_instance_file(self, capsys, live_server, tmp_path, disagree):
        from repro.core.serialization import instance_to_json

        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(disagree))
        assert main([
            "query", "--url", live_server.url, "--instance-file", str(path),
            "--models", "R1O", "--queue-bound", "2",
        ]) == 0
        assert "instance: DISAGREE" in capsys.readouterr().out

    def test_query_shed_exhausts_retries(self, capsys, live_server):
        live_server.service.drain()
        assert main([
            "query", "--url", live_server.url, "--models", "R1O",
        ]) == 3
        assert "error:" in capsys.readouterr().err


class TestTraceCli:
    def _telemetry_file(self, tmp_path):
        trace = "a" * 32
        records = [
            {
                "type": "span", "trace": trace, "span": "1" * 16,
                "parent": None, "name": "client.query", "pid": 1,
                "start_ts": 10.0, "dur_s": 0.5,
            },
            {
                "type": "span", "trace": trace, "span": "2" * 16,
                "parent": "1" * 16, "name": "serve.request", "pid": 2,
                "start_ts": 10.1, "dur_s": 0.4,
            },
        ]
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        return path, trace

    def test_trace_show_renders_tree(self, capsys, tmp_path):
        path, trace = self._telemetry_file(tmp_path)
        assert main([
            "trace", "show", trace[:8], "--telemetry", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace {trace}" in out
        assert "client.query" in out and "serve.request" in out

    def test_trace_show_json_artifact_form(self, capsys, tmp_path):
        path, trace = self._telemetry_file(tmp_path)
        assert main([
            "trace", "show", trace, "--telemetry", str(path), "--json",
        ]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert [span["name"] for span in spans] == [
            "client.query", "serve.request",
        ]

    def test_trace_list(self, capsys, tmp_path):
        path, trace = self._telemetry_file(tmp_path)
        assert main(["trace", "list", "--telemetry", str(path)]) == 0
        assert f"{trace}  2 span(s)" in capsys.readouterr().out

    def test_trace_show_usage_errors(self, capsys, tmp_path):
        path, _ = self._telemetry_file(tmp_path)
        assert main(["trace", "show", "abc"]) == 2  # no --telemetry
        assert main(["trace", "show", "--telemetry", str(path)]) == 2
        assert main([
            "trace", "show", "feed", "--telemetry", str(path),
        ]) == 1  # unknown trace
        capsys.readouterr()

    def test_trace_example_path_still_works(self, capsys):
        assert main(["trace", "--example", "fig6"]) == 0
        assert capsys.readouterr().out  # the Appendix-A printer

    def test_stats_surfaces_dropped_events(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"type": "run", "host": "h", "pid": 1}) + "\n"
            + json.dumps({
                "type": "summary", "elapsed_s": 1.0,
                "counters": {"telemetry.events_dropped": 5},
                "gauges": {}, "spans": {},
            }) + "\n"
        )
        assert main(["stats", str(path)]) == 0
        assert "WARNING: 5 event(s) dropped" in capsys.readouterr().out


class TestTopCli:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["top"])
        assert args.command == "top"
        assert args.url is None and args.telemetry is None
        assert args.interval == 2.0
        assert args.iterations is None and args.once is False

    def test_mutually_exclusive_sources(self, capsys, tmp_path):
        assert main([
            "top", "--url", "http://x", "--telemetry", str(tmp_path), "--once",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_tail_mode_renders_one_frame(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({
            "type": "span", "trace": "a" * 32, "span": "1" * 16,
            "parent": None, "name": "serve.request", "pid": 1,
            "start_ts": 10.0, "dur_s": 0.02, "hot": True,
        }) + "\n")
        assert main(["top", "--telemetry", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "requests: 1" in out
        assert "hot:1" in out


class TestCampaignCli:
    @pytest.mark.parametrize(
        "verb, target", [("serve", "camp"), ("join", "http://127.0.0.1:1")]
    )
    def test_queue_backend_flag_is_gone(self, capsys, verb, target):
        """The campaign queue has one store, so there is nothing to pick."""
        parser = build_parser()
        args = parser.parse_args(["campaign", verb, target])
        assert not hasattr(args, "queue_backend")
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(
                ["campaign", verb, target, "--queue-backend", "sqlite"]
            )
        assert excinfo.value.code == 2
        assert "--queue-backend" in capsys.readouterr().err
