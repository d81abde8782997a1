"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.agents == 30
        assert not args.asr

    def test_churn_options(self):
        args = build_parser().parse_args(
            ["churn", "--scale", "0.01", "--channel", "sms"]
        )
        assert args.scale == pytest.approx(0.01)
        assert args.channel == "sms"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dance"])

    @pytest.mark.parametrize("command", ["tables", "churn"])
    def test_workers_is_the_only_execution_option(self, command):
        parser = build_parser()
        assert parser.parse_args([command, "--workers", "2"]).workers == 2
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--backend", "process"])

    @pytest.mark.parametrize("command", ["stream", "serve", "chaos"])
    def test_streaming_commands_run_inline(self, command):
        # Their micro-batches are smaller than a runner batch, so a
        # pool would never fan out: they take no execution option.
        parser = build_parser()
        for option in ("--workers", "--backend"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, option, "2"])


class TestCommands:
    def test_tables_runs(self, capsys):
        rc = main(
            ["tables", "--agents", "8", "--days", "2", "--seed", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Table IV" in out
        assert "Table II" in out

    def test_tables_workers_match_inline(self, capsys):
        # 80 calls in batches of 64: two batches, so --workers 2 really
        # runs the pure stages on a process pool.
        argv = ["tables", "--agents", "8", "--days", "2", "--seed", "3"]
        assert main(argv + ["--workers", "0"]) == 0
        inline = capsys.readouterr().out
        assert main(argv + ["--workers", "2", "--stage-stats"]) == 0
        pooled = capsys.readouterr().out
        assert " par" in pooled
        assert pooled.split("\n\n", 1)[1] == inline

    def test_asr_runs(self, capsys):
        rc = main(["asr", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Names" in out

    def test_churn_runs(self, capsys):
        rc = main(
            ["churn", "--scale", "0.02", "--customers", "1200",
             "--seed", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "detection" in out

    def test_training_runs_small(self, capsys):
        rc = main(["training", "--days", "6", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "improvement" in out


class TestTrace:
    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "asr"])
        assert args.trace_format == "chrome"
        assert args.out is None
        assert args.argv == ["asr"]

    def test_trace_wrapper_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main([
            "trace", "--out", str(out),
            "tables", "--agents", "6", "--days", "2", "--seed", "3",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Table III" in text  # the traced command still prints
        assert "trace:" in text and "spans" in text
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        names = {event["name"] for event in events}
        # The stage -> batch -> hot-path hierarchy is all present.
        assert "pipeline:run" in names
        assert "batch" in names
        assert "link:call-record" in names
        assert any(name.startswith("stage:") for name in names)

    def test_trace_flame_format(self, tmp_path, capsys):
        out = tmp_path / "trace.flame"
        rc = main([
            "trace", "--format", "flame", "--out", str(out),
            "asr", "--seed", "3",
        ])
        assert rc == 0
        capsys.readouterr()
        # The asr command runs no engine pipeline, so the flame view
        # reports an empty trace — the export path still works.
        assert "flame" in out.read_text()

    def test_trace_requires_a_command(self, capsys):
        assert main(["trace"]) == 2
        assert "no command" in capsys.readouterr().err

    def test_trace_rejects_nested_trace(self, capsys):
        assert main(["trace", "trace", "asr"]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_trace_rejects_inner_trace_flag(self, tmp_path, capsys):
        inner_out = str(tmp_path / "inner.json")
        rc = main(["trace", "tables", "--trace", inner_out])
        assert rc == 2
        assert "drop --trace" in capsys.readouterr().err

    def test_trace_flag_on_engine_command(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = main([
            "tables", "--agents", "6", "--days", "2", "--seed", "3",
            "--trace", str(out),
        ])
        assert rc == 0
        assert "trace:" in capsys.readouterr().out
        document = json.loads(out.read_text())
        assert document["traceEvents"]
