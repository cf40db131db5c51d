"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import (
    build_parser,
    build_shard_parser,
    build_sweep_parser,
    main,
    run_single,
)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.workload == "tpcc"
        assert args.scheduler == "strex"
        assert args.cores == 4

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "tpch"])

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scheduler", "zeus"])


class TestExecution:
    def test_single_run_prints_metrics(self, capsys):
        code = main([
            "--workload", "tpcc", "--scheduler", "strex",
            "--cores", "2", "--transactions", "8", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "I-MPKI" in out
        assert "vs baseline" in out

    def test_baseline_run(self, capsys):
        code = main([
            "--workload", "mapreduce", "--scheduler", "base",
            "--cores", "2", "--transactions", "4", "--seed", "5",
        ])
        assert code == 0
        assert "x1.000" in capsys.readouterr().out

    def test_run_single_report(self):
        args = build_parser().parse_args([
            "--workload", "tpce", "--scheduler", "slicc",
            "--cores", "2", "--transactions", "6", "--seed", "9",
        ])
        report = run_single(args)
        assert "slicc" in report
        assert "throughput" in report

    def test_team_size_flag(self, capsys):
        code = main([
            "--scheduler", "strex", "--team-size", "4",
            "--cores", "2", "--transactions", "8", "--seed", "5",
        ])
        assert code == 0

    def test_team_size_with_wrong_scheduler_is_clean_error(self, capsys):
        code = main([
            "--workload", "tpcc", "--scheduler", "smt",
            "--team-size", "4", "--cores", "2", "--transactions", "4",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --team-size")
        assert "smt" in captured.err

    def test_team_size_with_base_is_clean_error(self, capsys):
        # ``base`` short-circuits the second simulate() call, so the
        # CLI must validate --team-size before that shortcut.
        code = main([
            "--workload", "tpcc", "--scheduler", "base",
            "--team-size", "4", "--cores", "2", "--transactions", "4",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "base" in captured.err

    def test_core_sweep_flag(self, capsys):
        code = main([
            "--workload", "mapreduce", "--sweep",
            "--transactions", "4", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        for token in ("cores", "strex", "slicc", "hybrid", "16"):
            assert token in out


class TestSweepSubcommand:
    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_sweep_parser().parse_args(["--workloads", "tpch"])

    def test_sweep_runs_and_reports_cache_stats(self, capsys, tmp_path):
        argv = [
            "sweep", "--workloads", "tpcc", "--schedulers", "base",
            "strex", "--cores", "2", "--transactions", "4",
            "--scales", "tiny", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cache hits, 2 executed" in out
        assert "I-MPKI" in out
        # Second invocation is served entirely from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cache hits, 0 executed" in out
        assert (tmp_path / "manifest.jsonl").exists()

    def test_sweep_no_cache(self, capsys, tmp_path):
        argv = [
            "sweep", "--workloads", "mapreduce", "--schedulers", "base",
            "--cores", "2", "--transactions", "4", "--scales", "tiny",
            "--cache-dir", str(tmp_path), "--no-cache",
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cache hits, 1 executed" in out
        assert not (tmp_path / "manifest.jsonl").exists()

    def test_sweep_team_sizes(self, capsys, tmp_path):
        assert main([
            "sweep", "--workloads", "tpcc", "--schedulers", "strex",
            "--team-sizes", "2", "4", "--cores", "2",
            "--transactions", "4", "--scales", "tiny",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out


class TestShardSubcommand:
    GRID = ["--workloads", "tpcc", "--schedulers", "base", "strex",
            "--cores", "1", "2", "--transactions", "4",
            "--scales", "tiny"]

    @pytest.mark.parametrize("text", ["2", "1:2", "2/2", "-1/2", "a/b"])
    def test_rejects_malformed_shard(self, text):
        with pytest.raises(SystemExit):
            build_shard_parser().parse_args(["--shard", text])

    def test_requires_a_mode(self):
        with pytest.raises(SystemExit):
            build_shard_parser().parse_args([])

    def test_manual_shard_then_merge_flow(self, capsys, tmp_path):
        """The two-terminal workflow: run each shard, merge, and the
        merged cache serves the whole sweep as hits."""
        shared = tmp_path / "shared"
        for index in range(2):
            argv = ["shard", "--shard", f"{index}/2",
                    "--cache-dir", str(shared)] + self.GRID
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert f"shard {index}/2:" in out
            assert "merge with:" in out
        roots = [str(shared / "shards" / f"{i}-of-2")
                 for i in range(2)]
        assert main(["shard", "--merge"] + roots +
                    ["--cache-dir", str(shared)]) == 0
        out = capsys.readouterr().out
        assert "merged 4 entr(ies)" in out
        # The merged shared cache now serves the whole grid.
        assert main(["sweep", "--cache-dir", str(shared)] +
                    self.GRID) == 0
        assert "4 cache hits, 0 executed" in capsys.readouterr().out
