"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import (
    COMMANDS,
    build_shard_parser,
    build_sweep_parser,
    main,
)
from repro.exp import Runner, RunSpec


class TestSweepSubcommand:
    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_sweep_parser().parse_args(["--workloads", "tpch"])

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            build_sweep_parser().parse_args(["--schedulers", "zeus"])

    def test_rejects_unknown_prefetcher(self):
        with pytest.raises(SystemExit):
            build_sweep_parser().parse_args(["--prefetchers", "stride"])

    def test_nonpositive_timeout_is_clean_error(self, capsys, tmp_path):
        code = main([
            "sweep", "--workloads", "tpcc", "--schedulers", "base",
            "--cores", "2", "--transactions", "4", "--scales", "tiny",
            "--cache-dir", str(tmp_path), "--timeout", "0",
        ])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: timeout must be positive\n"

    @staticmethod
    def vs_base_column(out: str) -> dict:
        """``(cores, scheduler) -> vs base`` cell of a sweep table."""
        header, _, *rows, _ = out.splitlines()
        assert header.endswith("vs base")
        cores = header.split().index("cores")
        return {(int(row.split()[cores]), row.split()[cores + 1]):
                row.split()[-1] for row in rows}

    def test_vs_base_column(self, capsys, tmp_path):
        grid = ["--workloads", "tpcc", "--cores", "2", "--transactions",
                "4", "--scales", "tiny", "--cache-dir", str(tmp_path)]
        assert main(["sweep", "--schedulers", "base", "strex"]
                    + grid) == 0
        column = self.vs_base_column(capsys.readouterr().out)
        base, strex = Runner().run([
            RunSpec(workload="tpcc", scheduler=scheduler, cores=2,
                    transactions=4, scale="tiny")
            for scheduler in ("base", "strex")])
        assert column == {
            (2, "base"): "x1.000",
            (2, "strex"): f"x{strex.relative_throughput(base):.3f}",
        }
        # A grid with no base cell has nothing to normalize against.
        assert main(["sweep", "--schedulers", "strex"] + grid) == 0
        assert self.vs_base_column(capsys.readouterr().out) == \
            {(2, "strex"): "-"}

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


class TestDispatch:
    def test_no_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(
            "error: no command; choose from "
            + ", ".join(sorted(COMMANDS)))

    def test_retired_flag_only_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "tpcc", "--scheduler", "strex"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_reaches_the_commands_own_parser(self, command,
                                                  capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert f"usage: repro {command}" in capsys.readouterr().out

    def test_retired_service_command_is_a_usage_error(self, capsys):
        """``serve`` is no subcommand: it is rejected as an unknown
        command, naming the real ones."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert "error: unknown command 'serve'; choose from " in err

    def test_mistyped_command_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweeep", "--workloads", "tpcc"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(
            "error: unknown command 'sweeep'; choose from "
            + ", ".join(sorted(COMMANDS)))

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "commands: " + ", ".join(sorted(COMMANDS)) + "." in out
