"""Tests for ``repro.verify``: case generation, invariant oracles,
the differential harness, shrinking, the replay corpus, and the
``repro fuzz`` command line.

Two contracts are under test (DESIGN.md decision 15):

* with ``REPRO_SIM_CHECK=1`` every engine audits its own accounting
  and raises :class:`InvariantViolation` at the first breach -- and a
  deliberately injected bookkeeping bug *is* flagged;
* :func:`run_case` runs every case through the fast AND the
  reference kernels and requires byte-equal results --
  and a deliberate fast/reference divergence *is* flagged.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import build_fuzz_parser, main
from repro.config import BLOCK_SIZE, tiny_scale
from repro.sched.base import BaselineScheduler
from repro.sim.api import simulate
from repro.sim.engine import SimulationEngine
from repro.verify import (
    CHECK_ENV,
    CaseGenerator,
    CasePools,
    FuzzCase,
    InvariantViolation,
    fuzz_run,
    load_case,
    load_corpus,
    make_checker,
    replay_cases,
    run_case,
    save_case,
    shrink_case,
    synthetic_traces,
)
from repro.verify import reference

CORPUS_DIR = Path(__file__).parent / "corpus"


def tiny_case(**overrides) -> FuzzCase:
    defaults = dict(name="t", config=tiny_scale(2).to_dict(),
                    scheduler="strex", workload="tpcc",
                    transactions=3, seed=5)
    defaults.update(overrides)
    return FuzzCase(**defaults)


def l1i_sets(case: FuzzCase) -> int:
    section = case.config["l1i"]
    return section["size_bytes"] // BLOCK_SIZE // section["assoc"]


class TestFuzzCase:
    def test_round_trips_through_json(self):
        case = tiny_case(team_size=2, note="hand-built")
        blob = json.dumps(case.to_dict(), sort_keys=True)
        again = FuzzCase.from_dict(json.loads(blob))
        assert again == case
        assert again.to_dict()["schema"] == 1

    def test_rejects_unknown_schema_and_keys(self):
        data = tiny_case().to_dict()
        with pytest.raises(ValueError, match="schema"):
            FuzzCase.from_dict(dict(data, schema=99))
        with pytest.raises(ValueError, match="unknown FuzzCase keys"):
            FuzzCase.from_dict(dict(data, surprise=1))

    def test_validates_names_and_dimensions(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            tiny_case(scheduler="zeus")
        with pytest.raises(ValueError, match="unknown workload"):
            tiny_case(workload="tpch")
        with pytest.raises(ValueError, match="team_size"):
            tiny_case(scheduler="base", team_size=2)
        with pytest.raises(ValueError, match="transactions"):
            tiny_case(transactions=0)
        with pytest.raises(ValueError, match="dimensions"):
            tiny_case(workload="synthetic", events=0)

    def test_build_traces_deterministic(self):
        case = tiny_case(workload="synthetic", transactions=4)
        a = case.build_traces()
        b = case.build_traces()
        assert [t.iblocks for t in a] == [t.iblocks for t in b]
        assert len(a) == 4

    def test_describe_names_the_case(self):
        text = tiny_case(team_size=2).describe()
        assert "strex" in text
        assert "team=2" in text


class TestSyntheticTraces:
    def test_deterministic_in_seed(self):
        a = synthetic_traces(3, 24, 16, 16, seed=9)
        b = synthetic_traces(3, 24, 16, 16, seed=9)
        assert [t.iblocks for t in a] == [t.iblocks for t in b]
        assert [t.iblocks for t in a] != \
            [t.iblocks for t in synthetic_traces(3, 24, 16, 16, seed=10)]

    def test_degenerate_dimensions(self):
        (trace,) = synthetic_traces(1, 1, 1, 1, seed=3)
        assert len(trace) == 1
        assert trace.iblocks == [0]

    def test_blocks_stay_in_universe(self):
        for trace in synthetic_traces(5, 48, 7, 3, seed=11):
            assert all(0 <= b < 7 for b in trace.iblocks)
            assert all(d < 3 for d in trace.dblocks)


class TestCaseGenerator:
    def test_stream_is_deterministic(self):
        a = [c.to_dict() for c in CaseGenerator(3).cases(10)]
        b = [c.to_dict() for c in CaseGenerator(3).cases(10)]
        assert a == b
        assert a != [c.to_dict() for c in CaseGenerator(4).cases(10)]

    def test_cases_are_independent_of_call_order(self):
        # One private RNG per index: case(7) is the same whether or
        # not cases 0..6 were generated first.
        stream = list(CaseGenerator(3).cases(8))
        assert CaseGenerator(3).case(7).to_dict() == \
            stream[7].to_dict()

    def test_covers_the_hostile_corner(self):
        cases = list(CaseGenerator(3).cases(60))
        assert any(c.config["num_cores"] == 1 for c in cases)
        assert any(c.team_size == 1 for c in cases)
        assert any(l1i_sets(c) in (3, 5, 7, 12) for c in cases)
        assert any(c.config["l1i"]["hit_latency"] == 0 for c in cases)
        assert any(c.config["l2_slice"]["hit_latency"] == 0
                   for c in cases)
        assert any(c.workload == "synthetic" for c in cases)
        assert {c.scheduler for c in cases} == \
            {"base", "strex", "slicc", "hybrid", "smt"}
        assert len({c.config["l1i"]["replacement"]
                    for c in cases}) >= 6

    def test_pools_narrow_the_stream(self):
        pools = CasePools(schedulers=("strex",), cores=(1,),
                          workloads=("synthetic",))
        for case in CaseGenerator(5, pools).cases(12):
            assert case.scheduler == "strex"
            assert case.config["num_cores"] == 1
            assert case.workload == "synthetic"

    def test_pools_reject_unknown_names(self):
        with pytest.raises(ValueError, match="unknown schedulers"):
            CasePools(schedulers=("zeus",))
        with pytest.raises(ValueError, match="non-empty"):
            CasePools(cores=())

    def test_pools_from_shared_grid_flags(self):
        # ``repro fuzz`` reuses the sweep-grid parser factoring; an
        # unset axis keeps the full hostile pool.
        args = build_fuzz_parser().parse_args(
            ["run", "--schedulers", "strex", "--cores", "1", "3"])
        pools = CasePools.from_grid_args(args)
        assert pools.schedulers == ("strex",)
        assert pools.cores == (1, 3)
        assert pools.workloads == CasePools().workloads
        assert all(c.scheduler == "strex"
                   for c in CaseGenerator(1, pools).cases(6))


class TestOracles:
    def test_checker_only_when_armed(self, monkeypatch, tiny_config):
        traces = tiny_case().build_traces()
        monkeypatch.delenv(CHECK_ENV, raising=False)
        simulate(tiny_config, traces, "base")  # disarmed: no checker
        monkeypatch.setenv(CHECK_ENV, "1")
        simulate(tiny_config, traces, "base")  # armed: audits clean

    def test_make_checker_latches_the_env(self, monkeypatch,
                                          tiny_config):
        traces = tiny_case(transactions=1).build_traces()
        engine = SimulationEngine(tiny_config, traces,
                                  BaselineScheduler)
        assert engine.checker is None
        monkeypatch.setenv(CHECK_ENV, "1")
        assert make_checker(engine) is not None

    @pytest.mark.parametrize("scheduler", ["base", "strex", "slicc",
                                           "hybrid", "smt"])
    def test_every_scheduler_audits_clean(self, monkeypatch, scheduler,
                                          tiny_config):
        monkeypatch.setenv(CHECK_ENV, "1")
        traces = tiny_case().build_traces()
        result = simulate(tiny_config, traces, scheduler)
        assert result.transactions == len(traces)

    def test_non_age_policies_audit_clean(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV, "1")
        case = tiny_case()
        config = dict(case.config)
        config["l1i"] = dict(config["l1i"], replacement="srrip")
        case = case.replace(config=config)
        simulate(case.build_config(), case.build_traces(), "strex")

    def test_injected_accounting_bug_is_flagged(self, monkeypatch,
                                                tiny_config):
        # Leak one instruction per slice out of the per-thread books:
        # the instruction-conservation oracle must fire at finalize.
        monkeypatch.setenv(CHECK_ENV, "1")
        original = SimulationEngine.run_events

        def leaky(self, core, thread, max_events, **kwargs):
            executed = original(self, core, thread, max_events,
                                **kwargs)
            self.total_instructions += 1
            return executed

        monkeypatch.setattr(SimulationEngine, "run_events", leaky)
        with pytest.raises(InvariantViolation,
                           match=r"\[instruction-conservation\]"):
            simulate(tiny_config, tiny_case().build_traces(), "strex")

    def test_violation_names_its_oracle(self):
        with pytest.raises(InvariantViolation, match=r"^\[demo\]"):
            raise InvariantViolation("[demo] detail")
        assert issubclass(InvariantViolation, AssertionError)


class TestRunCase:
    def test_clean_case_is_ok(self):
        outcome = run_case(tiny_case())
        assert outcome.ok
        assert outcome.status == "ok"

    def test_unbuildable_case_is_an_error(self):
        outcome = run_case(tiny_case(config={"num_cores": "many"}))
        assert outcome.status == "error"
        assert "construction failed" in outcome.detail

    def test_kernel_divergence_is_a_mismatch(self, monkeypatch):
        # Perturb only the reference event loop, so only the reference
        # run moves and the byte-equality bar must flag the divergence.
        original = reference.run_events_reference

        def slower(engine, core, *args, **kwargs):
            executed = original(engine, core, *args, **kwargs)
            engine.core_time[core] += 1
            return executed

        monkeypatch.setattr(reference, "run_events_reference", slower)
        outcome = run_case(tiny_case())
        assert outcome.status == "mismatch"
        assert "cycles" in outcome.detail

    def test_hierarchy_only_divergence_is_a_mismatch(self, monkeypatch):
        # A fast-kernel bug that moves only a counter RunResult does not
        # carry (here the NoC's hop total) must still be flagged, and
        # the detail must name the counter.
        original = SimulationEngine.run_events

        def lossy(self, core, thread, max_events, **kwargs):
            executed = original(self, core, thread, max_events,
                                **kwargs)
            if not self.reference:
                self.hier.noc.total_hops += 1
            return executed

        monkeypatch.setattr(SimulationEngine, "run_events", lossy)
        outcome = run_case(tiny_case())
        assert outcome.status == "mismatch"
        assert outcome.detail.startswith("noc.total_hops: fast=")

    def test_oracle_violation_is_classified(self, monkeypatch):
        original = SimulationEngine.run_events

        def leaky(self, core, thread, max_events, **kwargs):
            executed = original(self, core, thread, max_events,
                                **kwargs)
            self.total_instructions += 1
            return executed

        monkeypatch.setattr(SimulationEngine, "run_events", leaky)
        outcome = run_case(tiny_case())
        assert outcome.status == "violation"
        assert outcome.kernel == "fast"
        assert "[instruction-conservation]" in outcome.detail
        # Disarmed, the same bug hits both kernels identically and
        # the differential harness alone is blind to it.
        assert run_case(tiny_case(), check=False).ok

    def test_outcome_serializes(self):
        outcome = run_case(tiny_case(transactions=1))
        data = outcome.to_dict()
        assert data["status"] == "ok"
        assert data["case"]["name"] == "t"


class TestShrinking:
    def test_converges_to_the_minimal_case(self):
        case = tiny_case(scheduler="smt", workload="synthetic",
                         transactions=4, events=24, blocks=16,
                         data_blocks=16)
        shrunk, attempts = shrink_case(case, is_failing=lambda c: True)
        assert shrunk.transactions == 1
        assert shrunk.scheduler == "base"
        assert shrunk.config["num_cores"] == 1
        assert shrunk.events == 1
        assert attempts <= 80

    def test_deterministic(self):
        case = tiny_case(scheduler="strex", team_size=2)
        a, _ = shrink_case(case, is_failing=lambda c: True)
        b, _ = shrink_case(case, is_failing=lambda c: True)
        assert a == b

    def test_keeps_the_failure_failing(self):
        # Only multi-core cases "fail": the shrinker must stop at 2
        # cores, never hand back a passing 1-core repro.
        case = tiny_case(transactions=4)

        def is_failing(candidate):
            return candidate.config["num_cores"] >= 2

        shrunk, _ = shrink_case(case, is_failing=is_failing)
        assert shrunk.config["num_cores"] == 2
        assert shrunk.transactions == 1

    def test_predicate_crash_counts_as_failing(self):
        case = tiny_case(transactions=4)

        def explodes(candidate):
            raise RuntimeError("still broken")

        shrunk, _ = shrink_case(case, is_failing=explodes,
                                max_attempts=10)
        assert shrunk != case


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        case = tiny_case(name="saved", team_size=2)
        path = save_case(case, tmp_path)
        assert path.name == "saved.json"
        assert load_case(path) == case
        assert load_corpus(tmp_path) == [(path, case)]

    def test_load_corpus_sorted_by_filename(self, tmp_path):
        save_case(tiny_case(name="zz"), tmp_path)
        save_case(tiny_case(name="aa"), tmp_path)
        names = [case.name for _, case in load_corpus(tmp_path)]
        assert names == ["aa", "zz"]

    def test_committed_corpus_replays_green(self):
        pairs = load_corpus(CORPUS_DIR)
        assert len(pairs) >= 10, "the committed corpus shrank"
        report = replay_cases([case for _, case in pairs])
        failing = [o.describe() for o in report.outcomes if not o.ok]
        assert not failing, failing
        # The corpus must keep covering its designed-in edges.
        cases = [case for _, case in pairs]
        assert any(c.config["num_cores"] == 1 for c in cases)
        assert any(c.team_size == 1 for c in cases)
        assert any(l1i_sets(c) not in (1, 2, 4, 8, 16) for c in cases)
        assert any(c.config["l2_slice"]["hit_latency"] == 0
                   for c in cases)

    def test_corpus_replays_green_with_tracing_armed(self, tmp_path,
                                                     monkeypatch):
        """One full corpus pass with ``REPRO_TRACE`` armed: the
        hostile geometries must stay byte-equal across kernels while
        every simulation is being traced (tracing must never perturb
        the simulation, even in the corners)."""
        from repro.obs import TRACE_ENV

        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "fuzz.jsonl"))
        pairs = load_corpus(CORPUS_DIR)
        report = replay_cases([case for _, case in pairs])
        failing = [o.describe() for o in report.outcomes if not o.ok]
        assert not failing, failing
        assert (tmp_path / "fuzz.jsonl").exists()

    def test_traced_corpus_results_identical_to_untraced(
            self, tmp_path, monkeypatch):
        """Byte-identical ``RunResult``s with and without the sink,
        spot-checked on two hostile corpus cases under both kernels."""
        from repro.exp.diff import result_blob
        from repro.obs import TRACE_ENV

        pairs = load_corpus(CORPUS_DIR)[:2]
        for _, case in pairs:
            config = case.build_config()
            traces = case.build_traces()
            for reference in (False, True):
                monkeypatch.delenv(TRACE_ENV, raising=False)
                plain = simulate(config, traces, case.scheduler,
                                 case.workload,
                                 team_size=case.team_size,
                                 reference=reference)
                monkeypatch.setenv(
                    TRACE_ENV, str(tmp_path / "spot.jsonl"))
                traced = simulate(config, traces, case.scheduler,
                                  case.workload,
                                  team_size=case.team_size,
                                  reference=reference)
                assert result_blob(traced) == result_blob(plain), \
                    case.name


class TestCampaigns:
    def test_fuzz_run_reports_clean(self):
        report = fuzz_run(4, seed=7)
        assert report.ok
        assert report.exit_code() == 0
        assert len(report.outcomes) == 4
        text = report.format_text()
        assert "4 ok" in text
        assert "[seed 7]" in text

    def test_time_budget_truncates_loudly(self):
        report = fuzz_run(50, seed=7, time_budget_s=0.0)
        assert len(report.outcomes) < 50
        assert "time budget hit" in report.format_text()

    def test_failures_are_shrunk_and_saved(self, monkeypatch,
                                           tmp_path):
        original = reference.run_events_reference

        def slower(engine, core, *args, **kwargs):
            executed = original(engine, core, *args, **kwargs)
            engine.core_time[core] += 1
            return executed

        monkeypatch.setattr(reference, "run_events_reference", slower)
        report = replay_cases([tiny_case(name="bad")], shrink=True,
                              save_dir=tmp_path)
        assert report.exit_code() == 1
        (failure,) = report.failures
        assert failure.shrunk.name == "bad-shrunk"
        assert failure.saved_to == tmp_path / "bad-shrunk.json"
        saved = load_case(failure.saved_to)
        assert "shrunk from bad" in saved.note
        assert "repro saved" in report.format_text()


class TestFuzzCli:
    def test_run_prints_seed_banner(self, capsys):
        code = main(["fuzz", "run", "--cases", "2", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz seed 11" in out
        assert "--seed 11" in out
        assert "2 ok" in out

    def test_run_with_narrowed_pools(self, capsys):
        code = main(["fuzz", "run", "--cases", "2", "--seed", "3",
                     "--schedulers", "base", "--cores", "1"])
        assert code == 0
        assert "2 ok" in capsys.readouterr().out

    def test_corpus_replays_committed_cases(self, capsys):
        code = main(["fuzz", "corpus", "--corpus-dir",
                     str(CORPUS_DIR)])
        out = capsys.readouterr().out
        assert code == 0
        assert "one-core-torus" in out
        assert "status" in out

    def test_empty_corpus_exits_2(self, capsys, tmp_path):
        code = main(["fuzz", "corpus", "--corpus-dir", str(tmp_path)])
        assert code == 2
        assert "no corpus cases" in capsys.readouterr().out

    def test_replay_single_file(self, capsys):
        code = main(["fuzz", "replay",
                     str(CORPUS_DIR / "one-core-torus.json")])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, capsys, tmp_path):
        assert main(["fuzz", "run", str(tmp_path)]) == 2
        assert main(["fuzz", "replay"]) == 2
        err = capsys.readouterr().err
        assert "fuzz replay" in err
