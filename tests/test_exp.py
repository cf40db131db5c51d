"""Tests for the repro.exp experiment-orchestration subsystem:
specs, cache keys, the disk cache, the manifest, and the runner
(serial, parallel, retry, timeout)."""

import json
import time

import pytest

import repro.exp.runner as runner_mod
from repro.analysis.overlap import OverlapResult
from repro.core.fptable import FootprintResult
from repro.exp import (
    Manifest,
    ManifestEntry,
    ResultCache,
    RunError,
    RunSpec,
    Runner,
    SimTimeoutError,
    SweepSpec,
    code_fingerprint,
    execute_spec,
    spec_key,
    summarize_entries,
)
from repro.sim.results import RunResult


def tiny_spec(**overrides) -> RunSpec:
    defaults = dict(workload="tpcc", scheduler="base", cores=2,
                    transactions=4, seed=7, scale="tiny")
    defaults.update(overrides)
    return RunSpec(**defaults)


def tiny_sweep(**overrides) -> SweepSpec:
    defaults = dict(workloads=("tpcc", "mapreduce"),
                    schedulers=("base", "strex"), cores=(2,),
                    seeds=(7,), scales=("tiny",), transactions=4)
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestRunSpec:
    def test_validates_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            tiny_spec(workload="tpch")

    def test_validates_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            tiny_spec(scheduler="zeus")

    def test_validates_prefetcher(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            tiny_spec(prefetcher="magic")

    def test_validates_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            tiny_spec(scale="huge")

    def test_rejects_team_size_for_base(self):
        with pytest.raises(ValueError, match="team_size"):
            tiny_spec(scheduler="base", team_size=4)

    def test_team_size_allowed_for_strex_and_hybrid(self):
        assert tiny_spec(scheduler="strex", team_size=4).team_size == 4
        assert tiny_spec(scheduler="hybrid", team_size=4).team_size == 4

    def test_roundtrip(self):
        spec = tiny_spec(scheduler="strex", team_size=6,
                         replacement="bip")
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        data = tiny_spec().to_dict()
        data["warehouses"] = 10
        with pytest.raises(ValueError, match="unknown RunSpec keys"):
            RunSpec.from_dict(data)

    def test_build_config_applies_replacement(self):
        config = tiny_spec(replacement="bip", cores=4).build_config()
        assert config.num_cores == 4
        assert config.l1i.replacement == "bip"
        assert config.l1d.replacement == "bip"

    def test_mix_seed_defaults_to_seed(self):
        assert tiny_spec(seed=9).effective_mix_seed() == 9
        assert tiny_spec(seed=9, mix_seed=3).effective_mix_seed() == 3


class TestSweepSpec:
    def test_expansion_order_is_deterministic(self):
        sweep = tiny_sweep()
        first = sweep.expand()
        assert first == sweep.expand()
        # Workload-major order.
        assert [s.workload for s in first] == \
            ["tpcc", "tpcc", "mapreduce", "mapreduce"]
        assert len(sweep) == 4

    def test_team_sizes_only_apply_to_team_schedulers(self):
        sweep = tiny_sweep(schedulers=("base", "strex"),
                           team_sizes=(2, 8))
        specs = sweep.expand()
        base = [s for s in specs if s.scheduler == "base"]
        strex = [s for s in specs if s.scheduler == "strex"]
        # One deduped base cell, one strex cell per team size.
        assert len(base) == 2 and all(s.team_size is None for s in base)
        assert sorted(s.team_size for s in strex) == [2, 2, 8, 8]

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="axis"):
            tiny_sweep(cores=())

    def test_rejects_string_axis(self):
        with pytest.raises(TypeError):
            tiny_sweep(workloads="tpcc")


class TestSpecKey:
    def test_stable_for_equal_specs(self):
        assert spec_key(tiny_spec()) == spec_key(tiny_spec())

    def test_every_axis_changes_the_key(self):
        base = spec_key(tiny_spec())
        variants = [
            tiny_spec(workload="tpce"),
            tiny_spec(scheduler="strex"),
            tiny_spec(prefetcher="nextline"),
            tiny_spec(cores=4),
            tiny_spec(transactions=8),
            tiny_spec(seed=8),
            tiny_spec(mix_seed=3),
            tiny_spec(scale="default"),
            tiny_spec(replacement="bip"),
            tiny_spec(scheduler="strex", team_size=4),
        ]
        keys = {spec_key(v) for v in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_content_addressing_ignores_spelling(self):
        """mix_seed=None means "use seed" — the two spellings address
        the same content, so they share a cache entry."""
        assert spec_key(tiny_spec(seed=9)) == \
            spec_key(tiny_spec(seed=9, mix_seed=9))

    def test_key_includes_code_fingerprint(self):
        assert len(code_fingerprint()) == 64
        assert code_fingerprint() == code_fingerprint()


class TestResultCache:
    def test_roundtrip_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        result = execute_spec(spec)
        key = spec_key(spec)
        cache.put(key, result, spec)
        assert key in cache
        assert cache.get(key) == result

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{truncated")
        assert cache.get(key) is None
        assert not path.exists()

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec_key(spec), execute_spec(spec), spec)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestManifest:
    def test_record_and_read(self, tmp_path):
        manifest = Manifest(tmp_path / "m.jsonl")
        entry = ManifestEntry(key="k", spec={"workload": "tpcc"},
                              hit=False, wall_s=1.5, worker=42)
        manifest.record(entry)
        manifest.record(ManifestEntry(key="k", spec={}, hit=True,
                                      wall_s=0.0))
        entries = manifest.read()
        assert entries[0] == entry
        assert entries[1].hit is True

    def test_read_skips_torn_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        Manifest(path).record(ManifestEntry(key="k", spec={}, hit=True,
                                            wall_s=0.0))
        with open(path, "a") as handle:
            handle.write('{"key": "torn')
        assert len(Manifest(path).read()) == 1

    def test_read_skips_torn_row_glued_by_a_relaunched_writer(self,
                                                             tmp_path):
        # A writer killed mid-row, then a fresh append: the fragment is
        # glued to the next row and the glued line is skipped, while
        # the rows around it still read back.
        glued = tmp_path / "glued.jsonl"
        manifest = Manifest(glued)
        manifest.record(ManifestEntry(key="k1", spec={}, hit=False,
                                      wall_s=0.1))
        with open(glued, "a") as handle:
            handle.write('{"key": "killed-mid-')  # no newline
        manifest.record(ManifestEntry(key="k2", spec={}, hit=False,
                                      wall_s=0.2))
        manifest.record(ManifestEntry(key="k3", spec={}, hit=True,
                                      wall_s=0.0))
        assert [entry.key for entry in manifest.read()] == ["k1", "k3"]


class TestRunner:
    def test_results_align_with_specs(self, tmp_path):
        sweep = tiny_sweep()
        specs = sweep.expand()
        results = Runner(cache=ResultCache(tmp_path)).run(sweep)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert result.scheduler == spec.scheduler
            assert result.transactions == spec.transactions

    def test_second_run_is_all_cache_hits(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        first = runner.run(tiny_sweep())
        assert (runner.hits, runner.misses) == (0, 4)
        second = runner.run(tiny_sweep())
        assert (runner.hits, runner.misses) == (4, 0)
        assert first == second

    def test_parallel_equals_serial(self, tmp_path):
        sweep = tiny_sweep()
        serial = Runner(jobs=1).run(sweep)
        parallel = Runner(jobs=2).run(sweep)
        assert serial == parallel

    def test_parallel_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        parallel = Runner(jobs=2, cache=cache)
        first = parallel.run(tiny_sweep())
        assert parallel.misses == 4
        warm = Runner(jobs=2, cache=cache)
        assert warm.run(tiny_sweep()) == first
        assert (warm.hits, warm.misses) == (4, 0)

    def test_manifest_records_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        manifest = Manifest(tmp_path / "manifest.jsonl")
        Runner(cache=cache, manifest=manifest).run(tiny_sweep())
        Runner(cache=cache, manifest=manifest).run(tiny_sweep())
        entries = manifest.read()
        assert len(entries) == 8
        assert [e.hit for e in entries] == [False] * 4 + [True] * 4
        misses = [e for e in entries if not e.hit]
        assert all(e.wall_s > 0 for e in misses)
        assert all(e.worker is not None for e in misses)
        assert all(len(e.key) == 64 for e in entries)

    def test_deterministic_error_fails_fast(self, monkeypatch):
        calls = []

        def boom(spec):
            calls.append(spec)
            raise ValueError("deterministic failure")

        monkeypatch.setattr(runner_mod, "execute_spec", boom)
        with pytest.raises(RunError, match="failed after 1 attempt"):
            Runner(retries=3).run([tiny_spec()])
        assert len(calls) == 1

    def test_transient_error_is_retried(self, monkeypatch):
        real = execute_spec
        calls = []

        def flaky(spec):
            calls.append(spec)
            if len(calls) < 3:
                raise OSError("worker lost")
            return real(spec)

        monkeypatch.setattr(runner_mod, "execute_spec", flaky)
        runner = Runner(retries=2)
        results = runner.run([tiny_spec()])
        assert len(calls) == 3
        assert results[0] == real(tiny_spec())
        assert runner.entries[0].attempts == 3

    def test_retries_exhausted_raises(self, monkeypatch):
        def always_down(spec):
            raise OSError("worker lost")

        monkeypatch.setattr(runner_mod, "execute_spec", always_down)
        with pytest.raises(RunError, match="failed after 2 attempt"):
            Runner(retries=1).run([tiny_spec()])

    def test_timeout_interrupts_a_wedged_run(self, monkeypatch):
        def wedged(spec):
            time.sleep(5.0)

        monkeypatch.setattr(runner_mod, "execute_spec", wedged)
        runner = Runner(timeout=0.05, retries=0)
        start = time.perf_counter()
        with pytest.raises(RunError) as excinfo:
            runner.run([tiny_spec()])
        assert time.perf_counter() - start < 2.0
        assert isinstance(excinfo.value.__cause__, SimTimeoutError)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            Runner(retries=-1)

    @pytest.mark.parametrize("timeout", [0, -5])
    def test_rejects_nonpositive_timeout(self, timeout):
        # setitimer(0) would disarm the budget and a negative one fails
        # every attempt; both are refused up front.
        with pytest.raises(ValueError, match="timeout must be positive"):
            Runner(timeout=timeout)


class TestExecuteSpec:
    def test_team_size_reaches_the_scheduler(self):
        small = execute_spec(tiny_spec(scheduler="strex", team_size=2,
                                       cores=1, transactions=8))
        large = execute_spec(tiny_spec(scheduler="strex", team_size=8,
                                       cores=1, transactions=8))
        assert small.transactions == large.transactions == 8
        assert large.mean_latency > small.mean_latency

    def test_prefetcher_recorded_in_scheduler_label(self):
        run = execute_spec(tiny_spec(prefetcher="nextline"))
        assert run.scheduler == "base+nextline"

    def test_result_serializes_through_json(self):
        result = execute_spec(tiny_spec())
        blob = json.dumps(result.to_dict())
        assert RunResult.from_dict(json.loads(blob)) == result


class TestOverrides:
    def test_strex_overrides_reach_the_config(self):
        spec = tiny_spec(scheduler="strex",
                         strex_overrides={"phase_bits": 2, "window": 5})
        config = spec.build_config()
        assert config.strex.phase_bits == 2
        assert config.strex.window == 5

    def test_cache_overrides_apply_to_both_l1s(self):
        config = tiny_spec(cache_overrides={"assoc": 2}).build_config()
        assert config.l1i.assoc == 2
        assert config.l1d.assoc == 2

    def test_hybrid_overrides_reach_the_config(self):
        spec = tiny_spec(scheduler="hybrid",
                         hybrid_overrides={"slack_units": 4})
        assert spec.build_config().hybrid.slack_units == 4

    def test_strex_overrides_rejected_for_base(self):
        with pytest.raises(ValueError, match="strex_overrides"):
            tiny_spec(scheduler="base",
                      strex_overrides={"phase_bits": 2})

    def test_hybrid_overrides_rejected_for_strex(self):
        with pytest.raises(ValueError, match="hybrid_overrides"):
            tiny_spec(scheduler="strex",
                      hybrid_overrides={"slack_units": 4})

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown StrexConfig"):
            tiny_spec(scheduler="strex",
                      strex_overrides={"phase_bitz": 2})

    def test_non_scalar_value_rejected(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            tiny_spec(scheduler="strex",
                      strex_overrides={"phase_bits": [2]})

    def test_team_size_conflict_rejected(self):
        with pytest.raises(ValueError, match="pick one"):
            tiny_spec(scheduler="strex", team_size=4,
                      strex_overrides={"team_size": 8})

    def test_replacement_conflict_rejected(self):
        with pytest.raises(ValueError, match="pick one"):
            tiny_spec(replacement="bip",
                      cache_overrides={"replacement": "lru"})

    def test_describe_names_the_knobs(self):
        spec = tiny_spec(scheduler="strex",
                         strex_overrides={"phase_bits": 2})
        assert "strex{phase_bits=2}" in spec.describe()

    def test_roundtrip_with_overrides(self):
        spec = tiny_spec(scheduler="hybrid", team_size=6,
                         strex_overrides={"window": 5},
                         hybrid_overrides={"slack_units": 4})
        data = json.loads(json.dumps(spec.to_dict()))
        assert RunSpec.from_dict(data) == spec

    def test_override_changes_key_default_spelling_does_not(self):
        bare = tiny_spec(scheduler="strex")
        assert spec_key(tiny_spec(
            scheduler="strex", strex_overrides={"window": 5},
        )) != spec_key(bare)
        # window=30 is the StrexConfig default: same expanded config,
        # same content address.
        assert spec_key(tiny_spec(
            scheduler="strex", strex_overrides={"window": 30},
        )) == spec_key(bare)


class TestModes:
    def test_typed_modes_require_txn_type(self):
        with pytest.raises(ValueError, match="requires txn_type"):
            tiny_spec(mode="uniform")

    def test_mix_rejects_txn_type(self):
        with pytest.raises(ValueError, match="txn_type"):
            tiny_spec(txn_type="NewOrder")

    def test_replicas_only_for_identical(self):
        with pytest.raises(ValueError, match="replicas"):
            tiny_spec(replicas=2)
        with pytest.raises(ValueError, match="replicas"):
            tiny_spec(mode="identical", txn_type="NewOrder", replicas=0)

    def test_analysis_modes_reject_schedulers(self):
        with pytest.raises(ValueError, match="ignores the scheduler"):
            tiny_spec(mode="overlap", txn_type="NewOrder",
                      scheduler="strex")
        with pytest.raises(ValueError, match="ignores the scheduler"):
            tiny_spec(mode="fptable", prefetcher="pif")

    def test_overlap_needs_two_traces(self):
        with pytest.raises(ValueError, match="at least two"):
            tiny_spec(mode="overlap", txn_type="NewOrder",
                      transactions=1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            tiny_spec(mode="profile")

    def test_uniform_simulates_one_type(self):
        result = execute_spec(tiny_spec(mode="uniform",
                                        txn_type="Payment"))
        assert isinstance(result, RunResult)
        assert result.transactions == 4

    def test_identical_replicates(self):
        result = execute_spec(tiny_spec(
            mode="identical", txn_type="NewOrder", transactions=2,
            replicas=3))
        assert isinstance(result, RunResult)
        assert result.transactions == 6

    def test_overlap_returns_overlap_result(self):
        result = execute_spec(tiny_spec(mode="overlap",
                                        txn_type="NewOrder"))
        assert isinstance(result, OverlapResult)
        assert result.txn_type == "NewOrder"
        assert result.intervals
        for bands in (result.summarize(), result.summarize_early()):
            assert all(0.0 <= v <= 1.0 for v in bands.values())

    def test_fptable_returns_footprint_result(self):
        result = execute_spec(tiny_spec(mode="fptable",
                                        transactions=2))
        assert isinstance(result, FootprintResult)
        assert result.units("NewOrder") >= 1
        assert "Payment" in result.known_types()

    def test_analysis_results_cache_and_roundtrip(self, tmp_path):
        specs = [
            tiny_spec(mode="overlap", txn_type="NewOrder"),
            tiny_spec(mode="fptable", transactions=2),
            tiny_spec(),
        ]
        runner = Runner(cache=ResultCache(tmp_path))
        first = runner.run(specs)
        assert (runner.hits, runner.misses) == (0, 3)
        second = runner.run(specs)
        assert (runner.hits, runner.misses) == (3, 0)
        assert first == second
        assert isinstance(second[0], OverlapResult)
        assert isinstance(second[1], FootprintResult)
        assert isinstance(second[2], RunResult)


class TestSweepOverrides:
    def test_override_grid_expands_as_axes(self):
        sweep = tiny_sweep(workloads=("tpcc",),
                           schedulers=("strex",),
                           strex_overrides={"phase_bits": (2, 4),
                                            "window": (5,)})
        specs = sweep.expand()
        assert len(specs) == 2
        assert [dict(s.strex_overrides) for s in specs] == [
            {"phase_bits": 2, "window": 5},
            {"phase_bits": 4, "window": 5},
        ]

    def test_non_team_schedulers_collapse_override_cells(self):
        sweep = tiny_sweep(workloads=("tpcc",),
                           schedulers=("base", "strex"),
                           strex_overrides={"phase_bits": (2, 4)})
        specs = sweep.expand()
        base = [s for s in specs if s.scheduler == "base"]
        strex = [s for s in specs if s.scheduler == "strex"]
        assert len(base) == 1 and base[0].strex_overrides is None
        assert len(strex) == 2

    def test_override_grid_without_team_scheduler_is_an_error(self):
        with pytest.raises(ValueError, match="strex_overrides require"):
            tiny_sweep(schedulers=("base",),
                       strex_overrides={"phase_bits": (2,)})

    def test_hybrid_grid_without_hybrid_is_an_error(self):
        with pytest.raises(ValueError, match="hybrid_overrides require"):
            tiny_sweep(schedulers=("base", "strex"),
                       hybrid_overrides={"slack_units": (4,)})

    def test_empty_override_axis_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            tiny_sweep(schedulers=("strex",),
                       strex_overrides={"phase_bits": ()})

    def test_typed_mode_sweep(self):
        sweep = tiny_sweep(workloads=("tpcc",), schedulers=("base",),
                           mode="uniform",
                           txn_types=("NewOrder", "Payment"))
        specs = sweep.expand()
        assert [s.txn_type for s in specs] == ["NewOrder", "Payment"]
        assert all(s.mode == "uniform" for s in specs)


class TestManifestSummary:
    def test_aggregates(self):
        entries = [
            ManifestEntry(key="k1", spec={"workload": "tpcc",
                                          "scheduler": "base"},
                          hit=False, wall_s=2.0),
            ManifestEntry(key="k1", spec={"workload": "tpcc",
                                          "scheduler": "base"},
                          hit=True, wall_s=0.0),
            ManifestEntry(key="k2", spec={"workload": "tpcc",
                                          "scheduler": "strex"},
                          hit=False, wall_s=0.5, attempts=3),
            ManifestEntry(key="k3", spec={"workload": "tpce",
                                          "scheduler": "base"},
                          hit=True, wall_s=0.0),
        ]
        summary = summarize_entries(entries, top=2)
        assert (summary.runs, summary.hits, summary.misses) == (4, 2, 2)
        assert summary.hit_rate == 0.5
        assert summary.wall_s == 2.5
        # k1's hit is credited its executed wall; k3 never executed.
        assert summary.saved_s == 2.0
        assert summary.retried == 1
        assert summary.groups[("tpcc", "base")]["runs"] == 2
        assert summary.slowest[0][0] == 2.0
        assert summary.slowest[0][2] == "k1"

    def test_to_dict_is_json_and_has_hit_rate(self):
        summary = summarize_entries([
            ManifestEntry(key="k", spec={}, hit=True, wall_s=0.0),
        ])
        data = json.loads(json.dumps(summary.to_dict()))
        assert data["hit_rate"] == 1.0
        assert data["runs"] == 1

    def test_real_runner_manifest_summarizes(self, tmp_path):
        cache = ResultCache(tmp_path)
        manifest = Manifest(tmp_path / "manifest.jsonl")
        Runner(cache=cache, manifest=manifest).run(tiny_sweep())
        Runner(cache=cache, manifest=manifest).run(tiny_sweep())
        summary = summarize_entries(manifest.read())
        assert summary.runs == 8
        assert summary.hit_rate == 0.5
        assert summary.saved_s > 0
        assert summary.slowest
