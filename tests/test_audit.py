"""Tests for the audit layer (``repro.exp.diff``, ``repro.exp.baseline``):
spec identity, metric vectors, result diffing (``repro diff``), pinned
baselines (``repro baseline``), the reference-kernel diff, and the
kernel perf gate.

The contract under test is the one DESIGN.md decision 14 records:
cells align by *spec identity* (the spec's own fields, never the code
fingerprint), and comparisons run over *metric vectors* (never raw
cache bytes), so a fingerprint-only change stays green while any
change that moves a metric is named cell by cell.
"""

import json

import pytest

import repro.exp.cache as cache_mod
import repro.exp.runner as runner_mod
from repro.__main__ import main
from repro.exp import (
    Baseline,
    BaselineError,
    Cell,
    DiffReport,
    Manifest,
    ResultCache,
    Runner,
    RunSpec,
    SweepSpec,
    Tolerance,
    check_baseline,
    diff_cells,
    diff_manifests,
    execute_spec,
    manifest_cells,
    metric_vector,
    pin_baseline,
    reference_diff,
    snapshot_cells,
    spec_identity,
    spec_key,
    update_baseline,
)
from repro.perf import check_regression


def tiny_spec(**overrides) -> RunSpec:
    defaults = dict(workload="tpcc", scheduler="base", cores=2,
                    transactions=4, seed=7, scale="tiny")
    defaults.update(overrides)
    return RunSpec(**defaults)


def tiny_sweep(**overrides) -> SweepSpec:
    defaults = dict(workloads=("tpcc",), schedulers=("base", "strex"),
                    cores=(2,), seeds=(7,), scales=("tiny",),
                    transactions=4)
    defaults.update(overrides)
    return SweepSpec(**defaults)


def run_into(root) -> list:
    """Run the tiny sweep into a cache + manifest rooted at ``root``."""
    runner = Runner(cache=ResultCache(root),
                    manifest=Manifest(root / "manifest.jsonl"))
    return runner.run(tiny_sweep())


def perturb_entry(root, key: str, metric: str = "cycles",
                  bump: float = 100) -> None:
    """Hand-mutate one cached result, simulating a simulator change."""
    cache = ResultCache(root)
    path = cache.path_for(key)
    payload = json.loads(path.read_text())
    payload["result"][metric] += bump
    path.write_text(json.dumps(payload, sort_keys=True))


class TestSpecIdentity:
    def test_stable_and_deterministic(self):
        assert spec_identity(tiny_spec()) == spec_identity(tiny_spec())
        assert len(spec_identity(tiny_spec())) == 64

    def test_differs_across_specs(self):
        assert spec_identity(tiny_spec()) != \
            spec_identity(tiny_spec(scheduler="strex"))
        assert spec_identity(tiny_spec()) != \
            spec_identity(tiny_spec(seed=8))

    def test_ignores_code_fingerprint(self, monkeypatch):
        spec = tiny_spec()
        before_key = spec_key(spec)
        before_identity = spec_identity(spec)
        monkeypatch.setattr(cache_mod, "code_fingerprint",
                            lambda: "f" * 64)
        assert spec_key(spec) != before_key
        assert spec_identity(spec) == before_identity

    def test_mix_seed_normalized_to_effective_value(self):
        implicit = tiny_spec(mix_seed=None)
        explicit = tiny_spec(mix_seed=implicit.effective_mix_seed())
        assert spec_identity(implicit) == spec_identity(explicit)


class TestMetricVector:
    def test_run_result_counters_and_derived(self):
        result = execute_spec(tiny_spec())
        metrics = metric_vector(result)
        for name in ("cycles", "i_misses", "i_mpki", "d_mpki",
                     "throughput", "mean_latency",
                     "extra.l1i_evictions"):
            assert name in metrics
        assert metrics["i_mpki"] == result.i_mpki
        # Non-scalar fields never leak into the vector.
        assert "latencies" not in metrics
        assert "workload" not in metrics

    def test_overlap_result_bands(self):
        result = execute_spec(tiny_spec(
            mode="overlap", txn_type="NewOrder", transactions=3))
        metrics = metric_vector(result)
        assert metrics["intervals"] == len(result.intervals)
        bands = [name for name in metrics if name.startswith("band.")]
        assert bands
        assert all(0.0 <= metrics[name] <= 1.0 for name in bands)

    def test_footprint_result_units(self):
        result = execute_spec(tiny_spec(mode="fptable", transactions=2))
        metrics = metric_vector(result)
        assert metrics["units.NewOrder"] == result.units("NewOrder")
        assert metrics["median_units"] == result.median_units()

    def test_unregistered_type_raises(self):
        with pytest.raises(TypeError, match="no metric extractor"):
            metric_vector(object())


class TestTolerance:
    def test_default_is_exact(self):
        tol = Tolerance()
        assert tol.within(1.0, 1.0)
        assert not tol.within(1.0, 1.0000001)

    def test_abs_and_rel_combine_as_max(self):
        tol = Tolerance(abs_tol=0.5, rel_tol=0.01)
        assert tol.within(10.0, 10.4)     # abs wins
        assert tol.within(100.0, 100.9)   # rel wins
        assert not tol.within(100.0, 101.1)

    def test_missing_side_is_never_within(self):
        assert not Tolerance(abs_tol=1e9).within(None, 1.0)
        assert not Tolerance(abs_tol=1e9).within(1.0, None)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=-1.0)


class TestDiffCells:
    def cells(self, **metric_overrides):
        spec = tiny_spec()
        result = execute_spec(spec)
        cell = Cell.from_result(spec, result)
        if metric_overrides:
            metrics = dict(cell.metrics)
            metrics.update(metric_overrides)
            cell = Cell(identity=cell.identity, spec=cell.spec,
                        label=cell.label, result_type=cell.result_type,
                        metrics=metrics)
        return {cell.identity: cell}

    def test_identical_cells_pass(self):
        report = diff_cells(self.cells(), self.cells())
        assert report.counts["identical"] == 1
        assert report.ok(strict=True)
        assert report.exit_code() == 0

    def test_changed_cell_names_the_metric(self):
        a = self.cells()
        b = self.cells(cycles=next(iter(a.values())).metrics["cycles"]
                       + 100)
        report = diff_cells(a, b)
        assert report.counts["changed"] == 1
        assert not report.ok()
        assert report.exit_code() == 1
        (cell,) = report.by_status("changed")
        assert [d.metric for d in cell.moved] == ["cycles"]
        assert cell.moved[0].delta == 100
        assert "cycles" in report.format_text()
        assert "cycles" in report.format_markdown()

    def test_tolerance_absorbs_small_drift(self):
        a = self.cells()
        b = self.cells(cycles=next(iter(a.values())).metrics["cycles"]
                       + 1)
        assert diff_cells(a, b).counts["changed"] == 1
        loose = diff_cells(a, b, Tolerance(abs_tol=2.0))
        assert loose.counts["identical"] == 1

    def test_added_and_removed_fail_only_under_strict(self):
        a = self.cells()
        report = diff_cells(a, {})
        assert report.counts["removed"] == 1
        assert report.ok(strict=False)
        assert not report.ok(strict=True)
        report = diff_cells({}, a)
        assert report.counts["added"] == 1
        assert report.exit_code(strict=True) == 1

    def test_unloadable_result_is_missing_not_equal(self):
        a = self.cells()
        identity = next(iter(a))
        hole = {identity: Cell(identity=identity,
                               spec=a[identity].spec,
                               label=a[identity].label)}
        report = diff_cells(a, hole)
        assert report.counts["missing"] == 1
        assert not report.ok()

    def test_result_type_change_is_a_change(self):
        a = self.cells()
        identity = next(iter(a))
        swapped = {identity: Cell(
            identity=identity, spec=a[identity].spec,
            label=a[identity].label, result_type="OverlapResult",
            metrics={"band.full": 1.0})}
        report = diff_cells(a, swapped)
        (cell,) = report.by_status("changed")
        assert "result type changed" in cell.note

    def test_json_form_omits_identical_cells(self):
        a = self.cells()
        data = diff_cells(a, a).to_dict()
        assert data["ok"] is True
        assert data["cells"] == []
        assert data["counts"]["identical"] == 1


class TestManifestDiff:
    def test_identical_runs_diff_clean(self, tmp_path):
        run_into(tmp_path / "a")
        run_into(tmp_path / "b")
        report = diff_manifests(tmp_path / "a" / "manifest.jsonl",
                                tmp_path / "b" / "manifest.jsonl")
        assert report.counts == {"changed": 0, "missing": 0,
                                 "removed": 0, "added": 0,
                                 "identical": 2}
        assert report.exit_code(strict=True) == 0

    def test_perturbed_entry_is_flagged_with_its_metrics(self, tmp_path):
        run_into(tmp_path / "a")
        run_into(tmp_path / "b")
        specs = tiny_sweep().expand()
        perturb_entry(tmp_path / "b", spec_key(specs[0]))
        report = diff_manifests(tmp_path / "a" / "manifest.jsonl",
                                tmp_path / "b" / "manifest.jsonl")
        assert report.counts["changed"] == 1
        assert report.counts["identical"] == 1
        (cell,) = report.by_status("changed")
        assert cell.label == specs[0].describe()
        moved = {d.metric for d in cell.moved}
        assert "cycles" in moved
        within = {d.metric for d in cell.deltas} - moved
        # The untouched metrics are reported but flagged as within.
        assert "i_mpki" in within

    def test_evicted_cache_entry_reports_missing(self, tmp_path):
        run_into(tmp_path / "a")
        run_into(tmp_path / "b")
        key = spec_key(tiny_sweep().expand()[0])
        ResultCache(tmp_path / "b").path_for(key).unlink()
        report = diff_manifests(tmp_path / "a" / "manifest.jsonl",
                                tmp_path / "b" / "manifest.jsonl")
        assert report.counts["missing"] == 1
        assert not report.ok()

    def test_grid_growth_is_added_not_changed(self, tmp_path):
        run_into(tmp_path / "a")
        runner = Runner(cache=ResultCache(tmp_path / "b"),
                        manifest=Manifest(tmp_path / "b" /
                                          "manifest.jsonl"))
        runner.run(tiny_sweep(schedulers=("base", "strex", "slicc")))
        report = diff_manifests(tmp_path / "a" / "manifest.jsonl",
                                tmp_path / "b" / "manifest.jsonl")
        assert report.counts["added"] == 1
        assert report.counts["identical"] == 2
        assert report.ok(strict=False)
        assert not report.ok(strict=True)

    def test_audit_manifest_resolves_cache_one_level_up(self, tmp_path):
        root = tmp_path / "cache"
        specs = tiny_sweep().expand()
        runner = Runner(cache=ResultCache(root))
        runner.run(specs)
        audit = Manifest(root / "audit" / "fig5.jsonl")
        for entry in runner.entries:
            audit.record(entry)
        cells = manifest_cells(root / "audit" / "fig5.jsonl")
        assert len(cells) == len(specs)
        assert all(cell.metrics is not None for cell in cells.values())

    def test_duplicate_rows_dedupe_last_wins(self, tmp_path):
        run_into(tmp_path / "a")
        run_into(tmp_path / "a")  # second pass re-records every row
        cells = manifest_cells(tmp_path / "a" / "manifest.jsonl")
        assert len(cells) == 2

    def test_unparseable_spec_row_is_skipped_with_warning(self, tmp_path):
        run_into(tmp_path / "a")
        manifest = Manifest(tmp_path / "a" / "manifest.jsonl")
        with open(manifest.path, "a") as handle:
            handle.write(json.dumps({
                "key": "0" * 64, "spec": {"workload": "dropped-workload"},
                "hit": False, "wall_s": 0.0}) + "\n")
        with pytest.warns(RuntimeWarning, match="no longer parses"):
            cells = manifest_cells(manifest)
        assert len(cells) == 2


class TestBaseline:
    def pin(self, tmp_path, **sweep_overrides):
        specs = tiny_sweep(**sweep_overrides).expand()
        runner = Runner(cache=ResultCache(tmp_path / "cache"))
        path = tmp_path / "baseline.json"
        return specs, pin_baseline(specs, path, runner=runner,
                                   name="test"), path

    def test_pin_save_load_round_trip(self, tmp_path):
        specs, baseline, path = self.pin(tmp_path)
        loaded = Baseline.load(path)
        assert loaded.name == "test"
        assert set(loaded.cells) == set(baseline.cells)
        assert [s.to_dict() for s in loaded.specs()] == \
            [s.to_dict() for s in baseline.specs()]

    def test_check_is_green_on_unchanged_code(self, tmp_path):
        _, _, path = self.pin(tmp_path)
        report = check_baseline(
            path, runner=Runner(cache=ResultCache(tmp_path / "cache")))
        assert report.ok(strict=True)

    def test_check_flags_metric_drift(self, tmp_path):
        _, _, path = self.pin(tmp_path)
        data = json.loads(path.read_text())
        data["cells"][0]["metrics"]["cycles"] += 50
        path.write_text(json.dumps(data))
        report = check_baseline(
            path, runner=Runner(cache=ResultCache(tmp_path / "cache")))
        assert not report.ok()
        (cell,) = report.by_status("changed")
        assert "cycles" in {d.metric for d in cell.moved}

    def test_fingerprint_only_change_stays_green(self, tmp_path,
                                                 monkeypatch):
        _, _, path = self.pin(tmp_path)
        # A refactor re-keys the cache but moves no metric: the pinned
        # specs re-execute under the new fingerprint and still match.
        monkeypatch.setattr(cache_mod, "code_fingerprint",
                            lambda: "e" * 64)
        report = check_baseline(
            path, runner=Runner(cache=ResultCache(tmp_path / "cache")))
        assert report.ok(strict=True)

    def test_update_overwrites_after_intentional_change(self, tmp_path):
        _, _, path = self.pin(tmp_path)
        data = json.loads(path.read_text())
        data["cells"][0]["metrics"]["cycles"] += 50
        path.write_text(json.dumps(data))
        updated = update_baseline(
            path, runner=Runner(cache=ResultCache(tmp_path / "cache")))
        assert updated.name == "test"
        report = check_baseline(
            path, runner=Runner(cache=ResultCache(tmp_path / "cache")))
        assert report.ok(strict=True)

    def test_load_rejects_wrong_schema(self, tmp_path):
        _, _, path = self.pin(tmp_path)
        data = json.loads(path.read_text())
        data["schema"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(BaselineError, match="schema"):
            Baseline.load(path)

    def test_load_rejects_tampered_spec(self, tmp_path):
        _, _, path = self.pin(tmp_path)
        data = json.loads(path.read_text())
        data["cells"][0]["spec"]["seed"] = 12345
        path.write_text(json.dumps(data))
        with pytest.raises(BaselineError, match="hand-edited"):
            Baseline.load(path)

    def test_load_rejects_empty_and_invalid(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "schema": 1, "identity_schema": 1, "cells": []}))
        with pytest.raises(BaselineError, match="no cells"):
            Baseline.load(path)
        path.write_text("{torn")
        with pytest.raises(BaselineError, match="not valid JSON"):
            Baseline.load(path)

    def test_snapshot_rejects_holes(self):
        with pytest.raises(ValueError, match="no result"):
            snapshot_cells([tiny_spec()], [None])


class TestReferenceDiff:
    def test_fast_and_reference_agree(self):
        report = reference_diff(tiny_sweep().expand())
        assert report.counts["identical"] == 2
        assert report.exit_code(strict=True) == 0

    def test_kernel_divergence_is_flagged(self, monkeypatch):
        real = execute_spec

        def skewed(spec, reference=False):
            result = real(spec, reference=reference)
            if reference:
                result = type(result).from_dict(
                    {**result.to_dict(),
                     "cycles": result.cycles + 1})
            return result

        monkeypatch.setattr(runner_mod, "execute_spec", skewed)
        report = reference_diff([tiny_spec()])
        assert report.counts["changed"] == 1
        (cell,) = report.by_status("changed")
        assert "cycles" in {d.metric for d in cell.moved}

    def test_divergence_beyond_metric_vector_is_flagged(self,
                                                        monkeypatch):
        real = execute_spec

        def skewed_tail(spec, reference=False):
            result = real(spec, reference=reference)
            if reference:
                # Change a field the metric vector excludes, so only
                # the byte-equality pass can catch the divergence.
                data = result.to_dict()
                data["workload"] = data["workload"] + "-skewed"
                result = type(result).from_dict(data)
            return result

        monkeypatch.setattr(runner_mod, "execute_spec", skewed_tail)
        report = reference_diff([tiny_spec()])
        (cell,) = report.by_status("changed")
        assert "beyond the metric vector" in cell.note


class TestPerfGate:
    def report(self, eps: float) -> dict:
        return {"bench": "sim_kernel", "scale": "tiny",
                "workload": "tpcc", "transactions": 40, "cores": 4,
                "seed": 1013, "fast": {"events_per_s": eps}}

    def test_within_budget_passes(self):
        ok, message = check_regression(self.report(95.0),
                                       self.report(100.0))
        assert ok
        assert "within budget" in message

    def test_slowdown_beyond_budget_fails(self):
        ok, message = check_regression(self.report(80.0),
                                       self.report(100.0))
        assert not ok
        assert "exceeds budget" in message

    def test_speedup_always_passes(self):
        ok, _ = check_regression(self.report(200.0), self.report(100.0))
        assert ok

    def test_parameter_mismatch_fails_loudly(self):
        prior = self.report(100.0)
        prior["transactions"] = 80
        ok, message = check_regression(self.report(100.0), prior)
        assert not ok
        assert "not comparable" in message
        assert "transactions" in message

    def test_malformed_prior_fails(self):
        ok, message = check_regression(self.report(100.0),
                                       {k: v for k, v in
                                        self.report(100.0).items()
                                        if k != "fast"})
        assert not ok
        assert "re-baseline" in message

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="max_slowdown"):
            check_regression(self.report(1.0), self.report(1.0),
                             max_slowdown=0.0)


class TestAuditCli:
    GRID = ["--workloads", "tpcc", "--schedulers", "base", "strex",
            "--cores", "2", "--scales", "tiny", "--transactions", "4",
            "--seeds", "7"]

    def sweep_into(self, root) -> None:
        assert main(["sweep", *self.GRID,
                     "--cache-dir", str(root)]) == 0

    def test_diff_identical_runs_exits_zero(self, tmp_path, capsys):
        self.sweep_into(tmp_path / "a")
        self.sweep_into(tmp_path / "b")
        capsys.readouterr()
        code = main(["diff", str(tmp_path / "a"), str(tmp_path / "b")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 changed" in out
        assert "2 identical" in out

    def test_diff_perturbed_run_exits_nonzero_naming_cells(
            self, tmp_path, capsys):
        self.sweep_into(tmp_path / "a")
        self.sweep_into(tmp_path / "b")
        spec = tiny_spec(seed=7, mix_seed=7)
        perturb_entry(tmp_path / "b", spec_key(tiny_spec()))
        capsys.readouterr()
        code = main(["diff", str(tmp_path / "a"), str(tmp_path / "b")])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 changed" in out
        assert spec.describe() in out
        assert "cycles" in out

    def test_diff_json_is_machine_readable(self, tmp_path, capsys):
        self.sweep_into(tmp_path / "a")
        self.sweep_into(tmp_path / "b")
        perturb_entry(tmp_path / "b", spec_key(tiny_spec()))
        capsys.readouterr()
        code = main(["diff", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["counts"]["changed"] == 1
        changed = data["cells"][0]
        assert any(d["metric"] == "cycles" and not d["within"]
                   for d in changed["deltas"])

    def test_diff_strict_flags_grid_shrink(self, tmp_path, capsys):
        self.sweep_into(tmp_path / "a")
        assert main(["sweep", "--workloads", "tpcc", "--schedulers",
                     "base", "--cores", "2", "--scales", "tiny",
                     "--transactions", "4", "--seeds", "7",
                     "--cache-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        lax = main(["diff", str(tmp_path / "a"), str(tmp_path / "b")])
        strict = main(["diff", str(tmp_path / "a"),
                       str(tmp_path / "b"), "--strict"])
        assert (lax, strict) == (0, 1)
        assert "removed" in capsys.readouterr().out

    def test_diff_reference_mode(self, capsys):
        code = main(["diff", "--reference", *self.GRID])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 identical" in out

    def test_diff_reference_rejects_manifest_paths(self, tmp_path,
                                                   capsys):
        code = main(["diff", "--reference", str(tmp_path)])
        assert code == 2
        assert "grid flags" in capsys.readouterr().err

    def test_diff_requires_two_manifests(self, tmp_path, capsys):
        code = main(["diff", str(tmp_path)])
        assert code == 2
        assert "two manifests" in capsys.readouterr().err

    def test_baseline_pin_check_update_cycle(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["baseline", "pin", str(path), *self.GRID,
                     *cache]) == 0
        assert "pinned 2 cell(s)" in capsys.readouterr().out
        assert json.loads(path.read_text())["name"] == "baseline"

        assert main(["baseline", "check", str(path), *cache]) == 0
        assert "OK" in capsys.readouterr().out

        data = json.loads(path.read_text())
        data["cells"][0]["metrics"]["cycles"] += 50
        path.write_text(json.dumps(data))
        code = main(["baseline", "check", str(path), *cache])
        out = capsys.readouterr().out
        assert code == 1
        assert "DRIFT" in out
        assert "cycles" in out

        assert main(["baseline", "update", str(path), *cache]) == 0
        capsys.readouterr()
        assert main(["baseline", "check", str(path), *cache]) == 0

    def test_perf_check_without_prior_is_skipped(self, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["perf", "--scale", "tiny", "--transactions", "4",
                     "--repeats", "1", "--out", "fresh.json",
                     "--check", "missing.json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "nothing to gate" in out

    def test_perf_check_gates_against_prior(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["perf", "--scale", "tiny", "--transactions", "4",
                "--repeats", "1", "--out", "fresh.json"]
        assert main(args) == 0
        # An impossibly fast prior makes the fresh run a regression.
        prior = json.loads((tmp_path / "fresh.json").read_text())
        prior["fast"]["events_per_s"] = prior["fast"]["events_per_s"] \
            * 1000
        (tmp_path / "prior.json").write_text(json.dumps(prior))
        capsys.readouterr()
        code = main([*args, "--check", "prior.json"])
        out = capsys.readouterr().out
        assert code == 1
        assert "exceeds budget" in out


class TestDiffReportShape:
    def test_empty_report_is_ok(self):
        report = DiffReport()
        assert report.ok(strict=True)
        assert report.exit_code() == 0
        assert "0 cell(s)" in report.format_text()
