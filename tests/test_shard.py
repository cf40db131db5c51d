"""Cross-process sweep sharding: partition semantics, the
differential guarantee (sharded-and-merged == unsharded, to the byte),
and merge conflict detection.

The differential tests are the contract the whole feature rests on:
a sweep split into N hash-range shards, run in any order, and merged
back must produce a cache *byte-identical* to a single unsharded run,
with an equivalent manifest (every cell executed exactly once,
somewhere).  Everything here runs shards in-process via
:func:`repro.exp.run_shard`; the subprocess orchestrator (and its
crash recovery) is exercised in ``tests/test_exp_faults.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.exp import (
    Manifest,
    ResultCache,
    Runner,
    RunSpec,
    ShardMergeConflict,
    ShardSpec,
    SweepSpec,
    execute_spec,
    merge_caches,
    run_shard,
    shard_root,
    spec_key,
)

N = 3


def small_sweep() -> SweepSpec:
    return SweepSpec(
        workloads=("tpcc",),
        schedulers=("base", "strex"),
        cores=(1, 2),
        seeds=(7, 8),
        scales=("tiny",),
        transactions=4,
    )


def cache_blobs(root) -> dict:
    """key -> entry bytes for every entry under a cache root."""
    cache = ResultCache(root)
    return {key: cache.read_bytes(key) for key in cache.keys()}


@pytest.fixture(scope="module")
def unsharded(tmp_path_factory):
    """One unsharded reference run: (specs, keys, results, cache root)."""
    root = tmp_path_factory.mktemp("unsharded")
    specs = small_sweep().expand()
    runner = Runner(cache=ResultCache(root))
    results = runner.run(specs)
    return specs, [spec_key(s) for s in specs], results, root


class TestShardSpec:
    def test_parse_round_trips(self):
        shard = ShardSpec.parse("1/3")
        assert (shard.index, shard.count) == (1, 3)
        assert str(shard) == "1/3"
        assert ShardSpec.parse(str(shard)) == shard

    @pytest.mark.parametrize("text", ["", "3", "1:3", "3/3", "-1/3",
                                      "a/b", "1/0", "1/"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_identity_shard_selects_everything(self):
        assert ShardSpec(0, 1).selects("ff")
        assert ShardSpec.assign("ff", 1) == 0

    def test_selects_matches_assign(self):
        key = "ab" * 32
        owners = [i for i in range(5) if ShardSpec(i, 5).selects(key)]
        assert owners == [ShardSpec.assign(key, 5)]


class TestPartition:
    def test_runner_shard_skips_unowned_misses(self, tmp_path,
                                               unsharded):
        specs, keys, _, _ = unsharded
        shard = ShardSpec(0, N)
        runner = Runner(cache=ResultCache(tmp_path), shard=shard)
        results = runner.run(specs)
        for key, result in zip(keys, results):
            assert (result is not None) == shard.selects(key)
        assert runner.skipped == \
            sum(1 for key in keys if not shard.selects(key))

    def test_runner_shard_still_serves_cached_cells(self, tmp_path,
                                                    unsharded):
        """Sharding partitions computation, not reads: against a full
        cache, a sharded runner returns the whole grid."""
        specs, _, results, root = unsharded
        runner = Runner(cache=ResultCache(root), shard=ShardSpec(0, N),
                        manifest=Manifest(tmp_path / "hits.jsonl"))
        assert runner.run(specs) == results
        assert runner.skipped == 0
        assert runner.misses == 0


class TestDifferential:
    """N=1, N=3 merged, and N=3 in shuffled order are byte-identical."""

    def run_shards(self, specs, tmp_path, order):
        roots = {}
        for index in order:
            shard = ShardSpec(index, N)
            roots[index] = tmp_path / f"private-{index}"
            run_shard(specs, shard, roots[index])
        return roots

    def merge_all(self, tmp_path, roots, order, name):
        dest = tmp_path / name
        merge_caches(dest, [roots[i] for i in order])
        return dest

    def test_merged_shards_equal_unsharded_run(self, tmp_path,
                                               unsharded):
        specs, keys, results, reference = unsharded
        roots = self.run_shards(specs, tmp_path, order=range(N))
        merged = self.merge_all(tmp_path, roots, range(N), "merged")

        reference_blobs = cache_blobs(reference)
        assert set(reference_blobs) == set(keys)
        assert cache_blobs(merged) == reference_blobs

        # The identity shard reproduces the same bytes too.
        solo = tmp_path / "solo"
        run_shard(specs, ShardSpec(0, 1), solo)
        assert cache_blobs(solo) == reference_blobs

    def test_shuffled_shard_and_merge_order(self, tmp_path, unsharded):
        specs, _, _, reference = unsharded
        roots = self.run_shards(specs, tmp_path, order=[2, 0, 1])
        merged = self.merge_all(tmp_path, roots, [1, 2, 0], "merged")
        assert cache_blobs(merged) == cache_blobs(reference)

    def test_merged_results_equal_unsharded_results(self, tmp_path,
                                                    unsharded):
        specs, _, results, _ = unsharded
        roots = self.run_shards(specs, tmp_path, order=range(N))
        merged = self.merge_all(tmp_path, roots, range(N), "merged")
        served = Runner(cache=ResultCache(merged)).run(specs)
        assert served == results

    def test_manifests_are_equivalent(self, tmp_path, unsharded):
        """Across all shard manifests: every cell executed exactly
        once, with the same spec payloads as the unsharded manifest,
        each row labeled with its shard."""
        specs, keys, _, reference = unsharded
        roots = self.run_shards(specs, tmp_path, order=range(N))
        sharded_rows = []
        for index, root in roots.items():
            rows = Manifest(root / "manifest.jsonl").read()
            assert all(row.shard == f"{index}/{N}" for row in rows)
            sharded_rows += rows
        reference_rows = [
            row for row in
            Manifest(reference / "manifest.jsonl").read()
            if not row.hit]
        assert sorted(row.key for row in sharded_rows) == \
            sorted(row.key for row in reference_rows) == sorted(keys)
        assert all(not row.hit for row in sharded_rows)
        by_key = {row.key: row.spec for row in sharded_rows}
        for row in reference_rows:
            assert by_key[row.key] == row.spec


class TestMergeConflicts:
    def seeded_shard_dirs(self, tmp_path):
        """Two shard dirs holding the same key; the second's payload is
        corrupted to a *valid but different* entry."""
        spec = RunSpec(workload="tpcc", cores=1, transactions=2,
                       seed=3, scale="tiny")
        key = spec_key(spec)
        dir_a, dir_b = tmp_path / "shard-a", tmp_path / "shard-b"
        ResultCache(dir_a).put(key, execute_spec(spec), spec)
        entry = json.loads(ResultCache(dir_a).read_bytes(key))
        entry["result"]["cycles"] += 1
        path_b = ResultCache(dir_b).path_for(key)
        path_b.parent.mkdir(parents=True)
        path_b.write_text(json.dumps(entry, sort_keys=True))
        return key, dir_a, dir_b

    def test_conflict_is_a_hard_error_citing_both_shards(self,
                                                         tmp_path):
        key, dir_a, dir_b = self.seeded_shard_dirs(tmp_path)
        dest = tmp_path / "merged"
        with pytest.raises(ShardMergeConflict) as excinfo:
            merge_caches(dest, [dir_a, dir_b])
        message = str(excinfo.value)
        assert key in message
        assert str(ResultCache(dir_a).path_for(key)) in message
        assert str(ResultCache(dir_b).path_for(key)) in message

    def test_no_silent_last_writer_wins(self, tmp_path):
        """The conflicting copy must not replace the merged one."""
        key, dir_a, dir_b = self.seeded_shard_dirs(tmp_path)
        dest = tmp_path / "merged"
        with pytest.raises(ShardMergeConflict):
            merge_caches(dest, [dir_a, dir_b])
        assert ResultCache(dest).read_bytes(key) == \
            ResultCache(dir_a).read_bytes(key)

    def test_conflict_against_preexisting_dest_entry(self, tmp_path):
        key, dir_a, dir_b = self.seeded_shard_dirs(tmp_path)
        dest = tmp_path / "merged"
        merge_caches(dest, [dir_a])
        with pytest.raises(ShardMergeConflict) as excinfo:
            merge_caches(dest, [dir_b])
        assert str(ResultCache(dest).path_for(key)) in \
            str(excinfo.value)

    def test_identical_copies_merge_cleanly(self, tmp_path):
        key, dir_a, _ = self.seeded_shard_dirs(tmp_path)
        dest = tmp_path / "merged"
        report = merge_caches(dest, [dir_a, dir_a])
        assert (report.added, report.identical) == (1, 1)
        assert ResultCache(dest).read_bytes(key) == \
            ResultCache(dir_a).read_bytes(key)

    def test_torn_source_entry_is_skipped_not_merged(self, tmp_path):
        key, dir_a, _ = self.seeded_shard_dirs(tmp_path)
        torn = tmp_path / "torn"
        path = ResultCache(torn).path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(ResultCache(dir_a).read_bytes(key)[:30])
        dest = tmp_path / "merged"
        report = merge_caches(dest, [torn, dir_a])
        assert (report.added, report.corrupt) == (1, 1)
        assert ResultCache(dest).read_bytes(key) == \
            ResultCache(dir_a).read_bytes(key)

    def test_torn_dest_entry_is_healed_from_shard(self, tmp_path):
        """A truncated *destination* entry (a merge killed mid-write)
        is a local miss: the shard's valid copy replaces it instead
        of raising a conflict."""
        key, dir_a, _ = self.seeded_shard_dirs(tmp_path)
        dest = tmp_path / "merged"
        blob = ResultCache(dir_a).read_bytes(key)
        dest_path = ResultCache(dest).path_for(key)
        dest_path.parent.mkdir(parents=True)
        dest_path.write_bytes(blob[:30])
        report = merge_caches(dest, [dir_a])
        assert (report.added, report.corrupt) == (1, 0)
        assert ResultCache(dest).read_bytes(key) == blob

    def test_wrong_schema_source_entry_counts_corrupt(self,
                                                      tmp_path):
        """Valid JSON that is not a current-schema entry (a schema
        bump left behind by an old shard) is corrupt, not mergeable —
        and never a conflict against the current-schema copy."""
        key, dir_a, _ = self.seeded_shard_dirs(tmp_path)
        entry = json.loads(ResultCache(dir_a).read_bytes(key))
        entry["schema"] = -1
        stale = tmp_path / "stale"
        path = ResultCache(stale).path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry, sort_keys=True))
        dest = tmp_path / "merged"
        report = merge_caches(dest, [stale, dir_a])
        assert (report.added, report.corrupt) == (1, 1)
        assert ResultCache(dest).read_bytes(key) == \
            ResultCache(dir_a).read_bytes(key)

    def test_spec_spelling_difference_is_not_a_conflict(self,
                                                        tmp_path):
        """Two specs can address one key (a default value spelled
        out); only result content decides a conflict."""
        key, dir_a, _ = self.seeded_shard_dirs(tmp_path)
        entry = json.loads(ResultCache(dir_a).read_bytes(key))
        entry["spec"]["team_size"] = None  # same key, other spelling
        respelled = tmp_path / "respelled"
        path = ResultCache(respelled).path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry, sort_keys=True))
        dest = tmp_path / "merged"
        report = merge_caches(dest, [dir_a, respelled])
        assert (report.added, report.identical) == (1, 1)

    def test_put_bytes_rejects_foreign_blobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put_bytes("0" * 64, b'{"schema": 0}')
        with pytest.raises(ValueError):
            cache.put_bytes("0" * 64, b'not json')


class TestMergeEdgeCases:
    """Degenerate shard shapes the orchestrator produces routinely:
    a shard killed before its first write (empty or missing root) and
    a shard whose hash range happens to own zero cells of the grid.
    All must merge as clean no-ops, never as errors."""

    def test_empty_shard_directory_is_a_clean_noop(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        report = merge_caches(tmp_path / "merged", [empty])
        assert (report.sources, report.added) == (1, 0)
        assert len(ResultCache(tmp_path / "merged")) == 0

    def test_missing_shard_root_is_a_clean_noop(self, tmp_path):
        report = merge_caches(tmp_path / "merged",
                              [tmp_path / "never-created"])
        assert (report.sources, report.added) == (1, 0)

    def test_empty_sources_mixed_with_real_ones(self, tmp_path):
        spec = RunSpec(workload="tpcc", scheduler="base", cores=1,
                       transactions=4, seed=7, scale="tiny")
        real = tmp_path / "real"
        ResultCache(real).put(spec_key(spec), execute_spec(spec), spec)
        empty = tmp_path / "empty"
        empty.mkdir()
        report = merge_caches(
            tmp_path / "merged",
            [empty, real, tmp_path / "missing"])
        assert (report.sources, report.added) == (3, 1)
        assert ResultCache(tmp_path / "merged").read_bytes(
            spec_key(spec)) == ResultCache(real).read_bytes(
            spec_key(spec))

    def test_shard_owning_zero_cells_merges_cleanly(self, tmp_path):
        """A 1-cell sweep split N ways leaves N-1 shards with nothing
        to do; their (manifest-only) roots must still merge."""
        spec = RunSpec(workload="tpcc", scheduler="base", cores=1,
                       transactions=4, seed=7, scale="tiny")
        owner = ShardSpec.assign(spec_key(spec), N)
        idle_index = next(i for i in range(N) if i != owner)
        shard = ShardSpec(index=idle_index, count=N)
        root = tmp_path / "idle"
        run = run_shard([spec], shard, root)
        assert run.selected == 0
        assert run.results == [None]
        report = merge_caches(tmp_path / "merged", [root])
        assert report.added == 0
        assert len(ResultCache(tmp_path / "merged")) == 0


class TestCrossProcessDeterminism:
    def test_results_do_not_depend_on_hash_randomization(self,
                                                         tmp_path):
        """Shards on different machines share nothing but code, so a
        cell's bytes must not depend on per-process state — notably
        PYTHONHASHSEED, which randomizes ``hash(str)``.  (Regression:
        the lock manager once bucketed by ``hash((name, key))``,
        making data-block streams differ across processes and merges
        conflict spuriously.)"""
        program = (
            "from repro.exp import ResultCache, RunSpec, "
            "execute_spec, spec_key\n"
            "import sys\n"
            "spec = RunSpec(workload='tpce', scheduler='slicc', "
            "cores=4, transactions=6, seed=3, scale='tiny')\n"
            "ResultCache(sys.argv[1]).put(spec_key(spec), "
            "execute_spec(spec), spec)\n"
        )
        blobs = []
        for hash_seed in ("1", "2"):
            root = tmp_path / f"seed-{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            subprocess.run([sys.executable, "-c", program, str(root)],
                           check=True, env=env)
            blobs.append(cache_blobs(root))
        assert blobs[0] == blobs[1]
        assert len(blobs[0]) == 1


class TestShardRootLayout:
    def test_private_roots_are_invisible_to_the_shared_cache(
            self, tmp_path):
        """Shard dirs nest under <cache>/shards/ one level too deep
        for the shared cache's ``<hex2>/<key>.json`` glob."""
        spec = RunSpec(workload="tpcc", cores=1, transactions=2,
                       seed=3, scale="tiny")
        shard = ShardSpec(0, 1)
        root = shard_root(tmp_path, shard)
        assert root == tmp_path / "shards" / "0-of-1"
        run_shard([spec], shard, root)
        assert ResultCache(tmp_path).keys() == []
        assert ResultCache(root).keys() == [spec_key(spec)]
