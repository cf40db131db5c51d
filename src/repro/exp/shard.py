"""Cross-process sweep sharding: partition, run, merge.

The :class:`~repro.exp.runner.Runner` parallelizes within one process
pool; this module scales a sweep *across* processes and machines.  The
design has one load-bearing idea: a sweep is partitioned by hash-range
of its content-addressed cache keys (see
:class:`~repro.exp.spec.ShardSpec`), so every executor derives the
same partition independently and the cache directory is the only merge
point.  Two layers build on it:

* :func:`run_shard` — execute one shard of a spec list into a
  *private* cache/manifest directory (what ``repro shard --shard i/N``
  runs, on this machine or any other, e.g. one CI matrix job each);
* :func:`merge_caches` — union shard caches into a destination cache
  by copying entry bytes verbatim, refusing loudly on a conflict
  (same key, different payload ⇒ :class:`ShardMergeConflict` citing
  both copies) — never last-writer-wins.

A local grid needs neither: ``repro sweep --jobs N`` runs it in
parallel into the shared cache directly.

Determinism makes the merge safe: the simulator is a pure function of
the spec, serialization is canonical, so two shards can only disagree
about a key if their code or environment diverged — exactly the
condition a conflict error should surface instead of papering over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.exp.cache import ResultCache, spec_key
from repro.exp.manifest import Manifest
from repro.exp.runner import Runner
from repro.exp.spec import RunSpec, ShardSpec, SweepSpec


class ShardMergeConflict(RuntimeError):
    """Two caches hold different payloads for the same key.

    Raised by :func:`merge_caches` instead of picking a winner: the
    cache is content-addressed, so a conflict means the 'content'
    (simulator code, environment, or determinism) diverged between the
    executors and every cell they produced is suspect.

    Attributes:
        key: the conflicting cache key.
        ours: path of the copy already merged (or pre-existing in the
            destination).
        theirs: path of the conflicting shard copy.
    """

    def __init__(self, key: str, ours: Path, theirs: Path):
        super().__init__(
            f"merge conflict for cache key {key}: {ours} and {theirs} "
            f"hold different payloads for the same content-addressed "
            f"key; refusing to merge.  The simulator is deterministic, "
            f"so the shards' code or environment diverged — re-run the "
            f"affected shard(s) at one version."
        )
        self.key = key
        self.ours = Path(ours)
        self.theirs = Path(theirs)


def shard_root(cache_dir: Union[Path, str], shard: ShardSpec) -> Path:
    """The conventional private cache directory of one shard.

    Lives *under* the shared cache directory (``shards/<i>-of-<N>``)
    so everything about a sweep stays in one tree, but nested one
    level deeper than the ``<hex2>/<key>.json`` layout so the shared
    cache never globs shard-private entries by accident.
    """
    return Path(cache_dir) / "shards" / f"{shard.index}-of-{shard.count}"


def partition(specs: Sequence[RunSpec], count: int
              ) -> Tuple[List[str], Dict[int, List[int]]]:
    """Keys and the shard partition of a spec list.

    Returns ``(keys, by_shard)`` where ``keys`` aligns with ``specs``
    and ``by_shard[i]`` lists the spec indices shard ``i`` owns.  Every
    index lands in exactly one shard (the partition property
    ``tests/test_properties.py`` pins).
    """
    keys = [spec_key(spec) for spec in specs]
    by_shard: Dict[int, List[int]] = {i: [] for i in range(count)}
    for idx, key in enumerate(keys):
        by_shard[ShardSpec.assign(key, count)].append(idx)
    return keys, by_shard


# ---------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------

@dataclass
class MergeReport:
    """What :func:`merge_caches` did.

    Attributes:
        added: entries copied into the destination.
        identical: entries skipped because the destination already held
            an equal payload (byte-identical, or differing only in the
            debug ``spec`` field two spellings of one key can carry).
        corrupt: source entries skipped because they do not parse as
            valid current-schema entries (a shard killed mid-write
            leaves none thanks to atomic writes, but a torn copy is a
            local cache miss and must stay one here).
        sources: shard directories examined.
    """

    added: int = 0
    identical: int = 0
    corrupt: int = 0
    sources: int = 0

    def describe(self) -> str:
        return (f"merged {self.added} entr(ies) from {self.sources} "
                f"shard cache(s); {self.identical} already present, "
                f"{self.corrupt} corrupt source entr(ies) skipped")


def _parse_entry(blob: bytes, key: str) -> Optional[dict]:
    """The decoded entry, or ``None`` if it is not a valid entry for
    ``key`` under the current schema."""
    from repro.exp.cache import CACHE_SCHEMA, RESULT_TYPES

    try:
        data = json.loads(blob.decode())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    if data.get("schema") != CACHE_SCHEMA or data.get("key") != key:
        return None
    if data.get("result_type", "RunResult") not in RESULT_TYPES:
        return None
    if "result" not in data:
        return None
    return data


def _same_result(ours: dict, theirs: dict) -> bool:
    """Whether two valid entries carry the same result content.

    Two *different specs* can address one key (e.g. an override
    spelling out a default value), so the debug ``spec`` field may
    differ while the content agrees; only ``result_type`` + ``result``
    decide a conflict.
    """
    return (ours.get("result_type"), ours.get("result")) == \
        (theirs.get("result_type"), theirs.get("result"))


def merge_caches(dest: Union[ResultCache, Path, str],
                 sources: Iterable[Union[Path, str]]) -> MergeReport:
    """Union shard caches into ``dest``, byte-for-byte, conflict-safe.

    Entries are copied verbatim (:meth:`ResultCache.read_bytes` →
    :meth:`ResultCache.put_bytes`), so a merged cache is byte-identical
    to one an unsharded run would have produced.  A key present on
    both sides with *different result content* raises
    :class:`ShardMergeConflict` naming both copies — by design there
    is no way to silently prefer either.
    """
    if not isinstance(dest, ResultCache):
        dest = ResultCache(dest)
    report = MergeReport()
    merged_from: Dict[str, Path] = {}
    with obs.span("shard.merge", dest=str(dest.root)) as span:
        for source_root in sources:
            source = ResultCache(source_root)
            report.sources += 1
            for key in source.keys():
                blob = source.read_bytes(key)
                entry = _parse_entry(blob, key)
                if entry is None:
                    report.corrupt += 1
                    continue
                dest_path = dest.path_for(key)
                if dest_path.exists():
                    current = dest_path.read_bytes()
                    if current == blob:
                        report.identical += 1
                        continue
                    existing = _parse_entry(current, key)
                    if existing is None:
                        # Torn destination entry: a local miss, safe to
                        # heal with the shard's valid copy.
                        dest.put_bytes(key, blob)
                        merged_from[key] = source.path_for(key)
                        report.added += 1
                        continue
                    if _same_result(existing, entry):
                        report.identical += 1
                        continue
                    raise ShardMergeConflict(
                        key, merged_from.get(key, dest_path),
                        source.path_for(key))
                dest.put_bytes(key, blob)
                merged_from[key] = source.path_for(key)
                report.added += 1
        if span.armed:
            span.add("sources", report.sources)
            span.add("added", report.added)
            span.add("identical", report.identical)
            span.add("corrupt", report.corrupt)
    return report


# ---------------------------------------------------------------------
# One shard
# ---------------------------------------------------------------------

@dataclass
class ShardRun:
    """Outcome of :func:`run_shard`.

    ``results`` aligns positionally with the spec list that was passed
    in; cells the shard does not own are ``None`` holes.
    """

    shard: ShardSpec
    root: Path
    results: List[Optional[object]]
    hits: int
    misses: int
    skipped: int

    @property
    def selected(self) -> int:
        return self.hits + self.misses


def run_shard(specs: Union[SweepSpec, Sequence[RunSpec]],
              shard: ShardSpec,
              root: Union[Path, str],
              jobs: int = 1,
              timeout: Optional[float] = None,
              retries: int = 2) -> ShardRun:
    """Execute one shard of ``specs`` into a private cache at ``root``.

    The private directory gets its own ``manifest.jsonl`` whose rows
    carry the shard label; completed cells persist there across
    crashes, which is what lets a relaunch skip straight to the
    missing keys.  Merge the directory back with :func:`merge_caches`
    (or ``repro shard --merge``).
    """
    root = Path(root)
    cache = ResultCache(root)
    manifest = Manifest(root / "manifest.jsonl")
    with obs.span("shard", shard=str(shard), root=str(root)) as span:
        runner = Runner(jobs=jobs, cache=cache, manifest=manifest,
                        timeout=timeout, retries=retries, shard=shard)
        results = runner.run(specs)
        if span.armed:
            span.add("hits", runner.hits)
            span.add("misses", runner.misses)
            span.add("skipped", runner.skipped)
    return ShardRun(shard=shard, root=root, results=results,
                    hits=runner.hits, misses=runner.misses,
                    skipped=runner.skipped)
