"""Content-addressed result cache.

Every run is keyed by a SHA-256 over the *content* that determines its
outcome: the serialized :class:`~repro.config.SystemConfig`, the
workload name and generation parameters, the scheduler / prefetcher /
team-size triple, and a fingerprint of the ``repro`` package source.

Determinism guarantee: the simulator is a pure function of
(config, workload params, scheduler, prefetcher, team_size, seeds) —
every stochastic choice flows from seeded RNGs held in the spec (see
DESIGN.md, decision 3).  Two expansions of the same
:class:`~repro.exp.spec.SweepSpec` therefore map to the same keys and
bit-identical :class:`~repro.sim.results.RunResult` payloads, which is
what makes re-running a sweep near-free (100% cache hits).

The source fingerprint folds a hash of every ``.py`` file under the
installed ``repro`` package into the key, so editing the simulator
invalidates stale results instead of silently replaying them.

Entries are one JSON file per key, sharded by the first two hex digits
(``<root>/ab/abcd....json``), written atomically (temp file +
``os.replace``) so parallel workers and killed runs can never leave a
truncated entry; a torn or corrupt entry is treated as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

import repro
from repro.analysis.overlap import OverlapResult
from repro.core.fptable import FootprintResult
from repro.sim.results import RunResult
from repro.exp.spec import RunSpec

#: Bump when the key schema or result schema changes shape.
CACHE_SCHEMA = 2

#: Bump when the *identity* payload (see :func:`spec_identity`)
#: changes shape.  Deliberately independent of :data:`CACHE_SCHEMA`:
#: identities must stay comparable across cache-schema bumps or every
#: schema change would de-align every audit diff.
IDENTITY_SCHEMA = 1

#: Serializable result classes by name.  Every experiment mode's
#: result type round-trips bit-identically through
#: ``to_dict``/``from_dict``; the entry payload records which class to
#: rebuild.  Entries naming an unknown type read as a miss.
RESULT_TYPES = {
    "RunResult": RunResult,
    "OverlapResult": OverlapResult,
    "FootprintResult": FootprintResult,
}

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of the ``repro`` package source (memoized per process).

    Covers file *contents and relative paths* of every ``.py`` file
    under the package directory, so any simulator edit — including
    adding or deleting a module — changes every cache key.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def spec_key(spec: RunSpec) -> str:
    """The content-addressed cache key of one run.

    Stable across processes and platforms: the payload is canonical
    JSON (sorted keys, no whitespace) over plain dicts, hashed with
    SHA-256.  Note the *expanded* config is hashed, not the scale
    name — two scale presets that resolve to identical systems share
    cache entries.  Config overrides (``strex_overrides`` etc.) enter
    the key the same way: they are applied by ``build_config`` before
    hashing, so an override spelling out a default value addresses the
    same content as no override at all.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "code": code_fingerprint(),
        "config": spec.build_config().to_dict(),
        "workload": spec.workload,
        "transactions": spec.transactions,
        "seed": spec.seed,
        "mix_seed": spec.effective_mix_seed(),
        "scheduler": spec.scheduler,
        "prefetcher": spec.prefetcher,
        "team_size": spec.team_size,
        "mode": spec.mode,
        "txn_type": spec.txn_type,
        "replicas": spec.replicas,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_identity(spec: RunSpec) -> str:
    """The version-independent *identity* of a cell (the audit layer,
    :mod:`repro.exp.diff` and :mod:`repro.exp.baseline`).

    Two runs of "the same experiment" under different simulator
    versions have different cache keys (the key folds in the source
    fingerprint, and the expanded config if a default moved) but the
    same identity.  The identity therefore hashes the spec's *own
    fields* — workload, scheduler, prefetcher, cores, seeds, scale
    name, mode, overrides — never the code fingerprint and never the
    materialized config: a simulator change (even one that shifts a
    config default) keeps the cell aligned so the resulting metric
    drift is reported as *changed* rather than as an added/removed
    pair (DESIGN.md, decision 14).

    ``mix_seed`` is normalized to its effective value so the two
    spellings of "mix seed defaults to seed" share an identity, the
    same way they share a cache key.
    """
    payload = spec.to_dict()
    payload["mix_seed"] = spec.effective_mix_seed()
    blob = json.dumps({"identity": IDENTITY_SCHEMA, "spec": payload},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Disk cache of serialized :class:`RunResult`s under ``root``."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Sharded entry path for a key."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str):
        """The cached result for ``key``, or ``None`` on a miss.

        A corrupt or schema-incompatible entry (truncated JSON, empty
        file, wrong schema version, unknown result type, unexpected
        result fields) is removed and treated as a miss rather than
        poisoning the run.
        """
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            if data["schema"] != CACHE_SCHEMA:
                raise ValueError(f"schema {data['schema']!r}")
            result_cls = RESULT_TYPES[data.get("result_type",
                                               "RunResult")]
            return result_cls.from_dict(data["result"])
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, result,
            spec: Optional[RunSpec] = None) -> Path:
        """Atomically store ``result`` under ``key``.

        ``result`` may be any registered result type (see
        :data:`RESULT_TYPES`).  The spec is stored alongside it for
        debuggability (entries are self-describing), but only the key
        is ever used for lookup.
        """
        result_type = type(result).__name__
        if result_type not in RESULT_TYPES:
            raise TypeError(
                f"unregistered result type {result_type!r}; "
                f"choose from {sorted(RESULT_TYPES)}"
            )
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "spec": spec.to_dict() if spec is not None else None,
            "result_type": result_type,
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def keys(self) -> list:
        """All entry keys currently on disk, sorted.

        Only files in the two-level ``<hex2>/<key>.json`` layout count;
        anything nested deeper (e.g. the per-shard caches an
        orchestrated run keeps under ``<root>/shards/``) is invisible
        to the parent cache.
        """
        if not self.root.exists():
            return []
        return sorted(path.stem for path in self.root.glob("*/*.json"))

    def read_bytes(self, key: str) -> bytes:
        """The raw serialized entry for ``key`` (``FileNotFoundError``
        on a miss).  Shard merges compare and copy these bytes verbatim
        so merged entries stay bit-identical to their producers'."""
        return self.path_for(key).read_bytes()

    def put_bytes(self, key: str, blob: bytes) -> Path:
        """Atomically store an already-serialized entry verbatim.

        This is the merge half of :meth:`read_bytes`: shard caches are
        unioned by copying entry bytes, never by re-serializing, so a
        merged cache is byte-identical to one produced by a single
        unsharded run.  The blob must parse as a current-schema entry
        for ``key``; anything else raises ``ValueError`` rather than
        planting a poisoned entry.
        """
        data = json.loads(blob.decode())
        if data.get("schema") != CACHE_SCHEMA:
            raise ValueError(
                f"entry schema {data.get('schema')!r} != {CACHE_SCHEMA}"
            )
        if data.get("key") != key:
            raise ValueError(
                f"entry is keyed {data.get('key')!r}, not {key!r}"
            )
        if data.get("result_type", "RunResult") not in RESULT_TYPES:
            raise ValueError(
                f"unregistered result type {data.get('result_type')!r}"
            )
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
