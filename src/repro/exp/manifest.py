"""Append-only run manifest (JSONL).

One line per completed run, recording the spec, its cache key, whether
it was served from cache, wall time, which worker process executed it,
and how many attempts it took.  The manifest is the audit trail of a
sweep: ``benchmarks/out/.cache/manifest.jsonl`` answers "what did we
run, where did the time go, and what hit the cache".

Writes are a single ``write()`` of one ``\\n``-terminated line on a
file opened in append mode, which POSIX keeps intact for lines well
under ``PIPE_BUF`` — concurrent benchmark processes can share one
manifest without interleaving partial lines.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest row.

    ``ts`` (epoch seconds) and ``sweep`` (an opaque per-:meth:`run`
    identifier) were added for retention: ``--since`` filters on the
    former, ``--keep-last`` groups rows by the latter.  Rows written by
    older versions carry neither and are treated as the oldest.

    ``shard`` records which hash-range slice of a sweep executed the
    row (the ``"i/N"`` spelling of a
    :class:`~repro.exp.spec.ShardSpec`); unsharded runs leave it
    ``None``.
    """

    key: str
    spec: dict
    hit: bool
    wall_s: float
    worker: Optional[int] = None
    attempts: int = 1
    ts: Optional[float] = None
    sweep: Optional[str] = None
    shard: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ManifestEntry":
        return cls(**json.loads(line))


class Manifest:
    """Appends :class:`ManifestEntry` rows to a JSONL file."""

    def __init__(self, path: Path | str):
        self.path = Path(path)

    def record(self, entry: ManifestEntry) -> None:
        """Append one row (creates parent directories on first use)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(entry.to_json() + "\n")

    def read(self) -> List[ManifestEntry]:
        """All rows recorded so far (empty if the file doesn't exist).

        A trailing partial line (killed writer) is skipped rather than
        raised on.
        """
        if not self.path.exists():
            return []
        entries = []
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(ManifestEntry.from_json(line))
            except (json.JSONDecodeError, TypeError):
                continue
        return entries

    def compact(self, keep_last: int) -> Tuple[int, int]:
        """Keep only the rows of the last ``keep_last`` sweeps.

        Rows are grouped by their ``sweep`` id; groups are ordered by
        each group's latest timestamp (rows without ``ts``/``sweep`` —
        written before retention existed — form one group that sorts
        oldest).  The file is rewritten atomically via a temp file in
        the same directory.

        Returns:
            ``(kept, dropped)`` row counts.
        """
        if keep_last <= 0:
            raise ValueError("keep_last must be positive")
        entries = self.read()
        if not entries:
            return (0, 0)
        latest: Dict[Optional[str], float] = {}
        for entry in entries:
            ts = entry.ts if entry.ts is not None else float("-inf")
            group = entry.sweep
            if group not in latest or ts > latest[group]:
                latest[group] = ts
        keep = set(sorted(latest, key=lambda g: latest[g])[-keep_last:])
        kept = [e for e in entries if e.sweep in keep]
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            for entry in kept:
                handle.write(entry.to_json() + "\n")
        tmp.replace(self.path)
        return (len(kept), len(entries) - len(kept))


def _entry_label(entry: ManifestEntry) -> str:
    """A human-readable label for an entry's spec.

    Manifest rows are self-describing dicts; rows written by older
    versions (missing fields) still label fine, and rows that no
    longer parse as specs fall back to their raw workload/scheduler.
    """
    from repro.exp.spec import RunSpec

    try:
        return RunSpec.from_dict(entry.spec).describe()
    except (TypeError, ValueError):
        workload = entry.spec.get("workload", "?")
        scheduler = entry.spec.get("scheduler", "?")
        return f"{workload}/{scheduler}"


@dataclass
class ManifestSummary:
    """Aggregates over a set of manifest rows (see ``repro manifest``).

    Attributes:
        runs: total rows.
        hits: rows served from cache.
        misses: rows that executed.
        wall_s: total executed wall seconds (hits cost ~0).
        saved_s: wall seconds the cache saved — each hit credited with
            the mean executed wall time of its key (0 when the key
            never executed inside this manifest).
        retried: rows that needed more than one attempt.
        groups: ``(workload, scheduler) -> {runs, hits, misses,
            wall_s}`` aggregates.
        slowest: the top-N executed rows as ``(wall_s, label, key)``,
            slowest first.
    """

    runs: int = 0
    hits: int = 0
    misses: int = 0
    wall_s: float = 0.0
    saved_s: float = 0.0
    retried: int = 0
    groups: Dict[Tuple[str, str], Dict[str, float]] = \
        field(default_factory=dict)
    slowest: List[Tuple[float, str, str]] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        """Fraction of rows served from cache (0.0 when empty)."""
        if self.runs == 0:
            return 0.0
        return self.hits / self.runs

    def to_dict(self) -> dict:
        """JSON form (``repro manifest --json``), for CI assertions."""
        return {
            "runs": self.runs,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "wall_s": round(self.wall_s, 6),
            "saved_s": round(self.saved_s, 6),
            "retried": self.retried,
            "groups": [
                {"workload": workload, "scheduler": scheduler,
                 **{k: (round(v, 6) if isinstance(v, float) else v)
                    for k, v in stats.items()}}
                for (workload, scheduler), stats in
                sorted(self.groups.items())
            ],
            "slowest": [
                {"wall_s": round(wall, 6), "spec": label, "key": key}
                for wall, label, key in self.slowest
            ],
        }


def summarize_entries(entries: Sequence[ManifestEntry],
                      top: int = 10) -> ManifestSummary:
    """Aggregate manifest rows into a :class:`ManifestSummary`.

    Answers the three questions the manifest exists for: what's the
    cache hit rate, where does the wall time go (by workload ×
    scheduler), and which cells are the expensive ones.
    """
    summary = ManifestSummary()
    executed: List[ManifestEntry] = []
    wall_by_key: Dict[str, List[float]] = {}
    for entry in entries:
        summary.runs += 1
        workload = entry.spec.get("workload", "?")
        scheduler = entry.spec.get("scheduler", "?")
        group = summary.groups.setdefault(
            (workload, scheduler),
            {"runs": 0, "hits": 0, "misses": 0, "wall_s": 0.0})
        group["runs"] += 1
        if entry.hit:
            summary.hits += 1
            group["hits"] += 1
        else:
            summary.misses += 1
            group["misses"] += 1
            summary.wall_s += entry.wall_s
            group["wall_s"] += entry.wall_s
            executed.append(entry)
            wall_by_key.setdefault(entry.key, []).append(entry.wall_s)
        if entry.attempts > 1:
            summary.retried += 1
    for entry in entries:
        if entry.hit and entry.key in wall_by_key:
            walls = wall_by_key[entry.key]
            summary.saved_s += sum(walls) / len(walls)
    executed.sort(key=lambda e: e.wall_s, reverse=True)
    summary.slowest = [
        (entry.wall_s, _entry_label(entry), entry.key)
        for entry in executed[:max(0, top)]
    ]
    return summary
