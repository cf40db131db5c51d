"""Arithmetic shared by the benchmark, its comparison tool and tests.

Nothing here imports ``repro``: these helpers read only plain numbers,
dicts and span records, so ``compare.py`` works on result files alone.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def digest(payload: dict) -> str:
    """SHA-256 of a result's canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def p50(values: Sequence[float]) -> float:
    """Nearest-rank median: the ``ceil(n / 2)``-th smallest sample, so
    it is a measured value and agrees with :func:`tail` at 20 samples."""
    return sorted(values)[(len(values) + 1) // 2 - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that has at
    least :data:`TAIL_BEYOND` samples above it.

    With ``n`` samples that is the ``n - 10``-th smallest, so p50 for
    20 samples and about p90 for 99.  Below 21 samples no percentile
    above the median qualifies, and the median is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / n


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Each span's duration minus the time its child spans cover.

    A span record has ``id``, ``parent``, ``start``, ``end`` (seconds)
    and ``dur``.  Children with an interval cover the union of their
    intervals clipped to the parent's; an *aggregate* child (``start``
    of ``None``: many short calls summed into one record, accumulated
    only while the parent was the innermost open span) covers its
    ``dur``.
    """
    spans = list(spans)
    children: Dict[str, List[dict]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        intervals = []
        for child in children.get(span["id"], ()):
            if child["start"] is None:
                covered += child["dur"]
            else:
                lo = max(child["start"], span["start"])
                hi = min(child["end"], span["end"])
                if hi > lo:
                    intervals.append((lo, hi))
        intervals.sort()
        reach: Optional[float] = None
        for lo, hi in intervals:
            if reach is None or lo >= reach:
                covered += hi - lo
                reach = hi
            elif hi > reach:
                covered += hi - reach
                reach = hi
        result[span["id"]] = span["dur"] - covered
    return result
