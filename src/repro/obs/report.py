"""Reading and rendering trace sinks: summary, tree, JSON export.

``load_trace`` reads a JSONL sink written by one or more processes
(shards and pool workers all append to the same path), skipping torn
lines the same way ``Manifest.tail`` does, and returns the parsed span
records plus a single merged :class:`MetricsRegistry`.

``summarize`` turns that into the rollups the CLI renders:

* per-name span aggregates (count, total wall, self wall -- self time
  is a span's duration minus its same-process children),
* the top-N hottest ``cell`` spans (executed sweep cells),
* kernel-counter totals over every ``sim.run`` span (events,
  instructions, kernel calls),
* sweep-level cache accounting (hits/misses/skipped) that reconciles
  with the manifest,
* the merged metrics registry.

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, bucket_bounds

__all__ = [
    "SpanRecord",
    "TraceData",
    "format_summary",
    "format_tree",
    "load_trace",
    "summarize",
]


@dataclass
class SpanRecord:
    """One span line from a sink (see Tracer docstring for schema)."""

    span_id: str
    parent_id: Optional[str]
    name: str
    pid: int
    start_s: float
    dur_s: float
    tags: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @classmethod
    def from_record(cls, rec: dict) -> "SpanRecord":
        return cls(
            span_id=str(rec["id"]),
            parent_id=rec.get("parent"),
            name=str(rec.get("name", "?")),
            pid=int(rec.get("pid", 0)),
            start_s=float(rec.get("start_s", 0.0)),
            dur_s=float(rec.get("dur_s", 0.0)),
            tags=dict(rec.get("tags") or {}),
            counters=dict(rec.get("counters") or {}),
        )

    def label(self) -> str:
        """Human label: the ``spec`` tag when present, else key tags."""
        spec = self.tags.get("spec")
        if spec:
            return str(spec)
        parts = [
            str(self.tags[k])
            for k in ("workload", "scheduler", "shard")
            if k in self.tags
        ]
        return "/".join(parts) if parts else self.name


@dataclass
class TraceData:
    """Everything parsed out of one sink file."""

    path: Path
    spans: List[SpanRecord]
    metrics: MetricsRegistry
    torn: int = 0

    @property
    def pids(self) -> List[int]:
        return sorted({s.pid for s in self.spans})


def load_trace(path) -> TraceData:
    """Parse a JSONL sink, tolerating torn/corrupt lines.

    A process killed mid-append can leave one partial trailing line
    (and a merge of sinks can carry several); each unparseable line is
    counted in ``torn`` and skipped, mirroring ``Manifest.tail``.
    """
    path = Path(path)
    spans: List[SpanRecord] = []
    metrics = MetricsRegistry()
    torn = 0
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                kind = rec.get("kind")
                if kind == "span":
                    spans.append(SpanRecord.from_record(rec))
                elif kind == "metrics":
                    metrics.merge(MetricsRegistry.from_dict(rec))
                else:
                    torn += 1
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError):
                torn += 1
    return TraceData(path=path, spans=spans, metrics=metrics, torn=torn)


def _children_index(data: TraceData) -> Dict[str, List[SpanRecord]]:
    children: Dict[str, List[SpanRecord]] = {}
    by_id = {s.span_id for s in data.spans}
    for span in data.spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: s.start_s)
    return children


def summarize(data: TraceData, top: int = 10) -> dict:
    """Aggregate a trace into the dict the CLI renders/exports."""
    children = _children_index(data)
    by_name: Dict[str, dict] = {}
    for span in data.spans:
        child_time = sum(
            c.dur_s for c in children.get(span.span_id, ())
        )
        self_s = max(0.0, span.dur_s - child_time)
        agg = by_name.setdefault(
            span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        agg["count"] += 1
        agg["total_s"] += span.dur_s
        agg["self_s"] += self_s

    cells = sorted(
        (s for s in data.spans if s.name == "cell"),
        key=lambda s: s.dur_s,
        reverse=True,
    )
    cell_rows = [
        {
            "wall_s": round(s.dur_s, 6),
            "cell": s.label(),
            "pid": s.pid,
            "error": s.tags.get("error"),
        }
        for s in cells[: max(0, top)]
    ]

    kernel: Dict[str, int] = {}
    kernel_runs = 0
    for span in data.spans:
        if span.name != "sim.run":
            continue
        kernel_runs += 1
        for name, value in span.counters.items():
            kernel[name] = kernel.get(name, 0) + int(value)

    sweep: Dict[str, int] = {}
    for span in data.spans:
        if span.name != "sweep":
            continue
        for name, value in span.counters.items():
            sweep[name] = sweep.get(name, 0) + int(value)

    return {
        "path": str(data.path),
        "processes": data.pids,
        "span_count": len(data.spans),
        "torn_lines": data.torn,
        "spans": {
            name: {
                "count": agg["count"],
                "total_s": round(agg["total_s"], 6),
                "self_s": round(agg["self_s"], 6),
            }
            for name, agg in sorted(
                by_name.items(),
                key=lambda kv: kv[1]["total_s"],
                reverse=True,
            )
        },
        "cells": cell_rows,
        "kernel": {
            "runs": kernel_runs,
            **{k: kernel[k] for k in sorted(kernel)},
        },
        "sweep": {k: sweep[k] for k in sorted(sweep)},
        "metrics": data.metrics.to_dict(),
    }


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    ]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append(
            "  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            )
        )
    return out


def format_summary(summary: dict) -> str:
    lines = [
        f"trace {summary['path']}: {summary['span_count']} spans from"
        f" {len(summary['processes'])} process(es)"
        + (
            f", {summary['torn_lines']} torn line(s) skipped"
            if summary["torn_lines"]
            else ""
        )
    ]
    if summary["spans"]:
        lines.append("")
        lines.extend(
            _table(
                ["span", "count", "total_s", "self_s"],
                [
                    [
                        name,
                        str(agg["count"]),
                        f"{agg['total_s']:.4f}",
                        f"{agg['self_s']:.4f}",
                    ]
                    for name, agg in summary["spans"].items()
                ],
            )
        )
    if summary["cells"]:
        lines.append("")
        lines.append("hottest cells:")
        lines.extend(
            _table(
                ["wall_s", "cell", "pid"],
                [
                    [
                        f"{row['wall_s']:.4f}",
                        row["cell"]
                        + (
                            f"  [error={row['error']}]"
                            if row["error"]
                            else ""
                        ),
                        str(row["pid"]),
                    ]
                    for row in summary["cells"]
                ],
            )
        )
    kernel = dict(summary["kernel"])
    runs = kernel.pop("runs", 0)
    if runs:
        lines.append("")
        lines.append(f"kernel counters ({runs} sim.run span(s)):")
        for name, value in kernel.items():
            lines.append(f"  {name} = {value}")
    if summary["sweep"]:
        lines.append("")
        lines.append("sweep cache accounting:")
        for name, value in summary["sweep"].items():
            lines.append(f"  {name} = {value}")
    metrics = summary["metrics"]
    if any(metrics.values()):
        lines.append("")
        lines.append("metrics:")
        for name, value in metrics["counters"].items():
            lines.append(f"  {name} = {value}")
        for name, value in metrics["gauges"].items():
            lines.append(f"  {name} = {value:g} (gauge)")
        for name, hist in metrics["histograms"].items():
            count = hist.get("count", 0)
            total = hist.get("total", 0.0)
            mean = total / count if count else 0.0
            lines.append(
                f"  {name}: n={count} mean={mean:.1f}"
                + _histogram_sketch(hist)
            )
    return "\n".join(lines)


def _histogram_sketch(hist: dict) -> str:
    buckets = {
        int(i): n for i, n in hist.get("buckets", {}).items()
    }
    if not buckets:
        return ""
    parts = []
    for idx in sorted(buckets):
        lo, hi = bucket_bounds(idx)
        hi_txt = "inf" if hi == float("inf") else f"{hi:g}"
        parts.append(f"[{lo:g},{hi_txt}):{buckets[idx]}")
    return "  " + " ".join(parts)


def format_tree(
    data: TraceData, depth: Optional[int] = None
) -> str:
    """Render the span forest, one tree per root span, per process."""
    children = _children_index(data)
    have_parent = {
        s.span_id
        for kids in children.values()
        for s in kids
    }
    roots = [s for s in data.spans if s.span_id not in have_parent]
    roots.sort(key=lambda s: (s.pid, s.start_s))
    lines: List[str] = []
    if data.torn:
        lines.append(f"({data.torn} torn line(s) skipped)")

    def render(span: SpanRecord, indent: int) -> None:
        if depth is not None and indent > depth:
            return
        kids = children.get(span.span_id, [])
        child_time = sum(c.dur_s for c in kids)
        self_s = max(0.0, span.dur_s - child_time)
        detail = []
        label = span.label()
        if label != span.name:
            detail.append(label)
        detail.extend(
            f"{k}={v}"
            for k, v in sorted(span.counters.items())
        )
        if "error" in span.tags:
            detail.append(f"error={span.tags['error']}")
        suffix = ("  " + " ".join(detail)) if detail else ""
        lines.append(
            "  " * indent
            + f"{span.name} {span.dur_s:.4f}s"
            + (f" (self {self_s:.4f}s)" if kids else "")
            + suffix
        )
        for kid in kids:
            render(kid, indent + 1)

    last_pid = None
    for root in roots:
        if root.pid != last_pid:
            lines.append(f"pid {root.pid}:")
            last_pid = root.pid
        render(root, 1)
    return "\n".join(lines)
