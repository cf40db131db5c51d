"""Result diffing: compare two sweeps cell by cell (``repro diff``).

Every figure and table runs through the content-addressed cache, so a
simulator change that shifts MPKI or throughput used to be caught only
if it happened to break a coarse shape assertion.  This module turns
the manifest + cache pair into an auditable history:

* :func:`manifest_cells` reads a run manifest, aligns its rows by
  *spec identity* (:func:`repro.exp.cache.spec_identity` — the spec's
  own fields, never the code fingerprint), and loads each cell's
  cached result into a flat **metric vector**;
* :func:`diff_cells` classifies every aligned cell as ``identical`` /
  ``changed`` / ``added`` / ``removed`` / ``missing`` and reports
  per-metric deltas under configurable absolute/relative tolerances;
* :func:`reference_diff` runs the same specs through the fast *and*
  the reference kernels and asserts the serialized results are
  byte-equal per cell — a second consumer of
  the reference path beyond the parity tests.

Metric vectors, not raw bytes, are what get compared: a
fingerprint-only change (comment edit, refactor) re-keys the cache but
leaves every metric bit-identical, so the diff — and the pinned
baselines built on it (:mod:`repro.exp.baseline`) — stays green.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exp.cache import RESULT_TYPES, ResultCache, spec_identity
from repro.exp.manifest import Manifest
from repro.exp.spec import RunSpec

#: Cell statuses, in report order.
STATUSES = ("changed", "missing", "removed", "added", "identical")


def metric_vector(result) -> Dict[str, float]:
    """Flatten any registered result type into ``{metric: number}``.

    Every :data:`~repro.exp.cache.RESULT_TYPES` entry is covered:

    * ``RunResult`` — the raw counters plus the paper's derived
      metrics (``i_mpki``/``d_mpki``/``throughput``/``mean_latency``);
    * ``OverlapResult`` — the time-averaged overlap-band fractions
      (``band.<name>``) plus the interval count;
    * ``FootprintResult`` — per-type footprints (``units.<type>``)
      plus the median.
    """
    name = type(result).__name__
    if name == "RunResult":
        metrics = {
            field_.name: getattr(result, field_.name)
            for field_ in dataclasses.fields(result)
            if field_.name not in ("workload", "scheduler", "latencies",
                                   "extra")
        }
        metrics["i_mpki"] = result.i_mpki
        metrics["d_mpki"] = result.d_mpki
        metrics["throughput"] = result.throughput
        metrics["mean_latency"] = result.mean_latency
        for key, value in result.extra.items():
            metrics[f"extra.{key}"] = value
        return metrics
    if name == "OverlapResult":
        metrics = {f"band.{band}": fraction
                   for band, fraction in result.summarize().items()}
        metrics["intervals"] = len(result.intervals)
        return metrics
    if name == "FootprintResult":
        metrics = {f"units.{txn_type}": units
                   for txn_type, units in result.as_dict().items()}
        metrics["median_units"] = result.median_units()
        return metrics
    raise TypeError(
        f"no metric extractor for result type {name!r}; "
        f"registered: {sorted(RESULT_TYPES)}"
    )


def result_blob(result) -> bytes:
    """Canonical serialized form of a result (byte-equality checks)."""
    return json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode()


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance for metric comparison.

    A delta is *within* tolerance when
    ``|b - a| <= max(abs_tol, rel_tol * |a|)`` (the A side is the
    reference).  The default is exact equality — the simulator is
    deterministic, so that is the right bar for same-version reruns
    and pinned baselines; loosen it when comparing across intentional
    changes.
    """

    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be >= 0")

    def within(self, a: Optional[float], b: Optional[float]) -> bool:
        if a is None or b is None:
            return False
        return abs(b - a) <= max(self.abs_tol,
                                 self.rel_tol * abs(a))


@dataclass(frozen=True)
class Cell:
    """One aligned sweep cell: a spec plus its flattened metrics.

    ``metrics`` is ``None`` when the manifest row exists but its
    result could not be loaded from the cache (entry evicted, torn,
    or written by an incompatible schema) — the diff reports such
    cells as ``missing`` rather than silently treating them as equal.
    """

    identity: str
    spec: dict
    label: str
    result_type: Optional[str] = None
    metrics: Optional[Dict[str, float]] = None
    key: Optional[str] = None

    @classmethod
    def from_result(cls, spec: RunSpec, result,
                    key: Optional[str] = None) -> "Cell":
        return cls(
            identity=spec_identity(spec),
            spec=spec.to_dict(),
            label=spec.describe(),
            result_type=type(result).__name__,
            metrics=metric_vector(result),
            key=key,
        )


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across the two sides of a cell."""

    metric: str
    a: Optional[float]
    b: Optional[float]
    within: bool

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def relative(self) -> Optional[float]:
        """Signed relative delta vs the A side (``None`` when a side
        is absent or A is zero)."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)

    def to_dict(self) -> dict:
        return {"metric": self.metric, "a": self.a, "b": self.b,
                "delta": self.delta, "relative": self.relative,
                "within": self.within}


@dataclass(frozen=True)
class CellDiff:
    """One cell's classification plus its out-of-tolerance metrics.

    ``deltas`` holds *every* compared metric for a ``changed`` cell
    (the within-tolerance ones flagged as such, so a ``--json``
    consumer sees the full vector) and is empty for the other
    statuses.
    """

    identity: str
    label: str
    spec: dict
    status: str
    result_type_a: Optional[str] = None
    result_type_b: Optional[str] = None
    deltas: Tuple[MetricDelta, ...] = ()
    note: Optional[str] = None

    @property
    def moved(self) -> Tuple[MetricDelta, ...]:
        """The out-of-tolerance deltas only."""
        return tuple(d for d in self.deltas if not d.within)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "label": self.label,
            "spec": self.spec,
            "status": self.status,
            "result_type_a": self.result_type_a,
            "result_type_b": self.result_type_b,
            "deltas": [d.to_dict() for d in self.deltas],
            "note": self.note,
        }


@dataclass
class DiffReport:
    """Outcome of a cell-by-cell sweep comparison.

    ``ok`` is the gate: ``True`` iff no cell is ``changed`` or
    ``missing``.  ``added``/``removed`` cells are reported but only
    fail under ``strict`` (grids legitimately grow; a shrinking or
    shifting grid is worth a loud look).
    """

    cells: List[CellDiff] = field(default_factory=list)
    tolerance: Tolerance = field(default_factory=Tolerance)

    def by_status(self, status: str) -> List[CellDiff]:
        return [c for c in self.cells if c.status == status]

    @property
    def counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in STATUSES}
        for cell in self.cells:
            counts[cell.status] += 1
        return counts

    def ok(self, strict: bool = False) -> bool:
        counts = self.counts
        bad = counts["changed"] + counts["missing"]
        if strict:
            bad += counts["added"] + counts["removed"]
        return bad == 0

    def exit_code(self, strict: bool = False) -> int:
        return 0 if self.ok(strict) else 1

    def to_dict(self) -> dict:
        return {
            "counts": self.counts,
            "ok": self.ok(),
            "tolerance": {"abs_tol": self.tolerance.abs_tol,
                          "rel_tol": self.tolerance.rel_tol},
            "cells": [cell.to_dict() for cell in self.cells
                      if cell.status != "identical"],
        }

    # -- renderers -----------------------------------------------------
    def _summary_line(self) -> str:
        counts = self.counts
        parts = [f"{counts[status]} {status}" for status in STATUSES
                 if counts[status] or status in ("changed", "identical")]
        return f"{len(self.cells)} cell(s): " + ", ".join(parts)

    def _delta_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for cell in self.by_status("changed"):
            for delta in cell.moved:
                rows.append([
                    cell.label,
                    delta.metric,
                    "-" if delta.a is None else f"{delta.a:g}",
                    "-" if delta.b is None else f"{delta.b:g}",
                    "-" if delta.delta is None
                    else f"{delta.delta:+g}",
                    "-" if delta.relative is None
                    else f"{100 * delta.relative:+.2f}%",
                ])
            if not cell.moved and cell.note:
                rows.append([cell.label, f"({cell.note})", "-", "-",
                             "-", "-"])
        return rows

    def format_text(self) -> str:
        """Plain-table rendering (the default CLI output)."""
        from repro.analysis.report import format_table

        lines = [self._summary_line()]
        rows = self._delta_rows()
        if rows:
            lines.append("")
            lines.append(format_table(
                ["cell", "metric", "a", "b", "delta", "rel"], rows))
        for status in ("missing", "removed", "added"):
            cells = self.by_status(status)
            if cells:
                lines.append("")
                lines.append(f"{status}:")
                for cell in cells:
                    suffix = f"  ({cell.note})" if cell.note else ""
                    lines.append(f"  {cell.label}{suffix}")
        return "\n".join(lines)

    def format_markdown(self) -> str:
        """GitHub-flavored markdown rendering (for PR comments)."""
        lines = [f"**{self._summary_line()}**"]
        rows = self._delta_rows()
        if rows:
            lines.append("")
            lines.append("| cell | metric | a | b | delta | rel |")
            lines.append("| --- | --- | --- | --- | --- | --- |")
            for row in rows:
                lines.append("| " + " | ".join(str(v) for v in row)
                             + " |")
        for status in ("missing", "removed", "added"):
            cells = self.by_status(status)
            if cells:
                lines.append("")
                lines.append(f"**{status}:** "
                             + ", ".join(f"`{c.label}`" for c in cells))
        return "\n".join(lines)


def _compare_cell(a: Cell, b: Cell, tolerance: Tolerance) -> CellDiff:
    """Classify one aligned cell (present on both sides)."""
    base = dict(identity=a.identity, label=a.label, spec=a.spec,
                result_type_a=a.result_type, result_type_b=b.result_type)
    if a.metrics is None or b.metrics is None:
        sides = [side for side, cell in (("a", a), ("b", b))
                 if cell.metrics is None]
        return CellDiff(status="missing", note=(
            f"result unavailable on side(s): {', '.join(sides)}"),
            **base)
    if a.result_type != b.result_type:
        return CellDiff(status="changed", note=(
            f"result type changed: {a.result_type} -> "
            f"{b.result_type}"), **base)
    deltas = tuple(
        MetricDelta(metric=name, a=a.metrics.get(name),
                    b=b.metrics.get(name),
                    within=tolerance.within(a.metrics.get(name),
                                            b.metrics.get(name)))
        for name in sorted(set(a.metrics) | set(b.metrics))
    )
    if all(d.within for d in deltas):
        return CellDiff(status="identical", **base)
    return CellDiff(status="changed", deltas=deltas, **base)


def diff_cells(a: Dict[str, Cell], b: Dict[str, Cell],
               tolerance: Optional[Tolerance] = None) -> DiffReport:
    """Diff two identity-aligned cell maps (A is the reference side).

    Cells only in A are ``removed``, only in B ``added``; cells on
    both sides compare metric by metric.  Report order is
    deterministic: cells sorted by label, then identity.
    """
    tolerance = tolerance or Tolerance()
    report = DiffReport(tolerance=tolerance)
    identities = sorted(
        set(a) | set(b),
        key=lambda i: ((a.get(i) or b[i]).label, i))
    for identity in identities:
        if identity not in b:
            cell = a[identity]
            report.cells.append(CellDiff(
                identity=identity, label=cell.label, spec=cell.spec,
                status="removed", result_type_a=cell.result_type))
        elif identity not in a:
            cell = b[identity]
            report.cells.append(CellDiff(
                identity=identity, label=cell.label, spec=cell.spec,
                status="added", result_type_b=cell.result_type))
        else:
            report.cells.append(
                _compare_cell(a[identity], b[identity], tolerance))
    return report


def manifest_cells(manifest: Union[Manifest, Path, str],
                   cache_root: Optional[Union[Path, str]] = None
                   ) -> Dict[str, Cell]:
    """Load a manifest's cells, deduplicated by identity (last wins).

    ``cache_root`` defaults to the manifest's directory (the layout
    the :class:`~repro.exp.runner.Runner` writes); per-bench audit
    manifests live one level down in ``<cache>/audit/``, which is
    resolved automatically.  Rows whose spec no longer parses are
    skipped with a warning; rows whose cached result is gone produce
    cells with ``metrics=None`` (reported as ``missing``).
    """
    if not isinstance(manifest, Manifest):
        manifest = Manifest(manifest)
    if cache_root is None:
        cache_root = manifest.path.parent
        if cache_root.name == "audit":
            cache_root = cache_root.parent
    cache = ResultCache(cache_root)
    rows: Dict[str, Tuple[RunSpec, str]] = {}
    for entry in manifest.read():
        try:
            spec = RunSpec.from_dict(entry.spec)
        except (TypeError, ValueError) as exc:
            warnings.warn(
                f"manifest {manifest.path}: skipping row whose spec "
                f"no longer parses ({exc})", RuntimeWarning,
                stacklevel=2)
            continue
        rows[spec_identity(spec)] = (spec, entry.key)
    cells: Dict[str, Cell] = {}
    for identity, (spec, key) in rows.items():
        result = cache.get(key)
        if result is None:
            cells[identity] = Cell(
                identity=identity, spec=spec.to_dict(),
                label=spec.describe(), key=key)
        else:
            cells[identity] = Cell.from_result(spec, result, key=key)
    return cells


def diff_manifests(manifest_a: Union[Path, str],
                   manifest_b: Union[Path, str],
                   cache_a: Optional[Union[Path, str]] = None,
                   cache_b: Optional[Union[Path, str]] = None,
                   tolerance: Optional[Tolerance] = None) -> DiffReport:
    """``repro diff`` as an API: align two sweeps and compare them."""
    return diff_cells(
        manifest_cells(manifest_a, cache_a),
        manifest_cells(manifest_b, cache_b),
        tolerance,
    )


def reference_diff(specs: Sequence[RunSpec]) -> DiffReport:
    """Run specs through the fast *and* reference kernels and compare.

    Byte-equality of the canonical serialized results is the bar (the
    parity guarantee of DESIGN.md decision 12), which is stricter than
    the metric vector: two results whose flattened metrics agree but
    whose latency lists differ still fail.  The A side is the fast
    kernel, the B side the reference kernel.
    """
    from repro.exp.runner import execute_spec

    report = DiffReport()
    for spec in specs:
        fast = execute_spec(spec)
        reference = execute_spec(spec, reference=True)
        fast_cell = Cell.from_result(spec, fast)
        ref_cell = Cell.from_result(spec, reference)
        diff = _compare_cell(fast_cell, ref_cell, Tolerance())
        if diff.status == "identical" and \
                result_blob(fast) != result_blob(reference):
            diff = dataclasses.replace(
                diff, status="changed",
                note="serialized results differ beyond the "
                     "metric vector")
        report.cells.append(diff)
    return report
