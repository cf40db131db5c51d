#!/usr/bin/env python3
"""Regression triage with the audit layer's APIs (repro.exp.diff,
repro.exp.baseline).

A simulator change landed and a figure moved — but *which* cells moved,
and by how much?  This example drives the audit layer programmatically,
the same machinery behind ``repro diff`` and ``repro baseline``:

1. pin a tiny scheduler x workload grid as a baseline (committed
   metric vectors, keyed by spec identity);
2. re-check it against unchanged code — green, served from cache;
3. simulate a "regression" by perturbing the pinned snapshot (standing
   in for a code change that moved the metrics) and let
   :func:`repro.exp.check_baseline` localize the damage to exact
   cells and metrics;
4. cross-check the fast-path kernel against the reference
   implementation with :func:`repro.exp.reference_diff`.

Run:  python examples/regression_triage.py
"""

import json
import tempfile
from pathlib import Path

from repro.exp import (
    ResultCache,
    Runner,
    SweepSpec,
    Tolerance,
    check_baseline,
    pin_baseline,
    reference_diff,
)

GRID = SweepSpec(
    workloads=("tpcc", "tpce"),
    schedulers=("base", "strex"),
    cores=(2,),
    seeds=(7,),
    scales=("tiny",),
    transactions=8,
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-triage-"))
    runner = Runner(cache=ResultCache(workdir / "cache"))
    baseline_path = workdir / "baseline.json"

    print("1. Pinning the baseline grid "
          f"({len(GRID.expand())} cells, tiny scale)...")
    baseline = pin_baseline(GRID.expand(), baseline_path,
                            runner=runner, name="triage-demo")
    for cell in sorted(baseline.cells.values(), key=lambda c: c.label):
        print(f"   {cell.label}: cycles={cell.metrics['cycles']:g} "
              f"i_mpki={cell.metrics['i_mpki']:.2f}")

    print("\n2. Checking against unchanged code (cache-warm, exact "
          "tolerance)...")
    report = check_baseline(baseline_path, runner=runner)
    print(f"   {report.format_text().splitlines()[0]} -> "
          f"{'OK' if report.ok(strict=True) else 'DRIFT'}")

    print("\n3. Injecting a fake regression into the pinned snapshot\n"
          "   (stands in for a simulator change; +3% cycles on every "
          "strex cell)...")
    data = json.loads(baseline_path.read_text())
    for row in data["cells"]:
        if row["spec"]["scheduler"] == "strex":
            row["metrics"]["cycles"] = round(
                row["metrics"]["cycles"] * 1.03)
    baseline_path.write_text(json.dumps(data))

    report = check_baseline(baseline_path, runner=runner)
    print(f"   exact check -> exit {report.exit_code(strict=True)}")
    print("   " + "\n   ".join(report.format_text().splitlines()))

    print("\n   The moved metric names the scheduler: only strex "
          "cells drifted,\n   so the triage points at team formation, "
          "not the cache model.")

    print("\n4. Same check under a 5% relative tolerance (would "
          "forgive the drift):")
    loose = check_baseline(baseline_path, runner=runner,
                           tolerance=Tolerance(rel_tol=0.05))
    print(f"   tolerant check -> exit {loose.exit_code(strict=True)}")

    print("\n5. Fast-path vs reference kernel on the same grid "
          "(byte equality):")
    parity = reference_diff(GRID.expand())
    print(f"   {parity.format_text().splitlines()[0]} -> "
          f"{'OK' if parity.ok(strict=True) else 'MISMATCH'}")

    print(f"\nArtifacts left in {workdir} for inspection.")


if __name__ == "__main__":
    main()
