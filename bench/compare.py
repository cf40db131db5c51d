"""Compare two sets of benchmark runs, metric by metric, seed by seed.

    python bench/compare.py A1.json A2.json ... --vs B1.json B2.json ...

Each file is a ``bench/run.py --out`` record.  A is the baseline (the
parent commit) and B the change.  Runs are paired by seed: every seed
that both sides ran gives one ratio B / A (of the per-seed medians, if
a side ran a seed more than once), so how much each seed's inputs cost
cancels out.  For every workload and end-to-end metric of
``BENCHMARK.json`` the tool prints each side's quartiles, the
quartiles of the ratios, the share of seeds that B wins, and a verdict
under the metric's bound:

* ``unresolved`` -- the ratios' quartile spread, as a share of their
  median, exceeds the bound, and B does not win on every seed;
* ``regressed`` -- B is worse than A by more than the bound (median
  ratio);
* ``improved`` -- B wins on at least 90% of the seeds, and is better
  than A by more than the ratios' spread;
* ``unchanged`` -- none of the above.

The exit code is 1 when any pair regressed, and 2 when the sides share
no seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent

#: workload -> metric -> seed -> values
Runs = Dict[str, Dict[str, Dict[int, List[float]]]]


def load(paths: Sequence[Path]) -> Runs:
    values: Runs = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for path in paths:
        record = json.loads(Path(path).read_text())
        for workload, result in record["workloads"].items():
            for name, entry in result["e2e"].items():
                values[workload][name][record["seed"]].append(entry["value"])
    return values


def verdict(a: Dict[int, List[float]], b: Dict[int, List[float]],
            bound: float, better: str) -> dict:
    """Compare baseline runs ``a`` with change runs ``b``, by seed."""
    sign = 1.0 if better == "lower" else -1.0
    ratios = [statistics.median(b[seed]) / statistics.median(a[seed])
              for seed in sorted(set(a) & set(b))
              if statistics.median(a[seed])]
    q = quartiles(ratios)
    worse = sign * (q[1] - 1.0)
    spread = (q[2] - q[0]) / q[1]
    win = sum(sign * (r - 1.0) < 0 for r in ratios) / len(ratios)
    if spread > bound and win < 1.0:
        call = "unresolved"
    elif worse > bound:
        call = "regressed"
    elif win >= 0.9 and -worse > spread:
        call = "improved"
    else:
        call = "unchanged"
    return {"a": quartiles([v for vs in a.values() for v in vs]),
            "b": quartiles([v for vs in b.values() for v in vs]),
            "ratio": q, "seeds": len(ratios), "win": win,
            "worse": worse, "spread": spread, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="+", type=Path)
    parser.add_argument("--vs", nargs="+", type=Path, required=True,
                        metavar="CHANGE")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(args.baseline), load(args.vs)
    print(f"{'workload':<16} {'metric':<12} {'A q1/med/q3':>26} "
          f"{'B q1/med/q3':>26} {'B/A q1/med/q3':>20} {'seeds':>5} "
          f"{'win':>5} {'bound':>6}  verdict")
    regressed = paired = False
    for workload in sorted(set(a) & set(b)):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if not set(a[workload][name]) & set(b[workload][name]):
                continue
            paired = True
            got = verdict(a[workload][name], b[workload][name],
                          metric["bound"], metric["better"])
            regressed |= got["verdict"] == "regressed"
            print(f"{workload:<16} {name:<12} "
                  + " ".join("{:>8.4g}/{:.4g}/{:.4g}".format(*got[side])
                             .rjust(26) for side in ("a", "b"))
                  + " {:.3f}/{:.3f}/{:.3f}".format(*got["ratio"]).rjust(21)
                  + f" {got['seeds']:>5} {got['win']:>5.2f} "
                    f"{metric['bound']:>6.0%}  {got['verdict']}")
    if not paired:
        print("error: the two sides share no seed", file=sys.stderr)
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
