"""Transaction latency distributions (Section 5.4, Fig. 7).

A transaction's latency is the number of cycles from entering the
transaction queue until it completes.  Fig. 7 plots the latency
histogram for the baseline, STREX as a function of team size
(STREX-2T..20T), and SLICC as a function of core count (SLICC-2..16);
the legend reports mean latencies in M-cycles.

The statistics use NumPy's mean, percentile and histogram, imported
inside each method so that importing :mod:`repro.analysis` (and so
``repro`` itself) never loads NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass
class LatencyDistribution:
    """A labelled latency histogram."""

    label: str
    latencies: List[int]

    @property
    def mean_mcycles(self) -> float:
        """Mean latency in mega-cycles (Fig. 7's legend values)."""
        if not self.latencies:
            return 0.0
        import numpy as np

        return float(np.mean(self.latencies)) / 1e6

    @property
    def p50_mcycles(self) -> float:
        """Median latency in mega-cycles."""
        if not self.latencies:
            return 0.0
        import numpy as np

        return float(np.median(self.latencies)) / 1e6

    @property
    def p95_mcycles(self) -> float:
        """95th-percentile latency in mega-cycles."""
        if not self.latencies:
            return 0.0
        import numpy as np

        return float(np.percentile(self.latencies, 95)) / 1e6

    def histogram(self, bin_mcycles: float = 2.0,
                  max_mcycles: float = 50.0) -> List[float]:
        """Frequency per latency bin, normalized to sum to 1.

        Mirrors Fig. 7's x-axis: fixed-width bins up to ``max_mcycles``
        with a final "More" bucket.
        """
        if not self.latencies:
            return []
        import numpy as np

        edges = list(np.arange(0.0, max_mcycles, bin_mcycles)) \
            + [max_mcycles, float("inf")]
        values = np.asarray(self.latencies, dtype=float) / 1e6
        counts, _ = np.histogram(values, bins=edges)
        total = counts.sum()
        if total == 0:
            return [0.0] * len(counts)
        return (counts / total).tolist()


def compare_distributions(distributions: Sequence[LatencyDistribution]
                          ) -> str:
    """Multi-line text table of latency statistics."""
    lines = [f"{'config':>14} {'mean':>8} {'p50':>8} {'p95':>8}  (M-cycles)"]
    for dist in distributions:
        lines.append(
            f"{dist.label:>14} {dist.mean_mcycles:8.2f} "
            f"{dist.p50_mcycles:8.2f} {dist.p95_mcycles:8.2f}"
        )
    return "\n".join(lines)
