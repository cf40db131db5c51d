"""The STREX+SLICC hybrid (Section 5.5).

SLICC wins when the aggregate L1-I capacity (one unit per core) covers
the workload's per-transaction footprints; STREX wins otherwise.  The
hybrid profiles the workload into an FPTable at startup (a rare event --
the paper re-profiles only on workload change or reconfiguration) and
then schedules *all* transactions with the winner:

    use SLICC  iff  num_cores + slack >= median type footprint (units)

The median reproduces the paper's reported switch points: TPC-C (type
footprints 12,14,11,14,11 -> median 12) selects SLICC only above 12
cores, i.e. at 16; TPC-E (7,9,9,5,9,8,8 -> median 8) selects SLICC at
eight cores and above, even though three types need nine ("these
transactions incur a few extra misses, however, the resulting throughput
is still slightly higher than STREX").
"""

from __future__ import annotations

from typing import Optional

from repro.core.fptable import FPTable, profile_fptable
from repro.sched.slicc import SliccScheduler
from repro.sched.strex import StrexScheduler


class HybridScheduler:
    """Profiles, decides, and delegates to STREX or SLICC."""

    name = "hybrid"

    def __init__(self, engine, fptable: Optional[FPTable] = None,
                 team_size: Optional[int] = None):
        self.engine = engine
        config = engine.config
        traces = [t.trace for t in engine.threads]
        self.fptable = fptable or profile_fptable(traces, config)
        threshold = self.fptable.median_units()
        self.use_slicc = (
            config.num_cores + config.hybrid.slack_units >= threshold
        )
        # team_size only shapes the STREX branch; SLICC sizes its own
        # teams from SliccConfig.team_factor.
        self.delegate = (
            SliccScheduler(engine) if self.use_slicc
            else StrexScheduler(engine, team_size=team_size)
        )
        self.decision = self.delegate.name
        # The engine's per-slice hooks are the delegate's own, bound
        # here, so a slice pays no forwarding call.
        self.has_work = self.delegate.has_work
        self.run_slice = self.delegate.run_slice
        self.wake = self.delegate.wake
        self.drain_wakeups = self.delegate.drain_wakeups
        self.wakeups = self.delegate.wakeups

    @property
    def uses_phase_tags(self) -> bool:
        """Phase-ID tagging is a property of the chosen delegate."""
        return self.delegate.uses_phase_tags

    # Engine hooks: the per-slice ones are bound in __init__ -------
    def start(self) -> None:
        self.delegate.start()
