"""Optimal synchronization for identical transactions (Section 4.1).

For perfectly overlapping transactions the phase algorithm is optimal:
the lead fetches each cache-sized segment exactly once and every other
team member replays it for free.  Fig. 4 demonstrates this by building a
hypothetical workload of 100 transactions per type -- ten randomly chosen
instances, each *replicated* ten times -- and comparing baseline I-MPKI
against the synchronized execution ("CTX-Identical").

This module builds that workload.  The experiment itself is a pair of
``RunSpec(mode="identical")`` cells, one per scheduler (``base`` and
``strex`` on a single core: STREX time-multiplexes one core, the
baseline runs the same 100 transactions back to back); see
:mod:`repro.exp.spec`.
"""

from __future__ import annotations

import copy
from typing import List, Optional

from repro.trace.trace import TransactionTrace
from repro.workloads.base import Workload


def replicate_instances(
    workload: Workload,
    txn_type: str,
    instances: int = 10,
    replicas: int = 10,
    seed: Optional[int] = None,
) -> List[TransactionTrace]:
    """Fig. 4's construction: ``instances`` random instances, each
    replicated ``replicas`` times, interleaved so that replicas of the
    same instance are adjacent (they form natural teams).

    ``seed`` pins the instance draw; ``None`` draws from the
    workload's own RNG (position-dependent, so cached experiments pass
    an explicit seed).
    """
    base = workload.generate_uniform(txn_type, instances, seed=seed)
    traces: List[TransactionTrace] = []
    txn_id = 0
    for instance in base:
        for _ in range(replicas):
            clone = copy.copy(instance)
            clone.txn_id = txn_id
            txn_id += 1
            traces.append(clone)
    return traces
