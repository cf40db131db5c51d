"""High-level simulation entry points.

:func:`simulate` is the one-call API: pick a scheduler (and optional
prefetcher) by name and run a set of traces through the engine.
:func:`build_engine` stops short of running, for callers that read the
engine's hierarchy afterwards (the fuzz harness compares it across
kernels).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import SystemConfig
from repro.prefetch.base import NoPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.pif import PifIdealPrefetcher
from repro.sched.base import BaselineScheduler
from repro.sched.hybrid import HybridScheduler
from repro.sched.slicc import SliccScheduler
from repro.sched.smt import SmtBaselineScheduler
from repro.sched.strex import StrexScheduler
from repro.sim.engine import SimulationEngine
from repro.sim.results import RunResult
from repro.trace.trace import TransactionTrace

SCHEDULERS: Dict[str, Callable] = {
    "base": BaselineScheduler,
    "strex": StrexScheduler,
    "slicc": SliccScheduler,
    "hybrid": HybridScheduler,
    "smt": SmtBaselineScheduler,
}

PREFETCHERS: Dict[str, Callable] = {
    "none": NoPrefetcher,
    "nextline": NextLinePrefetcher,
    "pif": PifIdealPrefetcher,
}


def validate_run_request(
    scheduler: str,
    prefetcher: str = "none",
    team_size: Optional[int] = None,
) -> None:
    """Raise ``ValueError`` for combos :func:`simulate` would reject.

    :func:`simulate` calls it before building an engine; it is cheap
    (no engine, no traces), so it is also exported for callers that
    want to check a cell before running it.
    """
    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r}; "
            f"choose from {sorted(SCHEDULERS)}"
        )
    if prefetcher not in PREFETCHERS:
        raise ValueError(
            f"unknown prefetcher {prefetcher!r}; "
            f"choose from {sorted(PREFETCHERS)}"
        )
    if team_size is not None:
        if scheduler not in ("strex", "hybrid"):
            raise ValueError(
                f"team_size only applies to the 'strex' and 'hybrid' "
                f"schedulers, not {scheduler!r}"
            )
        if team_size < 1:
            raise ValueError(
                f"team_size must be positive, got {team_size}")


def build_engine(
    config: SystemConfig,
    traces: List[TransactionTrace],
    scheduler: str = "base",
    prefetcher: str = "none",
    team_size: Optional[int] = None,
    reference: bool = False,
) -> SimulationEngine:
    """The engine :func:`simulate` runs, built but not yet run.

    Takes :func:`simulate`'s arguments (less the workload label) and
    rejects the same combinations.
    """
    validate_run_request(scheduler, prefetcher, team_size)
    scheduler_cls = SCHEDULERS[scheduler]
    prefetcher_cls = PREFETCHERS[prefetcher]

    if scheduler == "strex" and team_size is not None:
        def scheduler_factory(engine):
            return StrexScheduler(engine, team_size=team_size)
    elif scheduler == "hybrid" and team_size is not None:
        def scheduler_factory(engine):
            return HybridScheduler(engine, team_size=team_size)
    else:
        scheduler_factory = scheduler_cls

    prefetcher_factory = None
    if prefetcher != "none":
        prefetcher_factory = prefetcher_cls

    return SimulationEngine(
        config, traces, scheduler_factory, prefetcher_factory,
        reference=reference,
    )


def simulate(
    config: SystemConfig,
    traces: List[TransactionTrace],
    scheduler: str = "base",
    workload_name: str = "",
    prefetcher: str = "none",
    team_size: Optional[int] = None,
    reference: bool = False,
) -> RunResult:
    """Run ``traces`` under a named scheduler and prefetcher.

    Args:
        config: the simulated system.
        traces: transaction traces in arrival order.
        scheduler: one of ``base``, ``strex``, ``slicc``, ``hybrid``.
        workload_name: label recorded in the result.
        prefetcher: one of ``none``, ``nextline``, ``pif``.
        team_size: optional STREX team-size override (Fig. 7/8 sweeps).
            Only meaningful for the ``strex`` and ``hybrid`` schedulers
            (the hybrid forwards it to its STREX delegate); passing it
            with any other scheduler raises :class:`ValueError` rather
            than silently ignoring it.
        reference: run the reference kernel instead of the fast one
            (differential testing; the results must be byte-equal).

    Returns:
        The run's :class:`RunResult`.
    """
    engine = build_engine(config, traces, scheduler, prefetcher,
                          team_size, reference)
    result = engine.run(workload_name)
    if prefetcher != "none":
        result.scheduler = f"{scheduler}+{prefetcher}"
    return result
