"""Scheduler interface and the conventional baseline.

A scheduler owns the mapping of threads to cores and reacts to the
events its mechanism cares about (STREX: phase-tagged victims; SLICC:
miss bursts).  The engine repeatedly asks the earliest-clock core's
scheduler to ``run_slice``; a slice ends when the scheduler's own switch
condition fires, the thread finishes, or the bounded quantum elapses.

The baseline models a conventional OLTP deployment (Section 2): each
transaction is assigned to a core where it runs to completion; a free
core takes the next transaction in arrival order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.sim.thread import TxnThread


class Scheduler:
    """Base scheduler: subclasses implement the four hooks."""

    name = "abstract"

    #: Whether this scheduler stamps L1-I blocks with phaseID tags
    #: (STREX's PIDT).  The invariant oracles use it: a non-tagging
    #: scheduler must leave every cache tag at zero, a tagging one must
    #: keep tags inside ``[0, 2**phase_bits)``.
    uses_phase_tags = False

    def __init__(self, engine):
        self.engine = engine
        #: Cores woken since the engine last drained them.  The list is
        #: never rebound, so the engine tests it after each slice and
        #: calls :meth:`drain_wakeups` only when it is not empty.
        self.wakeups: List[int] = []

    def start(self) -> None:
        """Perform initial thread placement."""
        raise NotImplementedError

    def has_work(self, core: int) -> bool:
        """True if ``core`` has a runnable thread."""
        raise NotImplementedError

    def run_slice(self, core: int) -> None:
        """Run one bounded slice on ``core``."""
        raise NotImplementedError

    def wake(self, core: int) -> None:
        """Tell the engine that a parked core may have work now."""
        self.wakeups.append(core)

    def drain_wakeups(self) -> List[int]:
        """Engine-side: collect and clear pending wakeups."""
        wakeups = self.wakeups[:]
        self.wakeups.clear()
        return wakeups


class BaselineScheduler(Scheduler):
    """Conventional execution: run-to-completion, arrival-order FIFO."""

    name = "base"

    def __init__(self, engine, slice_events: Optional[int] = None):
        super().__init__(engine)
        self.slice_events = (
            slice_events or engine.DEFAULT_SLICE_EVENTS
        )
        self._pending: Deque[TxnThread] = deque(engine.threads)
        self._current: List[Optional[TxnThread]] = (
            [None] * engine.config.num_cores
        )

    def start(self) -> None:
        for core in range(self.engine.config.num_cores):
            self._dispatch(core)

    def _dispatch(self, core: int) -> None:
        if self._pending:
            thread = self._pending.popleft()
            self._current[core] = thread
            self.engine.mark_started(core, thread)

    def has_work(self, core: int) -> bool:
        return self._current[core] is not None

    def run_slice(self, core: int) -> None:
        thread = self._current[core]
        if thread is None:
            return
        self.engine.run_events(core, thread, self.slice_events)
        if thread.finished:
            self.engine.mark_finished(core, thread)
            self._current[core] = None
            self._dispatch(core)
