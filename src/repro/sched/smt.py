"""2-way SMT baseline (Section 4.4.4).

The paper notes that on real hardware 2-way SMT increases L1 misses
(instructions: +15% TPC-C / +7% TPC-E; data: +10% / +16%) because two
unrelated transactions share each core's L1s.  This scheduler models
that sharing: each core runs ``ways`` hardware contexts whose execution
interleaves at a fine grain with no switch cost, over the same private
L1s.

Only the cache-sharing effect is modelled -- the latency-hiding benefit
of SMT (issuing from the other context during a stall) is outside our
in-order replay, so this scheduler is used for the miss-rate comparison
of Section 4.4.4, not for throughput claims.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.sched.base import Scheduler
from repro.sim.thread import TxnThread


class SmtBaselineScheduler(Scheduler):
    """Run-to-completion with ``ways`` interleaved contexts per core."""

    name = "smt"

    #: Events per context before the round-robin switches (fine-grain
    #: interleave; hardware SMT alternates fetch slots).
    SMT_QUANTUM = 8

    def __init__(self, engine, ways: int = 2):
        if ways <= 0:
            raise ValueError("ways must be positive")
        super().__init__(engine)
        self.ways = ways
        num_cores = engine.config.num_cores
        self._pending: Deque[TxnThread] = deque(engine.threads)
        self._contexts: List[Deque[TxnThread]] = [
            deque() for _ in range(num_cores)
        ]

    def start(self) -> None:
        for core in range(len(self._contexts)):
            for _ in range(self.ways):
                self._admit(core)

    def _admit(self, core: int) -> None:
        """Admit the next transaction to a free hardware context.

        Contexts alternate between the two ends of the arrival queue:
        co-resident SMT threads are *unrelated* transactions (different
        types, different execution positions), which is what makes them
        fight over the shared L1s.  Admitting adjacent arrivals instead
        would co-schedule same-type transactions that constructively
        share code -- the aligned-execution effect STREX engineers
        deliberately, not what SMT provides by accident.
        """
        if not self._pending:
            return
        take_back = sum(len(c) for c in self._contexts) % 2 == 1
        thread = self._pending.pop() if take_back \
            else self._pending.popleft()
        self._contexts[core].append(thread)
        self.engine.mark_started(core, thread)

    def has_work(self, core: int) -> bool:
        return bool(self._contexts[core])

    def run_slice(self, core: int) -> None:
        contexts = self._contexts[core]
        if not contexts:
            return
        thread = contexts[0]
        self.engine.run_events(core, thread, self.SMT_QUANTUM)
        if thread.pos >= thread.n_events:  # finished
            self.engine.mark_finished(core, thread)
            contexts.popleft()
            self._admit(core)
            return
        # Hardware context switch: free.
        contexts.rotate(-1)
