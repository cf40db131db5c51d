"""SLICC: thread migration across cores (Atta et al., MICRO'12), the
comparison technique of Sections 3 and 5.

SLICC slices transaction execution by *migrating* a thread to the core
whose L1-I already holds the code segment it is about to execute.  The
mechanism modelled here follows the original paper's components, which
the STREX paper reuses for its hybrid (Table 4, "SLICC's Cache Monitor
Unit"):

* a per-thread *missed-tag queue*: the tail of the thread's recent L1-I
  miss stream, which identifies the segment being entered;
* per-core *cache signatures*: a membership summary of each L1-I (here
  queried exactly; a Bloom filter in hardware);
* a miss-burst detector: a run of misses within a short window signals
  that the thread has crossed into a new code segment.

On a burst, the thread migrates to the core whose signature covers the
largest fraction of its recent misses (the segment already lives there);
if no core matches, it *expands* onto the least-recently-expanded,
shortest-queue core, spreading segments across the aggregate L1-I.  Each
migration charges ``migration_cycles`` and leaves the thread's L1-D
working set behind -- which is exactly why SLICC inflates data misses
and loses to STREX when cores are scarce (Fig. 5/6).

Threads beyond the active cap (``team_factor * cores``, paper: 2N) wait
in an arrival-order pool and are admitted as active threads finish.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.sched.base import Scheduler
from repro.sim.thread import TxnThread


class SliccScheduler(Scheduler):
    """Migration-based scheduler."""

    name = "slicc"

    #: Events per slice: small, so burst detection is responsive.
    SLICE_EVENTS = 64
    #: How many recent missed blocks form the signature probe.
    PROBE_BLOCKS = 8

    def __init__(self, engine):
        super().__init__(engine)
        config = engine.config
        self.params = config.slicc
        num_cores = config.num_cores
        self._queues: List[Deque[TxnThread]] = [
            deque() for _ in range(num_cores)
        ]
        self._pool: Deque[TxnThread] = deque(engine.threads)
        self.active_cap = max(
            num_cores, self.params.team_factor * num_cores
        )
        self._active = 0
        self._last_expand = [0] * num_cores
        self._expand_clock = 0
        # Per-thread count of blocks filled since its last migration.  A
        # thread expands to the next core only once it has filled a
        # cache-sized segment locally ("slices of cache size"): expanding
        # on the first miss burst would shred segments across cores.
        self.fill_limit = config.l1i.num_blocks
        self._fill: dict = {}
        self._cooldown: dict = {}
        self._type_order: dict = {}
        self.migrations = 0
        self.match_migrations = 0
        self.expand_migrations = 0
        self.bursts = 0
        self._miss_threshold = self.params.miss_threshold
        # Membership in each L1-I's block -> slot dict, for the
        # signature probe; a cache never rebinds the dict.
        self._l1i_holds = [
            cache._where.__contains__ for cache in engine.hier.l1i
        ]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _entry_core(self, thread: TxnThread) -> int:
        """Core at which a transaction enters the pipeline.

        All threads of one type enter at the same core, so the first
        thread's ring walk lays that type's segments out across cores
        and every later same-type thread retraces it (Fig. 3(c)).
        Different types get different entry cores (SLICC-Pp groups
        transactions by their header-instruction address), which keeps
        one entry stage from serializing every pipeline.  Admitting
        threads on arbitrary cores instead would have every core fetch
        the first segment independently and no pipeline would form.
        """
        num_cores = len(self._queues)
        type_names = self._type_order.setdefault(
            thread.txn_type, len(self._type_order)
        )
        return type_names % num_cores

    def start(self) -> None:
        while self._pool and self._active < self.active_cap:
            thread = self._pool.popleft()
            entry = self._entry_core(thread)
            self._queues[entry].append(thread)
            self._active += 1
            self.wake(entry)

    def _admit(self, core: int) -> None:
        if self._pool:
            thread = self._pool.popleft()
            entry = self._entry_core(thread)
            self._queues[entry].append(thread)
            self._active += 1
            self.wake(entry)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def has_work(self, core: int) -> bool:
        return bool(self._queues[core])

    def run_slice(self, core: int) -> None:
        engine = self.engine
        queue = self._queues[core]
        if not queue:
            return
        thread = queue[0]
        if thread.start_time is None:
            # The thread's first dispatch (engine.mark_started).
            thread.start_time = engine.core_time[core]

        miss_log: List[int] = []
        threshold = self._miss_threshold
        executed = engine.run_events(
            core,
            thread,
            self.SLICE_EVENTS,
            miss_log=miss_log,
            stop_after_misses=threshold,
        )
        tid = thread.thread_id
        if miss_log:
            self._fill[tid] = self._fill.get(tid, 0) + len(miss_log)
            recent = thread.recent_misses
            recent.extend(miss_log)
            if len(recent) > self.PROBE_BLOCKS:
                del recent[: len(recent) - self.PROBE_BLOCKS]

        if thread.pos >= thread.n_events:
            self._finish(core, thread)
            return

        cooldown = self._cooldown.get(tid, 0)
        if cooldown > 0:
            self._cooldown[tid] = cooldown - executed
        elif len(miss_log) >= threshold:
            # Miss burst: the thread is fetching a code segment it does
            # not have locally.
            self.bursts += 1
            target = self._matched_target(core, thread)
            if target is not None:
                self.match_migrations += 1
                self._migrate(core, target, thread)
                return
            if self._fill.get(tid, 0) >= self.fill_limit:
                # The local L1-I is full of this thread's segment: slice
                # boundary -- expand onto the next core in the ring.
                dst = (core + 1) % len(self._queues)
                if dst != core:
                    self._expand_clock += 1
                    self._last_expand[dst] = self._expand_clock
                    self.expand_migrations += 1
                    self._migrate(core, dst, thread)
                    return
                # Single core: nowhere to expand; start a fresh segment.
                self._fill[tid] = 0
            # Cold but not yet cache-sized: keep filling here.
        # No rotation: a thread occupies its core until it migrates away
        # or finishes (hardware threads are not timer-multiplexed).
        # Waiting threads reach idle cores via OS-style load balancing.
        if len(queue) > 1:
            self._steal_to_idle(core)

    def _finish(self, core: int, thread: TxnThread) -> None:
        self.engine.mark_finished(core, thread)
        self._queues[core].popleft()
        self._active -= 1
        self._fill.pop(thread.thread_id, None)
        self._admit(core)
        self._steal_to_idle(core)

    def _steal_to_idle(self, core: int) -> None:
        """Move one waiting thread to an idle core (OS load balancing).

        Called after every slice that leaves ``core`` more than one
        thread, and after a finish; it moves a thread only when another
        core is completely idle, so in steady state -- all pipeline
        stages busy -- it never fires.  It parallelizes workloads
        whose threads never migrate on their own (MapReduce) and drains
        the admission transient.
        """
        queue = self._queues[core]
        if len(queue) <= 1 or all(self._queues):
            # No thread to spare, or no idle core to take it.
            return
        # Only threads that have not started executing are eligible: a
        # mid-flight thread has cache affinity to the pipeline and
        # stealing it just forces a matched migration straight back.
        candidate = None
        for thread in reversed(queue):
            if thread.pos == 0:
                candidate = thread
                break
        if candidate is None:
            return
        for idle in range(len(self._queues)):
            if idle != core and not self._queues[idle]:
                queue.remove(candidate)
                cost = self.params.migration_cycles
                self.engine.charge(core, cost)
                self.engine.advance_clock(idle, self.engine.core_time[core])
                self._queues[idle].append(candidate)
                candidate.migrations += 1
                self.migrations += 1
                self._fill[candidate.thread_id] = 0
                self.wake(idle)
                return

    # ------------------------------------------------------------------
    # Migration machinery
    # ------------------------------------------------------------------
    def _matched_target(self, core: int,
                        thread: TxnThread) -> Optional[int]:
        """The remote core whose L1-I signature best covers the thread's
        recent misses, or None if no core clears the match threshold.

        A core's score is how many probe blocks its L1-I holds (a
        duplicate counts each time it appears); the first core with
        the highest count wins, and only its count is divided by the
        probe length for the ``signature_match`` threshold.
        """
        probe = thread.recent_misses[-self.PROBE_BLOCKS:]
        if not probe:
            return None
        best_core = None
        best_count = 0
        for candidate, holds in enumerate(self._l1i_holds):
            if candidate == core:
                continue
            count = sum(map(holds, probe))
            if count > best_count:
                best_count = count
                best_core = candidate
        if best_core is not None and \
                best_count / len(probe) >= self.params.signature_match:
            return best_core
        return None

    def _migrate(self, src: int, dst: int, thread: TxnThread) -> None:
        engine = self.engine
        queue = self._queues[src]
        assert queue[0] is thread
        queue.popleft()
        # The context transfer occupies both cores and the interconnect.
        noc_cost = engine.hier.noc.latency(src, dst)
        cost = self.params.migration_cycles + noc_cost
        engine.charge(src, cost)
        engine.advance_clock(dst, engine.core_time[src])
        self._expand_clock += 1
        self._last_expand[dst] = self._expand_clock
        self._queues[dst].append(thread)
        thread.migrations += 1
        self.migrations += 1
        thread.recent_misses.clear()
        self._fill[thread.thread_id] = 0
        self._cooldown[thread.thread_id] = self.params.cooldown_events
        self.wake(dst)
