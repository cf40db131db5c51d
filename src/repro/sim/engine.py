"""The multicore simulation engine.

The engine replays a set of transaction traces over the memory hierarchy
under a pluggable scheduler.  Cores advance independent local clocks;
a min-heap interleaves them so that shared-L2 and coherence interactions
happen in approximately global time order, with each visit running a
bounded *slice* of events (scheduler-chosen, defaults to a few hundred).

Timing per event (DESIGN.md, decision 4)::

    cycles += ilen * base_cpi                 # pipeline throughput
            + (ifetch_latency - l1i_hit)      # instruction stall
            + (data_latency  - l1d_hit)       # data stall (if any)

L1 hit latency is folded into the base CPI (hits are pipelined); only
the excess over a hit stalls the core.

Two loops replay events, and an engine binds one at construction
(DESIGN.md, decision 12): the fast loop,
:meth:`SimulationEngine._run_events_general`, for every policy and
prefetcher, and with ``reference=True`` the reference loop of
:mod:`repro.verify.reference`.  They agree bit for bit.
"""

from __future__ import annotations

import heapq
from itertools import islice
from types import MethodType
from typing import Callable, List, Optional

from repro import obs
from repro.cache.hierarchy import MemoryHierarchy
from repro.config import SystemConfig
from repro.prefetch.base import InstructionPrefetcher, NoPrefetcher
from repro.sim.results import RunResult
from repro.sim.thread import TxnThread
from repro.trace.trace import TransactionTrace
from repro.verify.oracles import make_checker


class SimulationEngine:
    """Replays traces under a scheduler over a memory hierarchy.

    Args:
        config: the simulated system.
        traces: transaction traces, in arrival order.
        scheduler_factory: ``factory(engine) -> Scheduler``.
        prefetcher_factory: optional ``factory(num_cores) -> prefetcher``.
        reference: run the reference kernel -- the differential oracle
            of :mod:`repro.verify.reference` -- instead of the fast
            loop.  It is the only input to the choice of loop.
    """

    #: Default number of events per core visit.
    DEFAULT_SLICE_EVENTS = 384

    def __init__(
        self,
        config: SystemConfig,
        traces: List[TransactionTrace],
        scheduler_factory: Callable[["SimulationEngine"], "object"],
        prefetcher_factory: Optional[
            Callable[[int], InstructionPrefetcher]
        ] = None,
        reference: bool = False,
    ):
        if not traces:
            raise ValueError("need at least one trace")
        self.config = config
        prefetcher = (
            prefetcher_factory(config.num_cores)
            if prefetcher_factory
            else NoPrefetcher(config.num_cores)
        )
        self.prefetcher_active = prefetcher.name != "none"
        # The kernel is chosen here, once, as one of two loops.  The
        # reference kernel (``reference=True``) builds the reference
        # hierarchy and runs its own loop from repro.verify.reference,
        # which calls the cache layer for every step.  Every other
        # engine, with any policy and any prefetcher, runs the fast
        # loop over the flat layout.
        self.reference = reference
        if reference:
            from repro.verify.reference import (
                ReferenceHierarchy,
                run_events_reference,
            )

            self.hier = ReferenceHierarchy(config, prefetcher)
            self._loop = MethodType(run_events_reference, self)
        else:
            self.hier = MemoryHierarchy(config, prefetcher)
            self._general_statics = self._build_general_statics(traces)
            self._loop = self._run_events_general
        self.threads = [
            TxnThread(i, trace) for i, trace in enumerate(traces)
        ]
        self.core_time: List[int] = [0] * config.num_cores
        # Cycles a core spent idle-waiting (clock bumped forward to a
        # migration's arrival time); excluded from busy-time throughput.
        self.idle_cycles: List[int] = [0] * config.num_cores
        self.total_instructions = 0
        self.finished_threads = 0
        # Set by STREX's victim callback during run_events.
        self.switch_requested = False
        self.scheduler = scheduler_factory(self)
        # REPRO_SIM_CHECK=1 arms the invariant oracles; like the
        # kernel choice, the decision is latched at construction.
        self.checker = make_checker(self)
        # One add per kernel call (the slice-boundary count), made by
        # each loop itself.
        self.kernel_calls = 0
        # run_events *is* the bound loop: a slice pays no dispatch
        # frame.  A class whose run_events was replaced keeps its own.
        if type(self).run_events is _RUN_EVENTS:
            self.run_events = self._loop

    # ------------------------------------------------------------------
    # Event replay
    # ------------------------------------------------------------------
    def run_events(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int = 0,
        switch_floor: Optional[int] = None,
        miss_log: Optional[list] = None,
        stop_after_misses: int = 0,
    ) -> int:
        """Replay up to ``max_events`` of ``thread`` on ``core``.

        Advances ``core_time[core]``; stops early if the thread
        finishes.  With ``switch_floor`` set, the call also monitors
        :attr:`switch_requested` (set by the L1-I victim callback) and
        enforces STREX's forward-progress floor (DESIGN decision 8): it
        stops at the first request once at least ``switch_floor``
        events have run in this call.  An earlier request is absorbed:
        the flag is cleared, the cycles so far are truncated into
        ``core_time`` exactly as a call ending there would, and a fresh
        ``max_events`` quantum starts.  A request on the trace's last
        event is not absorbed; the flag stays set.  Missed instruction
        blocks are appended to ``miss_log`` when provided (SLICC's
        missed-tag queue); with ``stop_after_misses`` > 0 the slice
        also ends once that many misses accumulate in ``miss_log`` --
        SLICC's burst detector must fire at the *start* of a cold
        segment, not after a whole slice has been fetched into the
        wrong core.

        An engine binds this name at construction to its loop -- the
        fast loop, or the reference loop with ``reference=True`` -- so
        the call lands in the loop directly; the loop counts
        :attr:`kernel_calls`.

        Returns:
            The number of events executed.
        """
        return self._loop(core, thread, max_events, tag, switch_floor,
                          miss_log, stop_after_misses)

    def _build_general_statics(
        self, traces: List[TransactionTrace]
    ) -> List[tuple]:
        """Per-core local-variable bundles for the fast loop.

        Everything here is structurally constant for the lifetime of
        the engine -- cache storage arrays are mutated in place, never
        rebound -- so a slice pays one tuple unpack instead of dozens
        of attribute chases, and each policy's ``hit_mode`` and
        ``insert_mode`` are turned into flags once.  The L1-I victim
        callback is the one dynamic piece (STREX installs and removes
        it at runtime) and is fetched per call.  The prefetcher's hit
        hook is ``None`` unless it overrides
        :meth:`~repro.prefetch.base.InstructionPrefetcher.on_fetch`.

        ``icycles[ilen]`` is ``ilen * base_cpi``, the product the
        reference loop forms per event, formed once per ``ilen`` up to
        the traces' largest (:attr:`TransactionTrace.max_ilen`, at most
        the instructions one block holds), so the loop adds
        bit-identical cycles without a multiply per event.
        """
        hier = self.hier
        core_config = self.config.core
        cpi = core_config.base_cpi
        icycles = [ilen * cpi for ilen in range(
            1 + max(trace.max_ilen for trace in traces))]
        l2_caches = hier.l2
        l2 = l2_caches[0]
        l2_mru = l2.policy.insert_mode == "mru"
        prefetcher = hier.prefetcher
        demand_miss = on_hit = None
        if self.prefetcher_active:
            demand_miss = prefetcher.demand_miss
            if type(prefetcher).on_fetch is not \
                    InstructionPrefetcher.on_fetch:
                on_hit = prefetcher.on_fetch
        l2_shared = (
            [c._where for c in l2_caches],
            [c._slot_blocks for c in l2_caches],
            [c._slot_tags for c in l2_caches],
            [c._set_len for c in l2_caches],
            [c.policy.hit_array for c in l2_caches],
            [c.stats for c in l2_caches],
            [c.victim_callback for c in l2_caches],
            [c.miss_fill for c in l2_caches],
            [c.policy.orders for c in l2_caches] if l2_mru else None,
            l2.policy.hit_mode == "mru",
            l2.policy.hit_mode == "zero",
            l2.assoc,
            l2.num_sets,
            hier._num_cores,
            hier.dram.access,
            hier._directory.get,
            hier.access_data,
            demand_miss,
            on_hit,
            icycles,
            core_config.covered_stall_fraction,
        )
        statics = []
        for core in range(self.config.num_cores):
            l1i = hier.l1i[core]
            l1d = hier.l1d[core]
            i_pol = l1i.policy
            d_pol = l1d.policy
            statics.append((
                l1i,
                l1i._where,
                l1i._slot_blocks,
                l1i._slot_tags,
                l1i._set_len,
                l1i.assoc,
                l1i.num_sets,
                i_pol.hit_mode == "mru",
                i_pol.hit_mode == "zero",
                i_pol.hit_array,
                i_pol.orders if i_pol.insert_mode == "mru" else None,
                i_pol.on_miss if l1i._policy_has_on_miss else None,
                i_pol.replace,
                i_pol.insert_slot,
                hier.noc._hops[core],
                hier._l2_roundtrip[core],
                l1d._where.get,
                l1d._slot_tags,
                d_pol.hit_mode == "mru",
                d_pol.hit_mode == "zero",
                d_pol.hit_array,
                l1d.stats,
                l1d.config.hit_latency,
            ) + l2_shared)
        return statics

    def _run_events_general(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int = 0,
        switch_floor: Optional[int] = None,
        miss_log: Optional[list] = None,
        stop_after_misses: int = 0,
    ) -> int:
        """The fast loop: every policy, any prefetcher.

        Works over the flat cache layout, with the L1-I probe and
        fill, the home-slice L2 probe, the no-op-transition L1-D hit
        and -- for policies that always insert at MRU (LRU/FIFO) --
        the L2 fill inlined.  L1-I hits, misses and evictions, L1-D
        inline hits, L2 messages and NoC hops are counted in locals
        added once at exit.  A full set under an ``mru`` insert
        policy is filled by rotating its order list's LRU head to the
        MRU end; every other policy's full-set fill is one
        :meth:`~repro.cache.replacement.ReplacementPolicy.replace`
        call, its cold fill calls ``insert_slot`` and its L2 miss
        ``miss_fill``.  A prefetcher is called once per L1-I miss
        (:meth:`~repro.prefetch.base.InstructionPrefetcher.demand_miss`)
        and on a hit only if it overrides ``on_fetch``.

        **The walk.**  Each thread carries one ``zip`` iterator over
        its trace's four columns (:attr:`TxnThread.events`), bound on
        its first slice; a slice walks ``islice(events, end - pos)``
        and leaves it at the next unreplayed event, so resuming costs
        no re-slicing.  It stays in step with ``thread.pos`` because
        this loop is the only code that advances it.  Every event is
        exactly one L1-I hit or miss, so the position is ``start +
        i_hits + i_misses``, and the instruction count is summed from
        the ``ilens`` column once, at exit.

        **Monitoring.**  STREX's :attr:`switch_requested` is only set
        by the L1-I victim callback and SLICC's ``miss_log`` only
        grows on an L1-I miss, so only a miss can change monitoring
        state.  The miss branch raises a local ``flagged`` when it
        does, and the walk stops after that event's data side; the
        outer loop then applies the progress floor (absorb or stop)
        and the miss bound exactly as a per-event check would, and an
        absorbed request resumes the walk on a fresh quantum.
        ``flagged`` is seeded on entry: a request already pending, or
        a ``miss_log`` already at its bound, is acted on after exactly
        one event.  The reference loop,
        :func:`repro.verify.reference.run_events_reference`, makes
        every one of these steps a call and checks monitoring after
        every event; the parity tests require both to agree bit for
        bit.
        """
        (l1i, i_where, i_slot_blocks, i_tags, i_set_len, i_assoc,
         i_sets, i_promote, i_zero, i_hit_array, i_orders, i_on_miss,
         i_replace, i_insert, hops_row, lat2_row,
         d_where_get, d_tags, d_promote, d_zero, d_hit_array, l1d_stats,
         l1d_hit_latency,
         l2_wheres, l2_blocks, l2_tagsl, l2_set_lens, l2_hit_arrays,
         l2_statsl, l2_cbs, l2_miss_fills, l2_ordersl, l2_promote,
         l2_zero, l2_assoc, l2_nsets, num_cores, dram_access,
         directory_get, access_data, demand_miss, on_hit, icycles,
         covered_fraction) = self._general_statics[core]
        self.kernel_calls += 1
        events = thread.events
        if events is None:
            events = thread.events = zip(*thread.trace.event_columns())
        i_victim_cb = l1i.victim_callback
        i_where_get = i_where.get
        n_events = thread.n_events
        pos = thread.pos
        end = min(n_events, pos + max_events)
        start = pos
        monitor = switch_floor is not None
        # Seeded with the monitoring state the call was entered with.
        flagged = (monitor and self.switch_requested) or (
            stop_after_misses and miss_log is not None
            and len(miss_log) >= stop_after_misses)
        cycles = 0.0
        i_hits = 0
        i_misses = 0
        i_evictions = 0
        d_hits = 0
        noc_hops = 0

        while pos < end:
            for iblock, ilen, dblock, dwrite in islice(events, end - pos):
                cycles += icycles[ilen]
                slot = i_where_get(iblock)
                if slot is not None:
                    i_hits += 1
                    i_tags[slot] = tag
                    if i_promote:
                        order = i_hit_array[slot]
                        if order[-1] != slot:
                            order.remove(slot)
                            order.append(slot)
                    elif i_zero:
                        i_hit_array[slot] = 0
                    if on_hit is not None:
                        on_hit(core, iblock, True)
                else:
                    # L1-I miss: fill ...
                    i_misses += 1
                    iset = iblock % i_sets
                    if i_on_miss is not None:
                        i_on_miss(iset)
                    if i_set_len[iset] < i_assoc:
                        base = iset * i_assoc
                        slot = i_slot_blocks.index(None, base,
                                                   base + i_assoc)
                        i_set_len[iset] += 1
                        i_insert(slot)
                    else:
                        if i_orders is not None:
                            order = i_orders[iset]
                            slot = order.pop(0)
                            order.append(slot)
                        else:
                            slot = i_replace(iset)
                        victim = i_slot_blocks[slot]
                        if i_victim_cb is not None:
                            i_victim_cb(victim, i_tags[slot])
                            if monitor and self.switch_requested:
                                flagged = True
                        i_evictions += 1
                        del i_where[victim]
                    i_slot_blocks[slot] = iblock
                    i_tags[slot] = tag
                    i_where[iblock] = slot
                    # ... then the home L2 slice over the torus ...
                    sid = iblock % num_cores
                    noc_hops += hops_row[sid]
                    latency = lat2_row[sid]
                    where2 = l2_wheres[sid]
                    slot2 = where2.get(iblock)
                    if slot2 is not None:
                        l2_statsl[sid].hits += 1
                        if l2_promote:
                            order = l2_hit_arrays[sid][slot2]
                            if order[-1] != slot2:
                                order.remove(slot2)
                                order.append(slot2)
                        elif l2_zero:
                            l2_hit_arrays[sid][slot2] = 0
                        l2_tagsl[sid][slot2] = 0
                    else:
                        set2 = iblock % l2_nsets
                        if l2_ordersl is not None:
                            stats2 = l2_statsl[sid]
                            stats2.misses += 1
                            blocks2 = l2_blocks[sid]
                            order = l2_ordersl[sid][set2]
                            if l2_set_lens[sid][set2] < l2_assoc:
                                base2 = set2 * l2_assoc
                                slot2 = blocks2.index(None, base2,
                                                      base2 + l2_assoc)
                                l2_set_lens[sid][set2] += 1
                                order.remove(slot2)
                            else:
                                slot2 = order.pop(0)
                                victim = blocks2[slot2]
                                cb = l2_cbs[sid]
                                if cb is not None:
                                    cb(victim, l2_tagsl[sid][slot2])
                                stats2.evictions += 1
                                del where2[victim]
                            order.append(slot2)
                            blocks2[slot2] = iblock
                            l2_tagsl[sid][slot2] = 0
                            where2[iblock] = slot2
                        else:
                            l2_miss_fills[sid](iblock, 0, set2)
                        latency += dram_access(iblock)
                    # ... and ask the prefetcher, whose state no cache
                    # shares.
                    if demand_miss is not None \
                            and demand_miss(core, iblock):
                        # Prefetched, but the block still consumed L2
                        # bandwidth (the paper's partial contention
                        # model for PIF).
                        cycles += latency * covered_fraction
                    else:
                        cycles += latency
                    if miss_log is not None:
                        miss_log.append(iblock)
                        if stop_after_misses \
                                and len(miss_log) >= stop_after_misses:
                            flagged = True
                if dblock >= 0:
                    # Hits whose directory transition is a no-op --
                    # reads with no remote owner, writes already held
                    # exclusive -- resolve inline (latency contribution
                    # is exactly zero).  Everything else takes the full
                    # coherent path.
                    slot = d_where_get(dblock)
                    entry = directory_get(dblock) \
                        if slot is not None else None
                    if entry is not None and (
                        (entry.owner == core and len(entry.sharers) == 1)
                        if dwrite else
                        (core in entry.sharers
                         and (entry.owner is None
                              or entry.owner == core))
                    ):
                        d_hits += 1
                        d_tags[slot] = 0
                        if d_promote:
                            order = d_hit_array[slot]
                            if order[-1] != slot:
                                order.remove(slot)
                                order.append(slot)
                        elif d_zero:
                            d_hit_array[slot] = 0
                    else:
                        cycles += (
                            access_data(core, dblock, dwrite)
                            - l1d_hit_latency
                        )
                if flagged:
                    break
            else:
                pos = end
                break
            # Flagged: every event is exactly one L1-I hit or miss.
            pos = start + i_hits + i_misses
            flagged = False
            if monitor and self.switch_requested:
                if pos - start >= switch_floor or pos == n_events:
                    break
                # Below the progress floor: absorb the request.
                self.switch_requested = False
                self.core_time[core] += int(cycles)
                cycles = 0.0
                end = min(n_events, pos + max_events)
            if stop_after_misses and miss_log is not None \
                    and len(miss_log) >= stop_after_misses:
                break

        instructions = sum(thread.trace.ilens[start:pos])
        i_stats = l1i.stats
        i_stats.hits += i_hits
        i_stats.misses += i_misses
        i_stats.evictions += i_evictions
        l1d_stats.hits += d_hits
        # Exactly one L2 message crosses the torus per L1-I miss.
        hier = self.hier
        hier.l2_demand_traffic += i_misses
        noc = hier.noc
        noc.messages += i_misses
        noc.total_hops += noc_hops
        thread.pos = pos
        thread.instructions_done += instructions
        self.total_instructions += instructions
        self.core_time[core] += int(cycles)
        return pos - start

    # ------------------------------------------------------------------
    # Thread lifecycle helpers (called by schedulers)
    # ------------------------------------------------------------------
    def mark_started(self, core: int, thread: TxnThread) -> None:
        """Record a thread's first dispatch."""
        if thread.start_time is None:
            thread.start_time = self.core_time[core]

    def mark_finished(self, core: int, thread: TxnThread) -> None:
        """Record a thread's completion."""
        thread.finish_time = self.core_time[core]
        self.finished_threads += 1

    def charge(self, core: int, cycles: int) -> None:
        """Charge overhead cycles (context switch, migration) to a core."""
        self.core_time[core] += cycles

    def advance_clock(self, core: int, to_time: int) -> None:
        """Move a core's clock forward to ``to_time`` (idle waiting for
        an in-flight migration); the gap is recorded as idle, not busy."""
        gap = to_time - self.core_time[core]
        if gap > 0:
            self.core_time[core] = to_time
            self.idle_cycles[core] += gap

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, workload_name: str = "") -> RunResult:
        """Run all threads to completion and collect results.

        Observability follows the counter-only hot-path rule (DESIGN
        decision 17): one ``sim.run`` span wraps the whole simulation
        and the engine's existing counters are read once at the end --
        the event loops never call into the tracer.  When tracing is
        disarmed the only cost is building the span's tag dict.
        """
        span = obs.span(
            "sim.run",
            workload=workload_name or None,
            scheduler=self.scheduler.name,
            cores=self.config.num_cores,
            kernel="reference" if self.reference else "fast",
        )
        with span as sp:
            result = self._run(workload_name)
            if sp.armed:
                sp.add(
                    "events", sum(t.pos for t in self.threads)
                )
                sp.add("instructions", self.total_instructions)
                sp.add("kernel_calls", self.kernel_calls)
                tracer = obs.tracer()
                if tracer is not None:
                    metrics = tracer.metrics
                    metrics.inc("sim.runs")
                    metrics.inc("sim.events", sp.counters["events"])
                    metrics.inc(
                        "sim.instructions", self.total_instructions
                    )
                    metrics.inc("sim.kernel_calls", self.kernel_calls)
            return result

    def _run(self, workload_name: str) -> RunResult:
        """Run slices, earliest core clock first, until every thread
        finishes.

        The heap holds distinct ``(core_time, core)`` pairs, so a tie
        breaks by core id.  A core that still has work after its slice
        goes back in and the earliest comes out in one
        ``heappushpop``; it is the same core the push-then-pop pair
        would pick.  Wakeups are drained only when a slice queued
        some, and ``has_work`` is asked only of the core that just ran
        and of a core taken off the heap.
        """
        scheduler = self.scheduler
        scheduler.start()
        has_work = scheduler.has_work
        run_slice = scheduler.run_slice
        drain_wakeups = scheduler.drain_wakeups
        pending = scheduler.wakeups
        heappush = heapq.heappush
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        core_time = self.core_time
        heap = [
            (core_time[core], core)
            for core in range(self.config.num_cores)
            if has_work(core)
        ]
        heapq.heapify(heap)
        in_heap = [False] * self.config.num_cores
        for _, core in heap:
            in_heap[core] = True
        checker = self.checker
        num_threads = len(self.threads)
        core = -1  # no core chosen: take the earliest off the heap
        while self.finished_threads < num_threads:
            if core < 0:
                if not heap:
                    raise RuntimeError(
                        "deadlock: unfinished threads but no runnable core"
                    )
                core = heappop(heap)[1]
                in_heap[core] = False
                if not has_work(core):
                    core = -1
                    continue
            run_slice(core)
            if checker is not None:
                checker.after_slice(core)
            if pending:
                # The scheduler handed work to other (parked) cores.
                for other in drain_wakeups():
                    if other != core and not in_heap[other] \
                            and has_work(other):
                        heappush(heap, (core_time[other], other))
                        in_heap[other] = True
            if not has_work(core):
                core = -1
                continue
            chosen = heappushpop(heap, (core_time[core], core))[1]
            if chosen != core:
                in_heap[core] = True
                in_heap[chosen] = False
                core = chosen if has_work(chosen) else -1

        return self._collect(workload_name)

    def _collect(self, workload_name: str) -> RunResult:
        latencies = [
            t.latency for t in self.threads if t.latency is not None
        ]
        busy_cores = [t for t in self.core_time if t > 0]
        cycles = max(busy_cores) if busy_cores else 0
        result = RunResult(
            workload=workload_name,
            scheduler=self.scheduler.name,
            num_cores=self.config.num_cores,
            cycles=cycles,
            busy_cycles=sum(self.core_time) - sum(self.idle_cycles),
            instructions=self.total_instructions,
            i_misses=self.hier.instruction_misses(),
            d_misses=self.hier.data_misses(),
            transactions=len(self.threads),
            latencies=latencies,
            context_switches=sum(
                t.context_switches for t in self.threads
            ),
            migrations=sum(t.migrations for t in self.threads),
            coherence_misses=sum(self.hier.coherence_misses),
            l2_misses=sum(c.stats.misses for c in self.hier.l2),
            l2_traffic=self.hier.l2_demand_traffic,
            extra={
                "prefetch_coverage": self.hier.prefetcher.coverage,
                "l1i_evictions": sum(
                    c.stats.evictions for c in self.hier.l1i
                ),
            },
        )
        if self.checker is not None:
            self.checker.finalize(result)
        return result


#: The class's own ``run_events``; an engine binds its loop in its place
#: unless the class attribute was replaced.
_RUN_EVENTS = SimulationEngine.run_events
