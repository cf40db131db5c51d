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
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro import obs
from repro.cache.hierarchy import MemoryHierarchy
from repro.config import SystemConfig
from repro.fastpath import reference_mode
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
        # Kernel selection is latched at construction so one simulation
        # never mixes the fast and reference paths; the hierarchy below
        # reads the same flag when choosing its cache layout.
        self._fast_kernel = not reference_mode()
        self.hier = MemoryHierarchy(config, prefetcher)
        # The specialized loop requires always-MRU age policies
        # (LRU/FIFO) on the L1-I and L2 so fills can be inlined as
        # plain array stores, and no prefetcher.  Every other engine
        # (non-age policies, prefetchers, the reference kernel) runs
        # the general loop.
        self._age_kernel = (
            self._fast_kernel
            and not self.prefetcher_active
            and self.hier.l1i[0].policy.insert_mode == "age_mru"
            and self.hier.l2[0].policy.insert_mode == "age_mru"
        )
        self._base_cpi = config.core.base_cpi
        self._l1i_sets = self.hier.l1i[0].num_sets
        if self._age_kernel:
            self._age_statics = self._build_age_statics()
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
        # One add per run_events call (the slice-boundary count).
        self.kernel_calls = 0
        if self._age_kernel:
            self._bind_views()

    def _bind_views(self) -> None:
        """Bind each thread's age-loop kernel view once.

        ``(packed_events, instruction_prefix)``, so a slice pays one
        slot read instead of two memo-method calls.  Only age engines
        bind views: the general loop never reads packed events, and
        building them would only cost memory.
        """
        cpi = self._base_cpi
        num_sets = self._l1i_sets
        for thread in self.threads:
            trace = thread.trace
            thread.view = (
                trace.packed_events(cpi, num_sets),
                trace.instruction_prefix(),
            )

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

        Returns:
            The number of events executed.
        """
        self.kernel_calls += 1
        if self._age_kernel:
            return self._run_events_age(core, thread, max_events, tag,
                                        switch_floor, miss_log,
                                        stop_after_misses)
        return self._run_events_general(core, thread, max_events, tag,
                                        switch_floor, miss_log,
                                        stop_after_misses)

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
        """The general event loop (also the reference kernel).

        Handles every feature: prefetchers, STREX switch monitoring,
        SLICC miss logging/bounding.  ``REPRO_SIM_REFERENCE=1`` routes
        all replay through this loop over the reference cache layout;
        the age loop below must match it bit for bit.
        """
        trace = thread.trace
        iblocks, ilens, dblocks, dwrites = trace.event_columns()
        n_events = len(iblocks)
        pos = thread.pos
        end = min(n_events, pos + max_events)
        hier = self.hier
        l1i = hier.l1i[core]
        l1i_access = l1i.access
        # Over the flat layout the L1-I probe and a hit's update are
        # inlined: a method call per event would cost the non-age
        # policies several percent of a cell.  The reference layout
        # always calls access().
        flat = not l1i._reference
        if flat:
            i_where_get = l1i._where.get
            i_tags = l1i._slot_tags
            i_pol = l1i.policy
            i_mode = i_pol.hit_mode
            i_hit_array = i_pol.hit_array
            i_miss_fill = l1i.miss_fill
            i_mask = l1i._set_mask if l1i._power_of_two else None
            i_sets = l1i.num_sets
        i_hits = 0
        l1d_hit_latency = hier.l1d[core].config.hit_latency
        access_data = hier.access_data
        l2_access = hier._l2_access
        prefetcher = hier.prefetcher
        use_prefetcher = self.prefetcher_active
        cpi = self.config.core.base_cpi
        covered_fraction = self.config.core.covered_stall_fraction
        cycles = 0.0
        instructions = 0
        start = pos

        while pos < end:
            iblock = iblocks[pos]
            ilen = ilens[pos]
            instructions += ilen
            if flat:
                slot = i_where_get(iblock)
                hit = slot is not None
                if hit:
                    i_hits += 1
                    i_tags[slot] = tag
                    if i_mode == "age":
                        tick = i_pol._tick
                        i_hit_array[slot] = tick
                        i_pol._tick = tick + 1
                    elif i_mode == "zero":
                        i_hit_array[slot] = 0
                    elif i_mode == "call":
                        i_pol.hit_slot(slot)
                else:
                    i_miss_fill(iblock, tag, iblock & i_mask
                                if i_mask is not None else iblock % i_sets)
            else:
                hit = l1i_access(iblock, tag)
            cycles += ilen * cpi
            if not hit:
                if use_prefetcher:
                    covered = prefetcher.covers(core, iblock)
                    prefetcher.record(covered)
                    prefetcher.on_fetch(core, iblock, False)
                    latency = l2_access(core, iblock)
                    if covered:
                        # Prefetched, but the block still consumed L2
                        # bandwidth (the paper's partial contention
                        # model for PIF).
                        cycles += latency * covered_fraction
                    else:
                        cycles += latency
                else:
                    cycles += l2_access(core, iblock)
                if miss_log is not None:
                    miss_log.append(iblock)
            elif use_prefetcher:
                prefetcher.on_fetch(core, iblock, True)
            dblock = dblocks[pos]
            if dblock >= 0:
                cycles += (
                    access_data(core, dblock, dwrites[pos])
                    - l1d_hit_latency
                )
            pos += 1
            if switch_floor is not None and self.switch_requested:
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

        if flat:
            l1i.stats.hits += i_hits
        thread.pos = pos
        thread.instructions_done += instructions
        self.total_instructions += instructions
        self.core_time[core] += int(cycles)
        return pos - start

    def _build_age_statics(self) -> List[tuple]:
        """Per-core local-variable bundles for the age loop.

        Everything here is structurally constant for the lifetime of the
        engine -- cache storage arrays are mutated in place, never
        rebound (:meth:`Cache.flush` honours this) -- so the loop pays
        one tuple unpack per slice instead of dozens of attribute
        chases.  The L1-I victim callback is the one dynamic piece
        (STREX installs and removes it at runtime) and is fetched per
        call.
        """
        hier = self.hier
        l2_caches = hier.l2
        l2_shared = (
            [c._where for c in l2_caches],
            [c._slot_blocks for c in l2_caches],
            [c._slot_tags for c in l2_caches],
            [c._set_len for c in l2_caches],
            [c.policy for c in l2_caches],
            [c.policy._ages for c in l2_caches],
            [c.stats for c in l2_caches],
            [c.victim_callback for c in l2_caches],
            l2_caches[0].assoc,
            l2_caches[0].num_sets,
            l2_caches[0]._power_of_two,
            l2_caches[0]._set_mask,
            l2_caches[0].policy.promote_on_hit,
            hier._num_cores,
            hier.dram.access,
            hier._directory.get,
            hier.access_data,
        )
        statics = []
        for core in range(self.config.num_cores):
            l1i = hier.l1i[core]
            l1d = hier.l1d[core]
            statics.append((
                l1i,
                l1i._where,
                l1i._slot_blocks,
                l1i._slot_tags,
                l1i._set_len,
                l1i.assoc,
                l1i.policy,
                l1i.policy._ages,
                l1i.policy.promote_on_hit,
                hier.noc._hops[core],
                hier._l2_roundtrip[core],
                l1d._where.get,
                l1d._slot_tags,
                l1d.policy,
                l1d.policy.hit_mode,
                l1d.policy.hit_array,
                l1d.stats,
                l1d.config.hit_latency,
            ) + l2_shared)
        return statics

    def _run_events_age(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int,
        switch_floor: Optional[int],
        miss_log: Optional[list],
        stop_after_misses: int,
    ) -> int:
        """The specialized loop: LRU/FIFO caches, no prefetcher.

        The entire L1-I and L2 access/fill machinery is inlined as
        dict/array operations over the flat cache layout; replacement
        is the age-stamp dance directly.  Charges and side effects are
        ordered exactly as in :meth:`_run_events_general`, so every
        result is bit-identical to it.  The event walk is a ``for``
        over a list slice -- no per-event index arithmetic.

        **Monitoring.**  STREX's :attr:`switch_requested` is only set
        by the L1-I victim callback and SLICC's ``miss_log`` only grows
        on an L1-I miss, so only a miss can change monitoring state.
        The miss branch raises a local ``flagged`` when it does, and
        the walk stops after that event's data side; the outer loop
        then applies the progress floor (absorb or stop) and the miss
        bound exactly as a per-event check would, and an absorbed
        request resumes the walk on a fresh quantum.  ``flagged`` is
        seeded on entry: a request already pending, or a ``miss_log``
        already at its bound, is acted on after exactly one event.
        Every event is exactly one L1-I hit or miss, so the position
        is ``start + i_hits + i_misses``, and the instruction count
        comes from the prefix sums once, at the end.
        """
        (l1i, i_where, i_slot_blocks, i_tags, i_set_len,
         i_assoc, i_pol, i_ages, i_promote, hops_row, lat2_row,
         d_where_get, d_tags, d_pol, d_mode, d_ages, l1d_stats,
         l1d_hit_latency,
         l2_wheres, l2_blocks, l2_tagsl, l2_set_len, l2_pols,
         l2_agesl, l2_statsl, l2_cbs, l2_assoc, l2_nsets, l2_pot,
         l2_mask, l2_promote, num_cores, dram_access, directory_get,
         access_data) = self._age_statics[core]
        events, prefix = thread.view
        i_victim_cb = l1i.victim_callback
        i_where_get = i_where.get
        i_tick = i_pol._tick
        n_events = len(events)
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
            for iblock, icycles, ilen, dblock, dwrite, iset in \
                    events[pos:end]:
                cycles += icycles
                slot = i_where_get(iblock)
                if slot is not None:
                    i_hits += 1
                    i_tags[slot] = tag
                    if i_promote:
                        i_ages[slot] = i_tick
                        i_tick += 1
                else:
                    # L1-I miss: fill (evicting by oldest age) ...
                    i_misses += 1
                    base = iset * i_assoc
                    if i_set_len[iset] < i_assoc:
                        slot = i_slot_blocks.index(None, base,
                                                   base + i_assoc)
                        i_set_len[iset] += 1
                    else:
                        segment = i_ages[base:base + i_assoc]
                        slot = base + segment.index(min(segment))
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
                    i_ages[slot] = i_tick
                    i_tick += 1
                    # ... then the home L2 slice over the torus.
                    sid = iblock % num_cores
                    noc_hops += hops_row[sid]
                    latency = lat2_row[sid]
                    where2 = l2_wheres[sid]
                    slot2 = where2.get(iblock)
                    if slot2 is not None:
                        l2_statsl[sid].hits += 1
                        if l2_promote:
                            pol2 = l2_pols[sid]
                            l2_agesl[sid][slot2] = pol2._tick
                            pol2._tick += 1
                        l2_tagsl[sid][slot2] = 0
                    else:
                        stats2 = l2_statsl[sid]
                        stats2.misses += 1
                        set2 = (iblock & l2_mask) if l2_pot \
                            else (iblock % l2_nsets)
                        base2 = set2 * l2_assoc
                        blocks2 = l2_blocks[sid]
                        if l2_set_len[sid][set2] < l2_assoc:
                            slot2 = blocks2.index(None, base2,
                                                  base2 + l2_assoc)
                            l2_set_len[sid][set2] += 1
                        else:
                            ages2 = l2_agesl[sid]
                            segment = ages2[base2:base2 + l2_assoc]
                            slot2 = base2 + segment.index(min(segment))
                            victim = blocks2[slot2]
                            cb = l2_cbs[sid]
                            if cb is not None:
                                cb(victim, l2_tagsl[sid][slot2])
                            stats2.evictions += 1
                            del where2[victim]
                        blocks2[slot2] = iblock
                        l2_tagsl[sid][slot2] = 0
                        where2[iblock] = slot2
                        pol2 = l2_pols[sid]
                        l2_agesl[sid][slot2] = pol2._tick
                        pol2._tick += 1
                        latency += dram_access(iblock)
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
                    if entry is None:
                        cycles += (
                            access_data(core, dblock, dwrite)
                            - l1d_hit_latency
                        )
                    elif (
                        (entry.owner == core and len(entry.sharers) == 1)
                        if dwrite else
                        (core in entry.sharers
                         and (entry.owner is None
                              or entry.owner == core))
                    ):
                        d_hits += 1
                        d_tags[slot] = 0
                        if d_mode == "age":
                            tick = d_pol._tick
                            d_ages[slot] = tick
                            d_pol._tick = tick + 1
                        elif d_mode == "zero":
                            d_ages[slot] = 0
                        elif d_mode == "call":
                            d_pol.hit_slot(slot)
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
            if switch_floor is not None and self.switch_requested:
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

        instructions = prefix[pos] - prefix[start]
        i_pol._tick = i_tick
        i_stats = l1i.stats
        i_stats.hits += i_hits
        i_stats.misses += i_misses
        i_stats.evictions += i_evictions
        l1d_stats.hits += d_hits
        # Exactly one L2 message crosses the torus per L1-I miss.
        self.hier.l2_demand_traffic += i_misses
        noc = self.hier.noc
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
            kernel=(
                "age"
                if self._age_kernel
                else ("fast" if self._fast_kernel else "reference")
            ),
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
        scheduler = self.scheduler
        scheduler.start()
        has_work = scheduler.has_work
        run_slice = scheduler.run_slice
        drain_wakeups = scheduler.drain_wakeups
        heappush = heapq.heappush
        heappop = heapq.heappop
        core_time = self.core_time
        heap = [
            (core_time[core], core)
            for core in range(self.config.num_cores)
            if has_work(core)
        ]
        heapq.heapify(heap)
        in_heap = {core for _, core in heap}
        checker = self.checker
        num_threads = len(self.threads)
        while self.finished_threads < num_threads:
            if not heap:
                raise RuntimeError(
                    "deadlock: unfinished threads but no runnable core"
                )
            _, core = heappop(heap)
            in_heap.discard(core)
            if not has_work(core):
                continue
            run_slice(core)
            if checker is not None:
                checker.after_slice(core)
            if has_work(core):
                # Just popped, so never already queued.
                heappush(heap, (core_time[core], core))
                in_heap.add(core)
            # Schedulers may have handed work to other (parked) cores.
            for other in drain_wakeups():
                if has_work(other) and other not in in_heap:
                    heappush(heap, (core_time[other], other))
                    in_heap.add(other)

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
