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
from repro.fastpath import nobatch_mode, reference_mode
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
        # The deepest specialization additionally requires always-MRU
        # age policies (LRU/FIFO) on the L1-I and L2 so fills can be
        # inlined as plain array stores.
        self._age_kernel = (
            self._fast_kernel
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
        # Hit-run fast-forward needs the age kernel, no armed oracles,
        # and no NOBATCH override; the per-core memo maps a run's
        # distinct-block tuple -> (residency signature, resident
        # slots).  The signature is out-of-band mutations (l1i.version
        # minus the fills the age loops accounted into it) plus the
        # fill counters of the sets the run involves -- all monotonic,
        # so a sum compares equal iff none of them moved.
        self._ff_enabled = (
            self._age_kernel
            and self.checker is None
            and not nobatch_mode()
        )
        if self._ff_enabled:
            self._ff_memos = [dict() for _ in range(config.num_cores)]
        # Maintained by the age loops even when fast-forward is off
        # (one int add per L1-I miss) so the signatures stay coherent.
        self._ff_fill_base = [0] * config.num_cores
        self._ff_set_fills = [
            [0] * self._l1i_sets for _ in range(config.num_cores)
        ]
        self.ff_runs = 0
        self.ff_memo_hits = 0

    # ------------------------------------------------------------------
    # Event replay
    # ------------------------------------------------------------------
    def run_events(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int = 0,
        stop_on_switch: bool = False,
        miss_log: Optional[list] = None,
        stop_after_misses: int = 0,
    ) -> int:
        """Replay up to ``max_events`` of ``thread`` on ``core``.

        Advances ``core_time[core]``; stops early if the thread finishes
        or (with ``stop_on_switch``) when :attr:`switch_requested` is set
        by the L1-I victim callback.  Missed instruction blocks are
        appended to ``miss_log`` when provided (SLICC's missed-tag
        queue); with ``stop_after_misses`` > 0 the slice also ends once
        that many misses accumulate in ``miss_log`` -- SLICC's burst
        detector must fire at the *start* of a cold segment, not after a
        whole slice has been fetched into the wrong core.

        Returns:
            The number of events executed.
        """
        if self._fast_kernel and not self.prefetcher_active:
            if self._age_kernel:
                if miss_log is None and not stop_on_switch:
                    return self._run_events_tight_age(
                        core, thread, max_events, tag)
                return self._run_events_fast_age(
                    core, thread, max_events, tag, stop_on_switch,
                    miss_log, stop_after_misses)
            return self._run_events_fast(core, thread, max_events, tag,
                                         stop_on_switch, miss_log,
                                         stop_after_misses)
        return self._run_events_general(core, thread, max_events, tag,
                                        stop_on_switch, miss_log,
                                        stop_after_misses)

    def _run_events_general(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int = 0,
        stop_on_switch: bool = False,
        miss_log: Optional[list] = None,
        stop_after_misses: int = 0,
    ) -> int:
        """The general event loop (also the reference kernel).

        Handles every feature: prefetchers, STREX switch monitoring,
        SLICC miss logging/bounding.  ``REPRO_SIM_REFERENCE=1`` routes
        all replay through this loop over the reference cache layout;
        the specialized loops below must match it bit for bit.
        """
        trace = thread.trace
        iblocks, ilens, dblocks, dwrites = trace.event_columns()
        pos = thread.pos
        end = min(len(iblocks), pos + max_events)
        hier = self.hier
        l1i = hier.l1i[core]
        l1i_access = l1i.access
        l1i_hit_latency = l1i.config.hit_latency
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
            if stop_on_switch and self.switch_requested:
                break
            if stop_after_misses and miss_log is not None \
                    and len(miss_log) >= stop_after_misses:
                break

        thread.pos = pos
        thread.instructions_done += instructions
        self.total_instructions += instructions
        self.core_time[core] += int(cycles)
        return pos - start

    def _run_events_fast(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int,
        stop_on_switch: bool,
        miss_log: Optional[list],
        stop_after_misses: int,
    ) -> int:
        """Specialized loop: inlined L1 probes, no prefetcher.

        Semantically identical to :meth:`_run_events_general` with
        ``use_prefetcher`` false.  The L1-I hit path is a single dict
        probe plus a tag store and an in-place recency bump (dispatched
        on ``policy.hit_mode``); L1-D read hits that cannot change
        directory state are resolved inline the same way.  Cycle
        additions happen in the same order with the same operands as
        the general loop, so the float total is bit-identical.
        """
        trace = thread.trace
        events = trace.packed_events(self._base_cpi, self._l1i_sets)
        pos = thread.pos
        end = min(len(events), pos + max_events)
        start = pos
        hier = self.hier
        l1i = hier.l1i[core]
        i_where_get = l1i._where.get
        i_tags = l1i._slot_tags
        i_pol = l1i.policy
        i_mode = i_pol.hit_mode
        i_ages = i_pol.hit_array
        i_miss_fill = l1i.miss_fill
        l1d = hier.l1d[core]
        d_where_get = l1d._where.get
        d_tags = l1d._slot_tags
        d_pol = l1d.policy
        d_mode = d_pol.hit_mode
        d_ages = d_pol.hit_array
        l1d_stats = l1d.stats
        l1d_hit_latency = l1d.config.hit_latency
        directory_get = hier._directory.get
        access_data = hier.access_data
        l2_access = hier._l2_access
        cycles = 0.0
        instructions = 0
        i_hits = 0
        d_hits = 0

        while pos < end:
            iblock, icycles, ilen, dblock, dwrite, iset = events[pos]
            instructions += ilen
            cycles += icycles
            slot = i_where_get(iblock)
            if slot is not None:
                i_hits += 1
                i_tags[slot] = tag
                if i_mode == "age":
                    tick = i_pol._tick
                    i_ages[slot] = tick
                    i_pol._tick = tick + 1
                elif i_mode == "zero":
                    i_ages[slot] = 0
                elif i_mode == "call":
                    i_pol.hit_slot(slot)
            else:
                i_miss_fill(iblock, tag, iset)
                cycles += l2_access(core, iblock)
                if miss_log is not None:
                    miss_log.append(iblock)
            if dblock >= 0:
                # Hits whose directory transition is a no-op -- reads
                # with no remote owner, writes already held exclusive
                # -- resolve inline (latency contribution is exactly
                # zero).  Everything else takes the full coherent path.
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
            pos += 1
            if stop_on_switch and self.switch_requested:
                break
            if stop_after_misses and miss_log is not None \
                    and len(miss_log) >= stop_after_misses:
                break

        l1i.stats.hits += i_hits
        l1d_stats.hits += d_hits
        thread.pos = pos
        thread.instructions_done += instructions
        self.total_instructions += instructions
        self.core_time[core] += int(cycles)
        return pos - start

    def _build_age_statics(self) -> List[tuple]:
        """Per-core local-variable bundles for the age-specialized loops.

        Everything here is structurally constant for the lifetime of the
        engine -- cache storage arrays are mutated in place, never
        rebound (:meth:`Cache.flush` honours this) -- so the loops pay
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

    def _run_events_tight_age(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int,
    ) -> int:
        """Tightest loop: the common configuration on LRU/FIFO caches.

        No prefetcher, no miss log, no switch monitoring -- the
        baseline/SMT schedulers and STREX outside its monitored window.
        The entire L1-I and L2 access/fill machinery is inlined as
        dict/array operations over the flat cache layout; replacement
        is the age-stamp dance directly.  Charges and side effects are
        ordered exactly as in :meth:`_run_events_general`.  With no
        early-exit conditions the event walk is a ``for`` over a list
        slice -- no per-event index arithmetic at all.

        When the trace has precomputed hit runs and fast-forwarding is
        enabled, the slice is delegated to
        :meth:`_run_events_tight_age_ff`, which retires whole
        instruction-only runs in bulk and falls back to this scalar
        walk chunk by chunk.
        """
        if self._ff_enabled:
            tables = thread.trace.run_tables(
                self._base_cpi, self._l1i_sets)
            if tables is not None:
                return self._run_events_tight_age_ff(
                    core, thread, max_events, tag, tables)
        (l1i, i_where, i_slot_blocks, i_tags, i_set_len,
         i_assoc, i_pol, i_ages, i_promote, hops_row, lat2_row,
         d_where_get, d_tags, d_pol, d_mode, d_ages, l1d_stats,
         l1d_hit_latency,
         l2_wheres, l2_blocks, l2_tagsl, l2_set_len, l2_pols,
         l2_agesl, l2_statsl, l2_cbs, l2_assoc, l2_nsets, l2_pot,
         l2_mask, l2_promote, num_cores, dram_access, directory_get,
         access_data) = self._age_statics[core]
        trace = thread.trace
        events = trace.packed_events(self._base_cpi, self._l1i_sets)
        i_victim_cb = l1i.victim_callback
        i_where_get = i_where.get
        i_tick = i_pol._tick
        set_fills = self._ff_set_fills[core]
        pos = thread.pos
        end = min(len(events), pos + max_events)
        # The loop cannot exit early, so the slice's instruction count
        # comes from the prefix sums rather than a per-event add.
        prefix = trace.instruction_prefix()
        instructions = prefix[end] - prefix[pos]
        cycles = 0.0
        i_hits = 0
        i_misses = 0
        i_evictions = 0
        d_hits = 0
        noc_hops = 0

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
                set_fills[iset] += 1
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
            if dblock >= 0:
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

        i_pol._tick = i_tick
        i_stats = l1i.stats
        i_stats.hits += i_hits
        i_stats.misses += i_misses
        i_stats.evictions += i_evictions
        # Bulk mutation-version accounting: each inline fill changed
        # L1-I residency once (the fast-forward memo keys on this).
        l1i.version += i_misses
        self._ff_fill_base[core] += i_misses
        l1d_stats.hits += d_hits
        # Exactly one L2 message crosses the torus per L1-I miss.
        self.hier.l2_demand_traffic += i_misses
        noc = self.hier.noc
        noc.messages += i_misses
        noc.total_hops += noc_hops
        thread.pos = end
        thread.instructions_done += instructions
        self.total_instructions += instructions
        self.core_time[core] += int(cycles)
        return end - pos

    def _run_events_tight_age_ff(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int,
        run_tables: tuple,
    ) -> int:
        """:meth:`_run_events_tight_age` with hit-run fast-forwarding.

        ``run_tables`` is the trace's precomputed
        :meth:`~repro.trace.trace.TransactionTrace.run_tables` pair:
        ``next_ff`` gives the next fast-forward candidate at or after
        any position, so events outside runs replay on the verbatim
        scalar chunks below; at a candidate, if every distinct block of
        the run is L1-I resident the whole run retires with bulk
        accounting -- per-event cycle terms are still accumulated
        sequentially (float addition is non-associative), hits are bulk
        counted, and under MRU promotion each block's age becomes the
        stamp of its *last* occurrence (``run_start_tick + offset``)
        with the tick advanced by the run length, exactly the scalar
        outcome.  A run only touches resident blocks, so no fill,
        eviction, victim callback, L2 or data-side effect is skipped.

        The residency probe is memoized per distinct-block tuple under
        a per-set residency signature: the sum of the involved sets'
        fill counters plus the cache's out-of-band mutation count
        (:attr:`Cache.version` net of the fills the age loops account
        into it -- flushes, invalidates, tag rewrites and any public
        access land there).  All components are monotonic, so the sum
        compares equal iff nothing touching an involved set changed;
        fills to *other* sets leave the memo valid.  Because the key
        is the run's content rather than its trace position, a
        successor thread replaying the same code-path phase against
        the same warm L1-I (the stratified-execution common case)
        reuses the predecessor's probe.
        """
        (l1i, i_where, i_slot_blocks, i_tags, i_set_len,
         i_assoc, i_pol, i_ages, i_promote, hops_row, lat2_row,
         d_where_get, d_tags, d_pol, d_mode, d_ages, l1d_stats,
         l1d_hit_latency,
         l2_wheres, l2_blocks, l2_tagsl, l2_set_len, l2_pols,
         l2_agesl, l2_statsl, l2_cbs, l2_assoc, l2_nsets, l2_pot,
         l2_mask, l2_promote, num_cores, dram_access, directory_get,
         access_data) = self._age_statics[core]
        trace = thread.trace
        events = trace.packed_events(self._base_cpi, self._l1i_sets)
        next_ff, runs = run_tables
        i_victim_cb = l1i.victim_callback
        i_where_get = i_where.get
        i_tick = i_pol._tick
        pos = thread.pos
        end = min(len(events), pos + max_events)
        prefix = trace.instruction_prefix()
        instructions = prefix[end] - prefix[pos]
        ff_memo = self._ff_memos[core]
        ff_memo_get = ff_memo.get
        set_fills = self._ff_set_fills[core]
        # Out-of-band mutation count: version bumps not accounted by
        # the age loops' bulk fill updates (flush, invalidate, tag
        # rewrites, any public access).  Constant within the slice.
        shock = l1i.version - self._ff_fill_base[core]
        cycles = 0.0
        i_hits = 0
        i_misses = 0
        i_evictions = 0
        d_hits = 0
        noc_hops = 0
        ff_runs = 0
        ff_memo_hits = 0

        p = pos
        while p < end:
            nf = next_ff[p]
            if nf > p:
                # Scalar chunk up to the next candidate run (or the
                # slice end); the body is the tight loop's, verbatim.
                stop = nf if nf < end else end
                for iblock, icycles, ilen, dblock, dwrite, iset in \
                        events[p:stop]:
                    cycles += icycles
                    slot = i_where_get(iblock)
                    if slot is not None:
                        i_hits += 1
                        i_tags[slot] = tag
                        if i_promote:
                            i_ages[slot] = i_tick
                            i_tick += 1
                    else:
                        i_misses += 1
                        set_fills[iset] += 1
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
                            i_evictions += 1
                            del i_where[victim]
                        i_slot_blocks[slot] = iblock
                        i_tags[slot] = tag
                        i_where[iblock] = slot
                        i_ages[slot] = i_tick
                        i_tick += 1
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
                                slot2 = blocks2.index(
                                    None, base2, base2 + l2_assoc)
                                l2_set_len[sid][set2] += 1
                            else:
                                ages2 = l2_agesl[sid]
                                segment = ages2[base2:base2 + l2_assoc]
                                slot2 = base2 + segment.index(
                                    min(segment))
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
                    if dblock >= 0:
                        slot = d_where_get(dblock)
                        entry = directory_get(dblock) \
                            if slot is not None else None
                        if entry is None:
                            cycles += (
                                access_data(core, dblock, dwrite)
                                - l1d_hit_latency
                            )
                        elif (
                            (entry.owner == core
                             and len(entry.sharers) == 1)
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
                p = stop
                continue
            # A candidate run starts exactly at p.
            (rend, run_cycles, distinct, last_offs, n_run,
             run_sets) = runs[p]
            took = False
            if rend <= end:
                sig = shock
                for fset in run_sets:
                    sig += set_fills[fset]
                memo = ff_memo_get(distinct)
                if memo is not None and memo[0] == sig:
                    slots = memo[1]
                    took = True
                    ff_memo_hits += 1
                else:
                    slots = []
                    slots_append = slots.append
                    for block in distinct:
                        fslot = i_where_get(block)
                        if fslot is None:
                            break
                        slots_append(fslot)
                    else:
                        took = True
                        ff_memo[distinct] = (sig, slots)
            if took:
                # Every block resident: the run is all hits, so no
                # state beyond ages/tags/stats can change -- retire it.
                ff_runs += 1
                for icycles in run_cycles:
                    cycles += icycles
                i_hits += n_run
                if i_promote:
                    for fslot, off in zip(slots, last_offs):
                        i_ages[fslot] = i_tick + off
                    i_tick += n_run
                for fslot in slots:
                    i_tags[fslot] = tag
                p = rend
                continue
            # Run not fully resident (or it straddles the slice end):
            # replay it scalar, then resume the run walk after it.
            stop = rend if rend < end else end
            for iblock, icycles, ilen, dblock, dwrite, iset in \
                    events[p:stop]:
                cycles += icycles
                slot = i_where_get(iblock)
                if slot is not None:
                    i_hits += 1
                    i_tags[slot] = tag
                    if i_promote:
                        i_ages[slot] = i_tick
                        i_tick += 1
                else:
                    i_misses += 1
                    set_fills[iset] += 1
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
                        i_evictions += 1
                        del i_where[victim]
                    i_slot_blocks[slot] = iblock
                    i_tags[slot] = tag
                    i_where[iblock] = slot
                    i_ages[slot] = i_tick
                    i_tick += 1
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
                if dblock >= 0:
                    slot = d_where_get(dblock)
                    entry = directory_get(dblock) \
                        if slot is not None else None
                    if entry is None:
                        cycles += (
                            access_data(core, dblock, dwrite)
                            - l1d_hit_latency
                        )
                    elif (
                        (entry.owner == core
                         and len(entry.sharers) == 1)
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
            p = stop

        i_pol._tick = i_tick
        i_stats = l1i.stats
        i_stats.hits += i_hits
        i_stats.misses += i_misses
        i_stats.evictions += i_evictions
        l1i.version += i_misses
        self._ff_fill_base[core] += i_misses
        l1d_stats.hits += d_hits
        self.hier.l2_demand_traffic += i_misses
        noc = self.hier.noc
        noc.messages += i_misses
        noc.total_hops += noc_hops
        self.ff_runs += ff_runs
        self.ff_memo_hits += ff_memo_hits
        thread.pos = end
        thread.instructions_done += instructions
        self.total_instructions += instructions
        self.core_time[core] += int(cycles)
        return end - pos

    def _run_events_fast_age(
        self,
        core: int,
        thread: TxnThread,
        max_events: int,
        tag: int,
        stop_on_switch: bool,
        miss_log: Optional[list],
        stop_after_misses: int,
    ) -> int:
        """:meth:`_run_events_tight_age` plus the monitored features.

        Handles STREX switch monitoring and SLICC miss logging/bounding
        with the same fully inlined cache machinery; only the per-event
        epilogue differs from the tight loop.

        Hit-run fast-forwarding applies here too, with extra guards: a
        fully resident run is all L1-I hits with no data-side events,
        so it can neither append to ``miss_log`` nor fire the victim
        callback that sets ``switch_requested`` -- monitoring state
        cannot change *during* the run.  It may already be armed at the
        run's start, though (the scalar loop would break after one more
        event), so a run is only retired in bulk when neither break
        condition currently holds.
        """
        (l1i, i_where, i_slot_blocks, i_tags, i_set_len,
         i_assoc, i_pol, i_ages, i_promote, hops_row, lat2_row,
         d_where_get, d_tags, d_pol, d_mode, d_ages, l1d_stats,
         l1d_hit_latency,
         l2_wheres, l2_blocks, l2_tagsl, l2_set_len, l2_pols,
         l2_agesl, l2_statsl, l2_cbs, l2_assoc, l2_nsets, l2_pot,
         l2_mask, l2_promote, num_cores, dram_access, directory_get,
         access_data) = self._age_statics[core]
        trace = thread.trace
        events = trace.packed_events(self._base_cpi, self._l1i_sets)
        i_victim_cb = l1i.victim_callback
        i_where_get = i_where.get
        i_tick = i_pol._tick
        pos = thread.pos
        end = min(len(events), pos + max_events)
        start = pos
        set_fills = self._ff_set_fills[core]
        next_ff = None
        if self._ff_enabled:
            tables = trace.run_tables(self._base_cpi, self._l1i_sets)
            if tables is not None:
                next_ff, runs = tables
                prefix = trace.instruction_prefix()
                ff_memo = self._ff_memos[core]
                ff_memo_get = ff_memo.get
                shock = l1i.version - self._ff_fill_base[core]
        cycles = 0.0
        instructions = 0
        i_hits = 0
        i_misses = 0
        i_evictions = 0
        d_hits = 0
        noc_hops = 0
        ff_runs = 0
        ff_memo_hits = 0

        while pos < end:
            if next_ff is not None and next_ff[pos] == pos:
                (rend, run_cycles, distinct, last_offs, n_run,
                 run_sets) = runs[pos]
                if rend <= end \
                        and not (stop_on_switch
                                 and self.switch_requested) \
                        and not (stop_after_misses
                                 and miss_log is not None
                                 and len(miss_log)
                                 >= stop_after_misses):
                    sig = shock
                    for fset in run_sets:
                        sig += set_fills[fset]
                    memo = ff_memo_get(distinct)
                    if memo is not None and memo[0] == sig:
                        slots = memo[1]
                        took = True
                        ff_memo_hits += 1
                    else:
                        took = False
                        slots = []
                        slots_append = slots.append
                        for block in distinct:
                            fslot = i_where_get(block)
                            if fslot is None:
                                break
                            slots_append(fslot)
                        else:
                            took = True
                            ff_memo[distinct] = (sig, slots)
                    if took:
                        ff_runs += 1
                        for icycles in run_cycles:
                            cycles += icycles
                        instructions += prefix[rend] - prefix[pos]
                        i_hits += n_run
                        if i_promote:
                            for fslot, off in zip(slots, last_offs):
                                i_ages[fslot] = i_tick + off
                            i_tick += n_run
                        for fslot in slots:
                            i_tags[fslot] = tag
                        pos = rend
                        continue
            iblock, icycles, ilen, dblock, dwrite, iset = events[pos]
            instructions += ilen
            cycles += icycles
            slot = i_where_get(iblock)
            if slot is not None:
                i_hits += 1
                i_tags[slot] = tag
                if i_promote:
                    i_ages[slot] = i_tick
                    i_tick += 1
            else:
                i_misses += 1
                set_fills[iset] += 1
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
                    i_evictions += 1
                    del i_where[victim]
                i_slot_blocks[slot] = iblock
                i_tags[slot] = tag
                i_where[iblock] = slot
                i_ages[slot] = i_tick
                i_tick += 1
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
            if dblock >= 0:
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
            pos += 1
            if stop_on_switch and self.switch_requested:
                break
            if stop_after_misses and miss_log is not None \
                    and len(miss_log) >= stop_after_misses:
                break

        i_pol._tick = i_tick
        i_stats = l1i.stats
        i_stats.hits += i_hits
        i_stats.misses += i_misses
        i_stats.evictions += i_evictions
        l1i.version += i_misses
        self._ff_fill_base[core] += i_misses
        l1d_stats.hits += d_hits
        self.hier.l2_demand_traffic += i_misses
        noc = self.hier.noc
        noc.messages += i_misses
        noc.total_hops += noc_hops
        self.ff_runs += ff_runs
        self.ff_memo_hits += ff_memo_hits
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
                sp.add("ff_runs", self.ff_runs)
                sp.add("ff_memo_hits", self.ff_memo_hits)
                tracer = obs.tracer()
                if tracer is not None:
                    metrics = tracer.metrics
                    metrics.inc("sim.runs")
                    metrics.inc("sim.events", sp.counters["events"])
                    metrics.inc(
                        "sim.instructions", self.total_instructions
                    )
            return result

    def _run(self, workload_name: str) -> RunResult:
        scheduler = self.scheduler
        scheduler.start()
        heap = [
            (self.core_time[core], core)
            for core in range(self.config.num_cores)
            if scheduler.has_work(core)
        ]
        heapq.heapify(heap)
        self._in_heap = {core for _, core in heap}
        checker = self.checker
        while self.finished_threads < len(self.threads):
            if not heap:
                raise RuntimeError(
                    "deadlock: unfinished threads but no runnable core"
                )
            _, core = heapq.heappop(heap)
            self._in_heap.discard(core)
            if not scheduler.has_work(core):
                continue
            scheduler.run_slice(core)
            if checker is not None:
                checker.after_slice(core)
            if scheduler.has_work(core):
                self._activate(heap, core)
            # Schedulers may have handed work to other (parked) cores.
            for other in scheduler.drain_wakeups():
                if scheduler.has_work(other):
                    self._activate(heap, other)

        return self._collect(workload_name)

    def _activate(self, heap: list, core: int) -> None:
        if core not in self._in_heap:
            heapq.heappush(heap, (self.core_time[core], core))
            self._in_heap.add(core)

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
