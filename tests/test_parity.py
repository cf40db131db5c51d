"""Differential parity: fast path vs ``REPRO_SIM_REFERENCE=1``.

The engine's specialized loops, flat cache layout, and age-counter
replacement must not change a single simulated number.  Each test here
generates one trace set, runs it through both implementations *in the
same process* (the path is latched when the engine is constructed, so
toggling the environment variable between constructions is enough), and
asserts the full :class:`RunResult` dicts are identical — cycles,
MPKIs, coherence misses, NoC hops, everything.

Trace generation itself is hash-seed dependent (pre-existing seed
behaviour), which is why both paths must consume the *same* trace
objects rather than regenerating per path.
"""

import dataclasses
import json

import pytest

from repro.config import tiny_scale
from repro.fastpath import ENV_VAR, reference_mode
from repro.obs import TRACE_ENV
from repro.prefetch.nextline import NextLinePrefetcher
from repro.sched.base import BaselineScheduler
from repro.sched.strex import StrexScheduler
from repro.sim.api import SCHEDULERS, simulate
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TraceBuilder
from repro.workloads import WORKLOADS

POLICIES = ("lru", "fifo", "random", "lip", "bip", "dip",
            "srrip", "brrip")
TRANSACTIONS = 8


def _traces(workload: str, config, transactions: int = TRANSACTIONS):
    suite = WORKLOADS[workload](config.l1i_blocks, 1013)
    return suite.generate_mix(transactions, seed=1013)


def _assert_parity(monkeypatch, config, traces, scheduler: str,
                   workload: str, **kwargs) -> None:
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert not reference_mode()
    fast = simulate(config, traces, scheduler, workload, **kwargs)
    monkeypatch.setenv(ENV_VAR, "1")
    assert reference_mode()
    ref = simulate(config, traces, scheduler, workload, **kwargs)
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert fast.to_dict() == ref.to_dict()


class TestSchedulerMatrix:
    """Every scheduler, both workload suites, default (LRU) caches."""

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_scheduler_parity(self, monkeypatch, scheduler, workload):
        config = tiny_scale()
        traces = _traces(workload, config)
        _assert_parity(monkeypatch, config, traces, scheduler, workload)


class TestReplacementMatrix:
    """Every replacement policy on all three cache levels.

    ``base`` exercises the tightest specialized loop; ``strex`` adds
    victim callbacks, cache flushes, and tag resets on top of it.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", ("base", "strex"))
    def test_replacement_parity(self, monkeypatch, policy, scheduler):
        config = tiny_scale().with_l1_replacement(policy)
        config = dataclasses.replace(
            config,
            l2_slice=dataclasses.replace(config.l2_slice,
                                         replacement=policy),
        )
        traces = _traces("tpcc", config)
        _assert_parity(monkeypatch, config, traces, scheduler, "tpcc")


class TestOtherShapes:
    """Configurations off the common path."""

    def test_prefetcher_parity(self, monkeypatch):
        # An active prefetcher forces the general loop on the fast
        # path, so this pins down cache-layer (not loop) parity.
        config = tiny_scale()
        traces = _traces("tpcc", config)
        _assert_parity(monkeypatch, config, traces, "base", "tpcc",
                       prefetcher="nextline")
        _assert_parity(monkeypatch, config, traces, "strex", "tpcc",
                       prefetcher="tifs")

    def test_non_power_of_two_cores(self, monkeypatch):
        # 3 cores: non-square torus and modulo home-slice mapping.
        config = tiny_scale(num_cores=3)
        traces = _traces("tpcc", config)
        _assert_parity(monkeypatch, config, traces, "base", "tpcc")
        _assert_parity(monkeypatch, config, traces, "strex", "tpcc")

    def test_team_size_parity(self, monkeypatch):
        config = tiny_scale()
        traces = _traces("tpcc", config)
        _assert_parity(monkeypatch, config, traces, "strex", "tpcc",
                       team_size=2)


class TestTracedParity:
    """Arming ``REPRO_TRACE`` must never perturb the simulation.

    The observability layer is counter-only on the hot path (DESIGN
    decision 17); these tests pin the stronger user-visible claim: a
    traced run is byte-identical to an untraced one, under both
    kernels.
    """

    @pytest.mark.parametrize("scheduler", ("base", "strex"))
    def test_traced_runs_are_byte_identical(self, monkeypatch,
                                            tmp_path, scheduler):
        config = tiny_scale()
        traces = _traces("tpcc", config)
        monkeypatch.delenv(TRACE_ENV, raising=False)
        monkeypatch.delenv(ENV_VAR, raising=False)
        fast = simulate(config, traces, scheduler, "tpcc")
        monkeypatch.setenv(ENV_VAR, "1")
        ref = simulate(config, traces, scheduler, "tpcc")

        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "trace.jsonl"))
        monkeypatch.delenv(ENV_VAR, raising=False)
        fast_traced = simulate(config, traces, scheduler, "tpcc")
        monkeypatch.setenv(ENV_VAR, "1")
        ref_traced = simulate(config, traces, scheduler, "tpcc")

        assert fast_traced.to_dict() == fast.to_dict()
        assert ref_traced.to_dict() == ref.to_dict()
        assert fast.to_dict() == ref.to_dict()
        # The traced runs really were traced, not silently disarmed.
        assert (tmp_path / "trace.jsonl").exists()


class TestGeneralLoopCacheState:
    """The general loop's inlined L1-I probe over the flat layout leaves
    every L1-I as ``access()`` would: the same counters as the
    reference layout, for each hit mode (none, age with set dueling,
    age, zero), with and without a prefetcher."""

    @pytest.mark.parametrize("prefetcher", (None, NextLinePrefetcher))
    @pytest.mark.parametrize("policy", ("random", "dip", "bip", "srrip"))
    def test_l1i_counters_and_version_match_reference(
            self, monkeypatch, policy, prefetcher):
        config = tiny_scale().with_l1_replacement(policy)
        traces = _traces("tpcc", config)
        states = []
        for reference in (False, True):
            _set_kernel(monkeypatch, reference)
            engine = SimulationEngine(config, traces, StrexScheduler,
                                      prefetcher)
            assert not engine._age_kernel
            result = json.dumps(engine.run("tpcc").to_dict(),
                                sort_keys=True)
            states.append((result, [
                cache.stats.snapshot() for cache in engine.hier.l1i]))
        assert states[0] == states[1]


class MultiCallStrex(StrexScheduler):
    """STREX with the progress floor enforced outside the kernel.

    The oracle for the in-kernel floor: the original slice re-entered
    ``run_events`` after every early victim.  Each call stops at the
    first switch request (``switch_floor=0``); the scheduler absorbs
    requests -- one kernel call each -- until the slice has run
    ``min_progress`` events or the thread finishes.
    """

    def start(self) -> None:
        super().start()
        engine = self.engine
        kernel = engine.run_events

        def multi_call(core, thread, max_events, tag, switch_floor):
            executed = 0
            while True:
                executed += kernel(core, thread, max_events, tag=tag,
                                   switch_floor=0)
                if thread.finished or not engine.switch_requested:
                    break
                if executed >= switch_floor:
                    break
                engine.switch_requested = False
            return executed

        engine.run_events = multi_call


#: STREX-monitored loop -> (config transform, prefetcher factory).  LRU
#: takes the age loop; BIP takes the general loop over the flat caches
#: (the key keeps the name of the non-age loop it once had, so test ids
#: stay put), and a prefetcher the general loop too; under
#: ``REPRO_SIM_REFERENCE=1`` all three take the general loop over the
#: reference caches.
FLOOR_LOOPS = {
    "age": (lambda config: config, None),
    "fast": (lambda config: config.with_l1_replacement("bip"), None),
    "general": (lambda config: config, NextLinePrefetcher),
}


def _set_kernel(monkeypatch, reference: bool) -> None:
    if reference:
        monkeypatch.setenv(ENV_VAR, "1")
    else:
        monkeypatch.delenv(ENV_VAR, raising=False)


class TestStrexFloorInKernel:
    """One kernel call per STREX slice changes no simulated number."""

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    @pytest.mark.parametrize("floor", (None, 0, 1, 4, 10_000))
    def test_matches_multi_call_oracle(self, monkeypatch, floor, loop,
                                       reference):
        transform, prefetcher = FLOOR_LOOPS[loop]
        config = transform(tiny_scale()).with_strex(
            min_progress_events=floor)
        traces = _traces("tpcc", config)
        _set_kernel(monkeypatch, reference)
        engines = [
            SimulationEngine(config, traces, scheduler, prefetcher)
            for scheduler in (StrexScheduler, MultiCallStrex)
        ]
        new, old = engines
        assert new._age_kernel == (loop == "age" and not reference)
        assert new.prefetcher_active == (loop == "general")
        results = [
            json.dumps(engine.run("tpcc").to_dict(), sort_keys=True)
            for engine in engines
        ]
        assert results[0] == results[1]
        # The oracle pays one call per absorbed request; the in-kernel
        # floor must really have absorbed some for the check to bite.
        if floor in (None, 4, 10_000):
            assert new.kernel_calls < old.kernel_calls
        else:
            assert new.kernel_calls == old.kernel_calls


class TestSwitchFloorEdges:
    """Direct ``run_events`` calls on a trace that overflows one set.

    Blocks ``k * num_sets`` all map to set 0, so event ``assoc`` (the
    first block past the set's ways) evicts, as does every later one;
    the victim callback raises a switch request on each eviction.
    """

    def _engine(self, monkeypatch, loop, reference, extra):
        transform, prefetcher = FLOOR_LOOPS[loop]
        config = transform(tiny_scale(num_cores=1))
        assoc = config.l1i.assoc
        builder = TraceBuilder(0, "S")
        for k in range(assoc + extra):
            builder.append(k * config.l1i.num_sets, 10)
        _set_kernel(monkeypatch, reference)
        engine = SimulationEngine(config, [builder.build()],
                                  BaselineScheduler, prefetcher)

        def request(block, tag):
            engine.switch_requested = True

        engine.hier.set_victim_callback(0, request)
        return engine, assoc

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    def test_request_on_last_event_is_not_absorbed(
            self, monkeypatch, loop, reference):
        engine, assoc = self._engine(monkeypatch, loop, reference, 2)
        thread = engine.threads[0]
        executed = engine.run_events(0, thread, 100, switch_floor=10_000)
        # The request at event ``assoc`` was absorbed; the one on the
        # trace's last event survives the call.
        assert executed == thread.n_events == assoc + 2
        assert thread.finished
        assert engine.switch_requested
        assert engine.kernel_calls == 1

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    def test_floor_bounds_the_stop(self, monkeypatch, loop, reference):
        # Floor 1: stop at the first request.
        engine, assoc = self._engine(monkeypatch, loop, reference, 3)
        executed = engine.run_events(0, engine.threads[0], 100,
                                     switch_floor=1)
        assert executed == assoc + 1
        assert engine.switch_requested
        # Floor assoc + 2: absorb the first request, stop at the next.
        engine, assoc = self._engine(monkeypatch, loop, reference, 3)
        executed = engine.run_events(0, engine.threads[0], 100,
                                     switch_floor=assoc + 2)
        assert executed == assoc + 2
        assert not engine.threads[0].finished
        assert engine.switch_requested
        # No floor: the request is never watched.
        engine, assoc = self._engine(monkeypatch, loop, reference, 3)
        assert engine.run_events(0, engine.threads[0], 100) == assoc + 3

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    def test_absorbed_request_rearms_the_quantum(self, monkeypatch, loop,
                                                 reference):
        # A quantum ending right at the first request: absorbing it
        # starts a fresh quantum, so the call runs on past it.
        engine, assoc = self._engine(monkeypatch, loop, reference, 3)
        executed = engine.run_events(0, engine.threads[0], assoc + 1,
                                     switch_floor=10_000)
        assert executed == assoc + 3
        assert engine.switch_requested

    def _one_block_engine(self, monkeypatch, loop, reference, lengths):
        """Threads that each repeat block 0, ``lengths`` events apiece,
        after a one-event warm-up call on the first thread.

        After the warm-up miss every event is an instruction-only L1-I
        hit, so no miss inside a later call can arm monitoring -- only
        the state the call was entered with.
        """
        transform, prefetcher = FLOOR_LOOPS[loop]
        config = transform(tiny_scale(num_cores=1))
        traces = []
        for txn_id, length in enumerate(lengths):
            builder = TraceBuilder(txn_id, "S")
            for _ in range(length):
                builder.append(0, 10)
            traces.append(builder.build())
        _set_kernel(monkeypatch, reference)
        engine = SimulationEngine(config, traces, BaselineScheduler,
                                  prefetcher)
        assert engine.run_events(0, engine.threads[0], 1) == 1
        return engine

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    @pytest.mark.parametrize("entry, expected", [
        # A pending request under floor 1 stops after one event ...
        (dict(switch_floor=1), (1, True, 127)),
        # ... under floor 5 it is absorbed after one event, re-arming
        # the quantum (1 + 30 events).
        (dict(switch_floor=5), (31, False, 217)),
        # A miss log already past its bound stops after one event.
        (dict(miss_log=[1, 2, 3], stop_after_misses=2), (1, False, 127)),
    ], ids=("pending-floor-1", "pending-floor-5", "miss-log-full"))
    def test_pre_armed_entry_acts_after_one_event(
            self, monkeypatch, loop, reference, entry, expected):
        engine = self._one_block_engine(monkeypatch, loop, reference,
                                        (40,))
        engine.switch_requested = "switch_floor" in entry
        executed = engine.run_events(0, engine.threads[0], 30, **entry)
        assert (executed, engine.switch_requested,
                engine.core_time[0]) == expected

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    def test_pre_armed_entry_blocks_bulk_retire(self, monkeypatch, loop,
                                                reference):
        # The call starts on a 20-event hit run that fits the quantum,
        # which runs to the end when nothing is pending; a pending
        # request must still stop the call after one event.
        idle = self._one_block_engine(monkeypatch, loop, reference,
                                      (1, 20))
        assert idle.run_events(0, idle.threads[1], 30,
                               switch_floor=1) == 20
        armed = self._one_block_engine(monkeypatch, loop, reference,
                                       (1, 20))
        armed.switch_requested = True
        assert armed.run_events(0, armed.threads[1], 30,
                                switch_floor=1) == 1
        assert armed.switch_requested
        assert armed.core_time[0] == 127
