"""Differential parity: fast kernel vs reference kernel.

The engine's specialized loops, flat cache layout, and order-list
replacement must not change a single simulated number.  Each test here
generates one trace set, runs it through both implementations *in the
same process* (``reference=True`` picks the reference kernel when the
engine is constructed), and asserts the full :class:`RunResult` dicts
are identical — cycles, MPKIs, coherence misses, NoC hops, everything.

Trace generation itself is hash-seed dependent (pre-existing seed
behaviour), which is why both paths must consume the *same* trace
objects rather than regenerating per path.
"""

import dataclasses
import json

import pytest

from repro import obs
from repro.config import tiny_scale
from repro.exp.diff import reference_diff
from repro.exp.spec import RunSpec
from repro.obs import TRACE_ENV
from repro.perf import run_bench
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.pif import PifIdealPrefetcher
from repro.sched.base import BaselineScheduler
from repro.sched.strex import StrexScheduler
from repro.sim.api import SCHEDULERS, simulate
from repro.sim.engine import SimulationEngine
from repro.trace.trace import TraceBuilder
from repro.verify import FuzzCase, hierarchy_state, run_case
from repro.workloads import WORKLOADS

POLICIES = ("lru", "fifo", "random", "lip", "bip", "dip",
            "srrip", "brrip")
TRANSACTIONS = 8


def _traces(workload: str, config, transactions: int = TRANSACTIONS):
    suite = WORKLOADS[workload](config.l1i_blocks, 1013)
    return suite.generate_mix(transactions, seed=1013)


def _assert_parity(config, traces, scheduler: str,
                   workload: str, **kwargs) -> None:
    fast = simulate(config, traces, scheduler, workload, **kwargs)
    ref = simulate(config, traces, scheduler, workload, reference=True,
                   **kwargs)
    assert fast.to_dict() == ref.to_dict()


class TestSchedulerMatrix:
    """Every scheduler, both workload suites, default (LRU) caches."""

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_scheduler_parity(self, scheduler, workload):
        config = tiny_scale()
        traces = _traces(workload, config)
        _assert_parity(config, traces, scheduler, workload)


class TestReplacementMatrix:
    """Every replacement policy on all three cache levels.

    ``base`` exercises the tightest specialized loop; ``strex`` adds
    victim callbacks, cache flushes, and tag resets on top of it.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scheduler", ("base", "strex"))
    def test_replacement_parity(self, policy, scheduler):
        config = tiny_scale().with_l1_replacement(policy)
        config = dataclasses.replace(
            config,
            l2_slice=dataclasses.replace(config.l2_slice,
                                         replacement=policy),
        )
        traces = _traces("tpcc", config)
        _assert_parity(config, traces, scheduler, "tpcc")


class TestOtherShapes:
    """Configurations off the common path."""

    def test_prefetcher_parity(self):
        # An active prefetcher forces the general loop on the fast
        # path, against the reference loop.
        config = tiny_scale()
        traces = _traces("tpcc", config)
        _assert_parity(config, traces, "base", "tpcc",
                       prefetcher="nextline")
        _assert_parity(config, traces, "strex", "tpcc",
                       prefetcher="pif")

    def test_non_power_of_two_cores(self):
        # 3 cores: non-square torus and modulo home-slice mapping.
        config = tiny_scale(num_cores=3)
        traces = _traces("tpcc", config)
        _assert_parity(config, traces, "base", "tpcc")
        _assert_parity(config, traces, "strex", "tpcc")

    def test_team_size_parity(self):
        config = tiny_scale()
        traces = _traces("tpcc", config)
        _assert_parity(config, traces, "strex", "tpcc",
                       team_size=2)


def _kernels_run(call) -> list:
    """The ``kernel`` tag of every ``sim.run`` span ``call()`` opens."""
    tracer = obs.Tracer()
    with obs.use(tracer):
        call()
    return [span.tags["kernel"] for span in tracer.ring
            if span.name == "sim.run"]


class TestDifferentialEntryPoints:
    """Each differential entry point really runs the reference kernel.

    ``repro diff --reference``, the fuzz harness and ``repro perf``
    compare a fast run with a reference run.  If one of them stopped
    forwarding ``reference=True``, both sides would run the fast
    kernel and every comparison would pass trivially.
    """

    def test_reference_diff(self):
        spec = RunSpec(workload="tpcc", scheduler="base", cores=2,
                       transactions=4, seed=7, scale="tiny")
        kernels = _kernels_run(lambda: reference_diff([spec]))
        assert kernels == ["fast", "reference"]

    def test_fuzz_harness(self):
        case = FuzzCase(name="t", config=tiny_scale(2).to_dict(),
                        scheduler="strex", workload="tpcc",
                        transactions=3, seed=5)
        outcomes = []
        kernels = _kernels_run(lambda: outcomes.append(run_case(case)))
        assert outcomes[0].ok
        assert kernels == ["fast", "reference"]

    def test_perf_reference_series(self):
        kernels = _kernels_run(lambda: run_bench(
            scale="tiny", transactions=2, repeats=1,
            schedulers=("base",)))
        # Warm-up pair, then the timed pair, then the scheduler run.
        assert kernels == ["fast", "reference", "fast", "reference", "fast"]


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
        fast = simulate(config, traces, scheduler, "tpcc")
        ref = simulate(config, traces, scheduler, "tpcc", reference=True)

        monkeypatch.setenv(TRACE_ENV, str(tmp_path / "trace.jsonl"))
        fast_traced = simulate(config, traces, scheduler, "tpcc")
        ref_traced = simulate(config, traces, scheduler, "tpcc",
                              reference=True)

        assert fast_traced.to_dict() == fast.to_dict()
        assert ref_traced.to_dict() == ref.to_dict()
        assert fast.to_dict() == ref.to_dict()
        # The traced runs really were traced, not silently disarmed.
        assert (tmp_path / "trace.jsonl").exists()


def _assert_state_parity(config, scheduler, prefetcher) -> None:
    traces = _traces("tpcc", config)
    states = []
    for reference in (False, True):
        engine = SimulationEngine(config, traces, scheduler, prefetcher,
                                  reference=reference)
        result = json.dumps(engine.run("tpcc").to_dict(), sort_keys=True)
        states.append((result, hierarchy_state(engine)))
    assert states[0] == states[1]
    # Every L1-I and L2 really evicted, so full-set fills ran.
    hier = engine.hier
    assert all(cache.stats.evictions for cache in hier.l1i + hier.l2)


PREFETCHERS = (None, NextLinePrefetcher, PifIdealPrefetcher)


class TestGeneralLoopCacheState:
    """The fast loop's inlined L1-I fill, home-slice L2 probe and fill
    and L1-D hit leave the hierarchy as the reference loop's calls do:
    every L1-I, L1-D and L2 counter, the L2 demand traffic, the NoC's
    messages and hops and the prefetcher's coverage counts, for every
    policy and with every prefetcher."""

    @pytest.mark.parametrize("prefetcher", PREFETCHERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_l1i_counters_match_reference(
            self, policy, prefetcher):
        # The L1s only, as in Fig. 9: the L2 stays LRU, so its inline
        # hit moves the slot to its set's MRU end.
        config = tiny_scale().with_l1_replacement(policy)
        _assert_state_parity(config, StrexScheduler, prefetcher)

    @pytest.mark.parametrize("prefetcher", PREFETCHERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_level_matches_reference(self, policy, prefetcher):
        config = tiny_scale().with_l1_replacement(policy)
        config = dataclasses.replace(
            config,
            l2_slice=dataclasses.replace(config.l2_slice,
                                         replacement=policy),
        )
        _assert_state_parity(config, BaselineScheduler, prefetcher)

    @pytest.mark.parametrize("prefetcher", PREFETCHERS[1:])
    def test_age_policies_with_a_prefetcher(self, prefetcher):
        # LRU with a prefetcher: the inlined order-list rotation fills
        # with the prefetcher's calls in between.
        _assert_state_parity(tiny_scale(), StrexScheduler, prefetcher)


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


#: STREX-monitored configuration -> (config transform, prefetcher
#: factory).  On the fast kernel all three take the one fast loop:
#: ``age`` (the key kept from when LRU without a prefetcher had a loop
#: of its own) is LRU, with the inlined rotation fills at the L1-I and
#: L2; ``fast`` is BIP, with ``replace``/``miss_fill`` calls; and
#: ``general`` is LRU with a prefetcher.  On the reference kernel all
#: three take the reference loop.
FLOOR_LOOPS = {
    "age": (lambda config: config, None),
    "fast": (lambda config: config.with_l1_replacement("bip"), None),
    "general": (lambda config: config, NextLinePrefetcher),
}


class TestStrexFloorInKernel:
    """One kernel call per STREX slice changes no simulated number."""

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    @pytest.mark.parametrize("floor", (None, 0, 1, 4, 10_000))
    def test_matches_multi_call_oracle(self, floor, loop,
                                       reference):
        transform, prefetcher = FLOOR_LOOPS[loop]
        config = transform(tiny_scale()).with_strex(
            min_progress_events=floor)
        traces = _traces("tpcc", config)
        engines = [
            SimulationEngine(config, traces, scheduler, prefetcher,
                             reference=reference)
            for scheduler in (StrexScheduler, MultiCallStrex)
        ]
        new, old = engines
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

    def _engine(self, loop, reference, extra):
        transform, prefetcher = FLOOR_LOOPS[loop]
        config = transform(tiny_scale(num_cores=1))
        assoc = config.l1i.assoc
        builder = TraceBuilder(0, "S")
        for k in range(assoc + extra):
            builder.append(k * config.l1i.num_sets, 10)
        engine = SimulationEngine(config, [builder.build()],
                                  BaselineScheduler, prefetcher,
                                  reference=reference)

        def request(block, tag):
            engine.switch_requested = True

        engine.hier.set_victim_callback(0, request)
        return engine, assoc

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    def test_request_on_last_event_is_not_absorbed(
            self, loop, reference):
        engine, assoc = self._engine(loop, reference, 2)
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
    def test_floor_bounds_the_stop(self, loop, reference):
        # Floor 1: stop at the first request.
        engine, assoc = self._engine(loop, reference, 3)
        executed = engine.run_events(0, engine.threads[0], 100,
                                     switch_floor=1)
        assert executed == assoc + 1
        assert engine.switch_requested
        # Floor assoc + 2: absorb the first request, stop at the next.
        engine, assoc = self._engine(loop, reference, 3)
        executed = engine.run_events(0, engine.threads[0], 100,
                                     switch_floor=assoc + 2)
        assert executed == assoc + 2
        assert not engine.threads[0].finished
        assert engine.switch_requested
        # No floor: the request is never watched.
        engine, assoc = self._engine(loop, reference, 3)
        assert engine.run_events(0, engine.threads[0], 100) == assoc + 3

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    def test_absorbed_request_rearms_the_quantum(self, loop,
                                                 reference):
        # A quantum ending right at the first request: absorbing it
        # starts a fresh quantum, so the call runs on past it.
        engine, assoc = self._engine(loop, reference, 3)
        executed = engine.run_events(0, engine.threads[0], assoc + 1,
                                     switch_floor=10_000)
        assert executed == assoc + 3
        assert engine.switch_requested

    def _one_block_engine(self, loop, reference, lengths):
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
        engine = SimulationEngine(config, traces, BaselineScheduler,
                                  prefetcher, reference=reference)
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
            self, loop, reference, entry, expected):
        engine = self._one_block_engine(loop, reference,
                                        (40,))
        engine.switch_requested = "switch_floor" in entry
        executed = engine.run_events(0, engine.threads[0], 30, **entry)
        assert (executed, engine.switch_requested,
                engine.core_time[0]) == expected

    @pytest.mark.parametrize("reference", (False, True))
    @pytest.mark.parametrize("loop", sorted(FLOOR_LOOPS))
    def test_pre_armed_entry_stops_after_one_event(self, loop,
                                                   reference):
        # The call starts on a 20-event hit run that fits the quantum,
        # which runs to the end when nothing is pending; a pending
        # request must still stop the call after one event.
        idle = self._one_block_engine(loop, reference,
                                      (1, 20))
        assert idle.run_events(0, idle.threads[1], 30,
                               switch_floor=1) == 20
        armed = self._one_block_engine(loop, reference,
                                       (1, 20))
        armed.switch_requested = True
        assert armed.run_events(0, armed.threads[1], 30,
                                switch_floor=1) == 1
        assert armed.switch_requested
        assert armed.core_time[0] == 127
