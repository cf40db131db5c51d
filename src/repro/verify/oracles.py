"""Invariant oracles for the simulation engine (``REPRO_SIM_CHECK=1``).

Every quantity the simulator reports is an aggregate of per-event
bookkeeping spread across four layers (trace replay, caches, NoC,
scheduler), so a bookkeeping bug usually *moves* a number rather than
crashing -- exactly the failure mode differential fuzzing is blind to
when it hits both kernels the same way.  The oracles close that gap:
with ``REPRO_SIM_CHECK=1`` in the environment, every
:class:`~repro.sim.engine.SimulationEngine` audits its own accounting
and raises :class:`InvariantViolation` at the first breach.

Two hook points:

* :meth:`InvariantChecker.after_slice` -- after every scheduler slice:
  core clocks and thread cursors are monotone, cursors stay in bounds,
  instruction totals never decrease.
* :meth:`InvariantChecker.finalize` -- on the finished
  :class:`~repro.sim.results.RunResult`: conservation (every trace
  event hits the L1-I exactly once, every data event the L1-D; L2
  demand traffic equals L1 misses), cache-stats sanity (misses <=
  accesses, evictions <= misses, occupancy <= capacity), phase-ID tag
  consistency (STREX tags stay inside ``[0, 2**phase_bits)``;
  non-STREX schedulers leave every tag zero; data-side tags are never
  phase-tagged), and reconciliation of every ``RunResult`` field
  against the engine/hierarchy state it was collected from (per-core
  busy time, IPC/throughput inputs, switch/migration/coherence
  counters).

The module is imported by ``repro.sim.engine`` at module level, so it
must stay dependency-light (stdlib only); the generators, the
differential harness and the reference kernel live in sibling modules
that are loaded lazily.

Checking is opt-in because the finalize pass walks every cache's
resident blocks; the fuzz harness (``python -m repro fuzz``) and the
engine edge-case tests arm it, production sweeps do not.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimulationEngine
    from repro.sim.results import RunResult

__all__ = [
    "CHECK_ENV",
    "InvariantChecker",
    "InvariantViolation",
    "check_mode",
    "make_checker",
]


#: Environment variable arming the engine's invariant oracles.  Any
#: value other than empty/"0" enables them.  An environment variable,
#: not an argument, so that it reaches pool workers.
CHECK_ENV = "REPRO_SIM_CHECK"


def check_mode() -> bool:
    """True when the engine's invariant oracles are armed."""
    return os.environ.get(CHECK_ENV, "") not in ("", "0")


class InvariantViolation(AssertionError):
    """The engine broke one of its own accounting invariants.

    Derives from :class:`AssertionError` so an armed run fails loudly
    under test harnesses that treat assertion failures specially; the
    message always starts with the violated oracle's name in square
    brackets.
    """


def make_checker(engine: "SimulationEngine") -> Optional["InvariantChecker"]:
    """The checker an engine should carry: one when armed, else None.

    The engine calls this once at construction (as it chooses its
    kernel), so flipping ``REPRO_SIM_CHECK`` mid-run never arms half a
    simulation.
    """
    return InvariantChecker(engine) if check_mode() else None


class InvariantChecker:
    """Audits one engine's bookkeeping as it runs.

    Constructed before the first slice, so the baseline snapshot sees
    the pristine engine; ``after_slice`` advances the snapshot,
    ``finalize`` cross-checks the collected result.
    """

    __slots__ = (
        "engine",
        "_last_core_time",
        "_last_pos",
        "_last_instructions",
        "_expected_events",
        "_expected_instructions",
        "_expected_data_events",
    )

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        self._last_core_time: List[int] = list(engine.core_time)
        self._last_pos: List[int] = [t.pos for t in engine.threads]
        self._last_instructions = engine.total_instructions
        traces = [t.trace for t in engine.threads]
        self._expected_events = sum(len(t) for t in traces)
        self._expected_instructions = sum(
            t.total_instructions for t in traces
        )
        self._expected_data_events = sum(
            1 for t in traces for d in t.event_columns()[2] if d >= 0
        )

    def _fail(self, oracle: str, detail: str) -> None:
        raise InvariantViolation(f"[{oracle}] {detail}")

    def _require(self, ok: bool, oracle: str, detail: str) -> None:
        if not ok:
            self._fail(oracle, detail)

    # ------------------------------------------------------------------
    # Per-slice checks
    # ------------------------------------------------------------------
    def after_slice(self, core: int) -> None:
        """Monotonicity checks after one ``scheduler.run_slice(core)``.

        Every core is checked, not just the sliced one: SLICC
        migrations charge and advance *other* cores' clocks, and those
        must move forward too.
        """
        engine = self.engine
        for c, now in enumerate(engine.core_time):
            if now < self._last_core_time[c]:
                self._fail(
                    "cycle-monotonic",
                    f"core {c} clock moved backwards "
                    f"({self._last_core_time[c]} -> {now}) after a "
                    f"slice on core {core}",
                )
            self._last_core_time[c] = now
        for i, thread in enumerate(engine.threads):
            pos = thread.pos
            if pos < self._last_pos[i]:
                self._fail(
                    "cursor-monotonic",
                    f"thread {i} trace cursor moved backwards "
                    f"({self._last_pos[i]} -> {pos})",
                )
            if pos > len(thread.trace):
                self._fail(
                    "cursor-bounds",
                    f"thread {i} cursor {pos} past trace end "
                    f"{len(thread.trace)}",
                )
            self._last_pos[i] = pos
        if engine.total_instructions < self._last_instructions:
            self._fail(
                "instruction-monotonic",
                f"total_instructions decreased "
                f"({self._last_instructions} -> "
                f"{engine.total_instructions})",
            )
        self._last_instructions = engine.total_instructions

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def finalize(self, result: "RunResult") -> None:
        """Full conservation + reconciliation audit of a finished run."""
        self._check_completion()
        self._check_conservation()
        self._check_cache_stats()
        self._check_tags()
        self._check_result(result)

    def _check_completion(self) -> None:
        engine = self.engine
        self._require(
            engine.finished_threads == len(engine.threads),
            "completion",
            f"finished_threads={engine.finished_threads} but "
            f"{len(engine.threads)} thread(s) exist",
        )
        for i, thread in enumerate(engine.threads):
            self._require(
                thread.pos == len(thread.trace),
                "completion",
                f"thread {i} stopped at event {thread.pos} of "
                f"{len(thread.trace)}",
            )
            self._require(
                thread.latency is not None,
                "completion",
                f"thread {i} finished without a latency "
                f"(start={thread.start_time}, "
                f"finish={thread.finish_time})",
            )

    def _check_conservation(self) -> None:
        """Every emitted trace event is consumed exactly once."""
        engine = self.engine
        hier = engine.hier
        i_accesses = sum(c.stats.accesses for c in hier.l1i)
        self._require(
            i_accesses == self._expected_events,
            "event-conservation",
            f"L1-I saw {i_accesses} accesses for "
            f"{self._expected_events} trace events",
        )
        d_accesses = sum(c.stats.accesses for c in hier.l1d)
        self._require(
            d_accesses == self._expected_data_events,
            "data-conservation",
            f"L1-D saw {d_accesses} accesses for "
            f"{self._expected_data_events} data events",
        )
        done = sum(t.instructions_done for t in engine.threads)
        self._require(
            engine.total_instructions == done,
            "instruction-conservation",
            f"engine total_instructions={engine.total_instructions} "
            f"!= sum of per-thread instructions_done={done}",
        )
        self._require(
            done == self._expected_instructions,
            "instruction-conservation",
            f"threads executed {done} instructions but traces "
            f"contain {self._expected_instructions}",
        )
        i_misses = hier.instruction_misses()
        d_misses = hier.data_misses()
        self._require(
            hier.l2_demand_traffic == i_misses + d_misses,
            "l2-traffic",
            f"L2 demand traffic {hier.l2_demand_traffic} != "
            f"L1 misses {i_misses} + {d_misses}",
        )
        l2_accesses = sum(c.stats.accesses for c in hier.l2)
        self._require(
            l2_accesses == hier.l2_demand_traffic,
            "l2-traffic",
            f"L2 slices saw {l2_accesses} accesses for "
            f"{hier.l2_demand_traffic} demand messages",
        )
        self._require(
            hier.noc.messages >= hier.l2_demand_traffic,
            "noc-messages",
            f"NoC carried {hier.noc.messages} messages for "
            f"{hier.l2_demand_traffic} L2 round trips",
        )

    def _check_cache_stats(self) -> None:
        engine = self.engine
        hier = engine.hier
        levels = (
            ("l1i", hier.l1i),
            ("l1d", hier.l1d),
            ("l2", hier.l2),
        )
        for level, caches in levels:
            for core, cache in enumerate(caches):
                stats = cache.stats
                self._require(
                    stats.hits >= 0 and stats.misses >= 0,
                    "stats-sane",
                    f"{level}[{core}] negative counters: "
                    f"hits={stats.hits} misses={stats.misses}",
                )
                self._require(
                    stats.evictions <= stats.misses,
                    "stats-sane",
                    f"{level}[{core}] evictions={stats.evictions} > "
                    f"misses={stats.misses}",
                )
                occupancy = cache.occupancy
                self._require(
                    occupancy <= cache.config.num_blocks,
                    "stats-sane",
                    f"{level}[{core}] occupancy={occupancy} > "
                    f"capacity={cache.config.num_blocks}",
                )
                resident = sum(1 for _ in cache.resident_blocks())
                self._require(
                    occupancy == resident,
                    "stats-sane",
                    f"{level}[{core}] occupancy={occupancy} != "
                    f"{resident} resident block(s)",
                )

    def _check_tags(self) -> None:
        """Phase-ID tagging consistency (STREX Section 4.2).

        STREX (and a hybrid that delegated to STREX) stamps L1-I
        blocks with the core's current phaseID, which wraps modulo
        ``2**phase_bits``; every other scheduler must leave the tag
        untouched at zero, and the data side is never phase-tagged.
        """
        engine = self.engine
        uses_tags = getattr(engine.scheduler, "uses_phase_tags", True)
        modulo = engine.config.strex.phase_modulo if uses_tags else 1
        for core, cache in enumerate(engine.hier.l1i):
            for block in cache.resident_blocks():
                tag = cache.tag_of(block)
                if tag is None or not 0 <= tag < modulo:
                    self._fail(
                        "phase-tags",
                        f"l1i[{core}] block {block} carries tag "
                        f"{tag!r} outside [0, {modulo}) under "
                        f"scheduler {engine.scheduler.name!r}",
                    )
        for level, caches in (("l1d", engine.hier.l1d),
                              ("l2", engine.hier.l2)):
            for core, cache in enumerate(caches):
                for block in cache.resident_blocks():
                    tag = cache.tag_of(block)
                    if tag != 0:
                        self._fail(
                            "phase-tags",
                            f"{level}[{core}] block {block} carries "
                            f"phase tag {tag!r}; only the L1-I is "
                            f"phase-tagged",
                        )

    def _check_result(self, result: "RunResult") -> None:
        """Reconcile every ``RunResult`` field with the engine state."""
        engine = self.engine
        hier = engine.hier
        checks = (
            ("instructions", result.instructions,
             engine.total_instructions),
            ("i_misses", result.i_misses, hier.instruction_misses()),
            ("d_misses", result.d_misses, hier.data_misses()),
            ("l2_traffic", result.l2_traffic, hier.l2_demand_traffic),
            ("l2_misses", result.l2_misses,
             sum(c.stats.misses for c in hier.l2)),
            ("coherence_misses", result.coherence_misses,
             sum(hier.coherence_misses)),
            ("transactions", result.transactions, len(engine.threads)),
            ("context_switches", result.context_switches,
             sum(t.context_switches for t in engine.threads)),
            ("migrations", result.migrations,
             sum(t.migrations for t in engine.threads)),
            ("num_cores", result.num_cores, engine.config.num_cores),
        )
        for name, reported, actual in checks:
            self._require(
                reported == actual,
                "result-reconciliation",
                f"RunResult.{name}={reported} but the engine "
                f"holds {actual}",
            )
        self._require(
            len(result.latencies) == len(engine.threads),
            "result-reconciliation",
            f"{len(result.latencies)} latencies for "
            f"{len(engine.threads)} finished thread(s)",
        )
        # Per-core busy time feeds IPC/throughput: each core's busy
        # share is non-negative and the total matches the result.
        busy = 0
        for core in range(engine.config.num_cores):
            share = engine.core_time[core] - engine.idle_cycles[core]
            self._require(
                share >= 0,
                "busy-time",
                f"core {core} idle {engine.idle_cycles[core]} cycles "
                f"of a {engine.core_time[core]}-cycle clock",
            )
            busy += share
        self._require(
            result.busy_cycles == busy,
            "busy-time",
            f"RunResult.busy_cycles={result.busy_cycles} but per-core "
            f"busy times sum to {busy}",
        )
        makespan = max(
            (t for t in engine.core_time if t > 0), default=0
        )
        self._require(
            result.cycles == makespan,
            "busy-time",
            f"RunResult.cycles={result.cycles} but the slowest busy "
            f"core reads {makespan}",
        )
        self._require(
            0 <= result.cycles and result.busy_cycles >= 0,
            "busy-time",
            f"negative time: cycles={result.cycles} "
            f"busy_cycles={result.busy_cycles}",
        )
