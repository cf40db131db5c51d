"""STREX: stratified transaction execution (Section 4).

The synchronization algorithm (Section 4.2), implemented literally:

1. Same-type transactions are grouped into teams (team formation unit)
   and each team is placed into the hardware thread queue of a core; the
   first transaction in the queue is the *lead*.
2. A per-core ``phaseID`` counter synchronizes execution.  Every L1-I
   block a transaction touches is tagged with the current phaseID (hit or
   miss).  Whenever the lead resumes execution, the phaseID increments.
3. A victim monitor watches L1-I evictions.  Evicting a block tagged with
   the *current* phaseID means the running transaction has started to
   destroy the code segment of the ongoing phase: it is context-switched
   to the back of the thread queue and the next transaction resumes.
4. If the lead terminates, the next thread in the queue becomes the lead.
5. Threads run round-robin until all complete; the core then takes the
   next team.

The phaseID tag lives in the auxiliary phaseID table (PIDT) -- here, the
per-block metadata tag of :class:`repro.cache.cache.Cache` -- and the
counter wraps modulo ``2**phase_bits`` (paper: 8-bit).  Context switches
save/restore architectural state to the nearest L2 slice, charged as
``context_switch_cycles``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.teams import Team, TeamFormationUnit
from repro.sched.base import Scheduler
from repro.sim.thread import TxnThread


class StrexCoreState:
    """Per-core STREX scheduler state (thread queue + phase machinery)."""

    __slots__ = ("queue", "lead", "phase", "lead_should_increment")

    def __init__(self) -> None:
        self.queue: Deque[TxnThread] = deque()
        self.lead: Optional[TxnThread] = None
        self.phase = 0
        self.lead_should_increment = True


class StrexScheduler(Scheduler):
    """The STREX thread scheduler unit."""

    name = "strex"
    uses_phase_tags = True

    def __init__(self, engine, team_size: Optional[int] = None,
                 slice_events: Optional[int] = None):
        super().__init__(engine)
        config = engine.config
        strex = config.strex
        self.team_size = team_size if team_size is not None \
            else strex.team_size
        self.slice_events = slice_events or engine.DEFAULT_SLICE_EVENTS
        self.phase_modulo = strex.phase_modulo
        self.context_switch_cycles = strex.context_switch_cycles
        self.min_progress = (
            strex.min_progress_events
            if strex.min_progress_events is not None
            else config.l1i.num_blocks
        )
        self._formation = TeamFormationUnit(self.team_size, strex.window)
        self._team_queue: Deque[Team] = deque()
        self._cores = [StrexCoreState()
                       for _ in range(config.num_cores)]
        self.teams_formed = 0
        self.context_switches = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def start(self) -> None:
        teams = self._formation.form_teams(self.engine.threads)
        self.teams_formed = len(teams)
        self._team_queue = deque(teams)
        for core in range(len(self._cores)):
            self._install_victim_monitor(core)
            self._next_team(core)

    def _install_victim_monitor(self, core: int) -> None:
        state = self._cores[core]
        engine = self.engine

        def on_victim(block: int, tag: int) -> None:
            if tag == state.phase:
                engine.switch_requested = True

        engine.hier.set_victim_callback(core, on_victim)

    def _next_team(self, core: int) -> None:
        state = self._cores[core]
        if not self._team_queue:
            return
        team = self._team_queue.popleft()
        state.queue = deque(team.threads)
        state.lead = state.queue[0]
        state.lead_should_increment = True

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def has_work(self, core: int) -> bool:
        return bool(self._cores[core].queue)

    def run_slice(self, core: int) -> None:
        engine = self.engine
        state = self._cores[core]
        if not state.queue:
            return
        thread = state.queue[0]
        engine.mark_started(core, thread)
        # Step 2: the lead's resumption advances the phase.
        if thread is state.lead and state.lead_should_increment:
            state.phase = (state.phase + 1) % self.phase_modulo
            state.lead_should_increment = False

        # Forward-progress floor (Section 4.4.2): the kernel absorbs
        # early divergence evictions until the thread has replayed one
        # phase segment's worth of block visits in this slice.
        engine.switch_requested = False
        engine.run_events(
            core,
            thread,
            self.slice_events,
            tag=state.phase,
            switch_floor=self.min_progress,
        )

        if thread.finished:
            engine.mark_finished(core, thread)
            state.queue.popleft()
            if thread is state.lead:
                # Step 4: the next thread in the queue becomes the lead.
                state.lead = state.queue[0] if state.queue else None
                state.lead_should_increment = True
            if not state.queue:
                # Step 6: the core becomes available for another team.
                self._next_team(core)
            return

        if engine.switch_requested:
            # Step 3: context switch; thread goes to the queue's end.
            engine.switch_requested = False
            if len(state.queue) > 1:
                state.queue.rotate(-1)
                engine.charge(core, self.context_switch_cycles)
                thread.context_switches += 1
                self.context_switches += 1
                if state.queue[0] is state.lead:
                    state.lead_should_increment = True
            else:
                # Alone on the core: no one to yield to; the "switch"
                # degenerates to continuing with a fresh phase.
                state.phase = (state.phase + 1) % self.phase_modulo
        # Quantum expiry without a switch: keep running the same thread
        # next slice (round-robin order is victim-driven, not timer
        # driven -- Section 4's point about regular intervals).
