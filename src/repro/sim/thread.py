"""Transaction threads: replayable execution contexts.

A :class:`TxnThread` wraps one :class:`TransactionTrace` with a replay
cursor and timing/accounting state.  Threads can be suspended and resumed
at any event boundary, which is what STREX's context switching and
SLICC's migration require (DESIGN.md, decision 2).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.trace.trace import TransactionTrace


class TxnThread:
    """One in-flight transaction."""

    __slots__ = (
        "thread_id",
        "trace",
        "n_events",
        "events",
        "pos",
        "arrival",
        "start_time",
        "finish_time",
        "instructions_done",
        "context_switches",
        "migrations",
        "recent_misses",
    )

    def __init__(self, thread_id: int, trace: TransactionTrace,
                 arrival: int = 0):
        self.thread_id = thread_id
        self.trace = trace
        self.n_events = len(trace)
        # The fast loop's cursor: one ``zip`` iterator over the trace's
        # columns, positioned at ``pos``.  Bound by that loop on its
        # first slice (reference runs never bind it) and valid only
        # while it is the only code that advances ``pos``.
        self.events: Optional[Iterator[tuple]] = None
        self.pos = 0
        self.arrival = arrival
        self.start_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.instructions_done = 0
        self.context_switches = 0
        self.migrations = 0
        # Tail of the thread's L1-I miss stream; SLICC's missed-tag queue.
        self.recent_misses: list = []

    @property
    def txn_type(self) -> str:
        """Transaction type name."""
        return self.trace.txn_type

    @property
    def finished(self) -> bool:
        """True once the cursor has consumed the whole trace."""
        return self.pos >= self.n_events

    @property
    def latency(self) -> Optional[int]:
        """Queue-entry-to-completion latency (Fig. 7's metric)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival

    def __repr__(self) -> str:
        state = "done" if self.finished else f"pos={self.pos}"
        return (
            f"TxnThread({self.thread_id}, {self.txn_type}, {state})"
        )
