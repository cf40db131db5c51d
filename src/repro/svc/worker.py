"""Long-lived warm worker process for the sweep service.

A worker owns three spool directories under
``<svc_root>/workers/<index>/``:

* ``inbox/`` — cells the supervisor routed here (same file naming as
  the job queue, so lexicographic order is priority-then-FIFO);
* ``running/`` — the cell currently claimed (claim = atomic rename
  from ``inbox/``, so a cell is in exactly one spool at all times and
  a worker killed mid-cell leaves its claim behind as evidence);
* ``outbox/`` — one outcome JSON per finished cell, consumed by the
  supervisor.

The process keeps every warm layer alive across cells, which is the
entire point of the service: the runner's per-process trace memo
(:func:`repro.exp.runner.trace_memo_stats`) and the traces' derived
run tables persist because cells run *inline* — a single long-lived :class:`~repro.exp.runner.Runner` with
``jobs=1`` on a dedicated executor thread, not a fork per cell.

Threading model: Python delivers signals to the main thread only, so
the main thread runs the control loop (heartbeat file every
:data:`HEARTBEAT_INTERVAL`, SIGTERM → graceful drain: finish the
in-flight cell, exit 0) while the executor thread claims and runs
cells.  Running cells off the main thread is exactly why
``_worker_run`` falls back to no-timeout instead of arming SIGALRM
there (see the runner's main-thread guard).

Results go through the very same ``ResultCache``/``Manifest`` write
paths as a solo ``repro sweep``, so served entries are byte-identical
to solo ones — the differential tests assert it.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from repro import obs
from repro.exp.cache import ResultCache
from repro.exp.runner import Runner, trace_memo_stats
from repro.exp.spec import RunSpec
from repro.svc.queue import _atomic_write_json

#: Seconds between heartbeat file rewrites.
HEARTBEAT_INTERVAL = 0.2

#: Idle executor poll when the inbox is empty.
_IDLE_POLL = 0.02


def worker_dir(svc_root: Path, index: int) -> Path:
    """The spool root of worker ``index``."""
    return Path(svc_root) / "workers" / str(index)


class Worker:
    """One warm worker: claim loop + heartbeat + graceful drain."""

    def __init__(self, svc_root: Path, index: int, cache_dir: Path,
                 timeout: Optional[float] = None, retries: int = 2,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL):
        self.svc_root = Path(svc_root)
        self.index = int(index)
        self.dir = worker_dir(self.svc_root, self.index)
        self.inbox = self.dir / "inbox"
        self.running = self.dir / "running"
        self.outbox = self.dir / "outbox"
        for spool in (self.inbox, self.running, self.outbox):
            spool.mkdir(parents=True, exist_ok=True)
        self.heartbeat_path = self.dir / "heartbeat.json"
        self.heartbeat_interval = heartbeat_interval
        # The runner shares the service-wide cache and manifest — the
        # byte-identity contract hinges on using the same put/record
        # code paths as a solo run.
        self.runner = Runner(jobs=1, cache=ResultCache(cache_dir),
                             timeout=timeout, retries=retries)
        self.counters: Dict[str, int] = {
            "cells": 0, "cache_hits": 0, "executed": 0, "failures": 0,
            "warm_hits": 0,
        }
        self._stop = threading.Event()
        self._current: Optional[str] = None

    # ------------------------------------------------------------------
    # Process entry
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve until SIGTERM/SIGINT; returns after a clean drain."""
        signal.signal(signal.SIGTERM, self._on_stop_signal)
        signal.signal(signal.SIGINT, self._on_stop_signal)
        executor = threading.Thread(
            target=self._loop, name=f"svc-worker-{self.index}",
            daemon=True)
        executor.start()
        self._write_heartbeat("running")
        while executor.is_alive():
            executor.join(self.heartbeat_interval)
            self._write_heartbeat(
                "draining" if self._stop.is_set() else "running")
        self._write_heartbeat("stopped")
        obs.flush()

    def _on_stop_signal(self, signum, frame) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    # Executor thread
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            claimed = self._claim()
            if claimed is None:
                self._stop.wait(_IDLE_POLL)
                continue
            self._execute(claimed)

    def _claim(self) -> Optional[Path]:
        """Atomically move the most urgent inbox cell to ``running/``."""
        try:
            names = sorted(p.name for p in self.inbox.glob("p*.json"))
        except OSError:
            return None
        for name in names:
            target = self.running / name
            try:
                (self.inbox / name).rename(target)
            except (FileNotFoundError, OSError):
                continue
            return target
        return None

    def _execute(self, path: Path) -> None:
        try:
            cell = json.loads(path.read_text())
            spec = RunSpec.from_dict(cell["spec"])
        except (OSError, json.JSONDecodeError, KeyError, ValueError,
                TypeError) as exc:
            # A malformed cell can't be retried into health; report it
            # failed so the job doesn't hang on a pending cell forever.
            self._finish(path, {
                "cell": path.stem.rpartition("-")[2], "job": None,
                "status": "failed",
                "error": f"unreadable cell file: {exc}",
            })
            return
        self._current = cell.get("cell")
        start = time.perf_counter()
        error: Optional[str] = None
        hit = False
        with obs.span(
            "svc.cell",
            worker=self.index,
            job=cell.get("job"),
            cell=cell.get("cell"),
            spec=spec.describe(),
        ):
            try:
                self.runner.run([spec])
                hit = self.runner.hits > 0
            except Exception as exc:  # noqa: BLE001 - reported upstream
                error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        self.counters["cells"] += 1
        if error is not None:
            self.counters["failures"] += 1
        elif hit:
            self.counters["cache_hits"] += 1
            self.counters["warm_hits"] += 1
        else:
            self.counters["executed"] += 1
        obs.metric_inc("svc.cells.done")
        if hit:
            obs.metric_inc("svc.cells.warm")
        obs.metric_observe("svc.cell.wall_us", wall * 1e6)
        self._finish(path, {
            "cell": cell.get("cell"),
            "job": cell.get("job"),
            "key": cell.get("key"),
            "worker": self.index,
            "status": "failed" if error is not None else "done",
            "error": error,
            "hit": hit,
            "wall_s": round(wall, 6),
            "enqueued_s": cell.get("enqueued_s"),
            "attempts": int(cell.get("attempts", 1)),
        })
        self._current = None
        obs.flush()

    def _finish(self, claim_path: Path, outcome: dict) -> None:
        """Publish the outcome, then release the claim.

        Ordering matters for crash safety: the outcome is written
        *before* the claim file is removed.  A worker killed between
        the two leaves both behind — the supervisor re-queues the
        claim and later ignores the duplicate outcome, which is safe
        because execution is idempotent (same spec ⇒ same bytes).
        """
        name = outcome.get("cell") or claim_path.stem
        _atomic_write_json(self.outbox / f"{name}.json", outcome)
        try:
            claim_path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def _write_heartbeat(self, state: str) -> None:
        memo = trace_memo_stats()
        payload = {
            "pid": os.getpid(),
            "index": self.index,
            "ts": time.time(),
            "state": state,
            "current": self._current,
            "trace_memo_hits": memo["hits"],
            "trace_memo_misses": memo["misses"],
        }
        payload.update(self.counters)
        try:
            _atomic_write_json(self.heartbeat_path, payload)
        except OSError:  # pragma: no cover - spool dir vanished
            pass


def worker_main(svc_root: str, index: int, cache_dir: str,
                timeout: Optional[float], retries: int,
                heartbeat_interval: float = HEARTBEAT_INTERVAL) -> None:
    """Subprocess entry point (picklable top-level function)."""
    Worker(Path(svc_root), index, Path(cache_dir), timeout=timeout,
           retries=retries,
           heartbeat_interval=heartbeat_interval).run()
