"""Sweep-service supervisor: a file queue in front of one ``Runner``.

The supervisor is the queue's single consumer.  It claims the most
urgent job, runs the job's cells with one
:class:`~repro.exp.runner.Runner` (``jobs=workers``) on its main
thread, and writes the job record from the runner's manifest rows.
Cache hits, pool retries, per-cell timeouts and the manifest are all
the runner's, so a served grid runs exactly the code ``repro sweep``
runs and leaves byte-identical cache entries.

Jobs run one at a time in queue order (priority, then FIFO); a running
job is not preempted.  A cell that fails permanently fails its job and
cancels the job's remaining cells, as ``repro sweep`` does.

Durability: a job's record is marked ``running`` before its first cell
runs and finished only after the runner returns.  A supervisor that is
killed or stopped mid-job leaves the record ``running``; the next
:meth:`Supervisor.serve` re-runs it from the record's stored spec list
before admitting new work, and every cell that had finished is then a
cache hit, so nothing completed is recomputed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path
from typing import Optional

from repro import obs
from repro.exp.cache import ResultCache, spec_key
from repro.exp.manifest import Manifest
from repro.exp.runner import RunError, Runner
from repro.exp.spec import RunSpec
from repro.svc.queue import (
    DEFAULT_PRIORITY,
    JobQueue,
    _atomic_write_json,
)

#: Default pool size for a served job.
DEFAULT_WORKERS = 2


class ServiceStopped(BaseException):
    """Raised by the stop handler to abandon the running job.

    A ``BaseException`` on purpose: the runner counts any
    ``Exception`` as a cell failure, and a stop request is not one.
    """


def svc_root_for(cache_dir: Path) -> Path:
    """The service state directory for a cache.

    Kept *inside* the cache directory so one path names a deployment,
    but always nested two levels down (``svc/<area>/...``) — the
    cache's ``*/*.json`` entry glob can never see service files.
    """
    return Path(cache_dir) / "svc"


class Supervisor:
    """Owns the queue, the job records, and the runner."""

    def __init__(self, cache_dir: Path,
                 svc_root: Optional[Path] = None,
                 workers: int = DEFAULT_WORKERS,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 queue_capacity: Optional[int] = None,
                 poll_interval: float = 0.05):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache_dir = Path(cache_dir)
        self.svc_root = (Path(svc_root) if svc_root is not None
                         else svc_root_for(self.cache_dir))
        self.workers = int(workers)
        self.poll_interval = poll_interval
        self.queue = JobQueue(self.svc_root / "queue",
                              capacity=queue_capacity)
        self.jobs_dir = self.svc_root / "jobs"
        self.state_path = self.svc_root / "supervisor" / "state.json"
        self.runner = Runner(
            jobs=self.workers, cache=ResultCache(self.cache_dir),
            manifest=Manifest(self.cache_dir / "manifest.jsonl"),
            timeout=timeout, retries=retries)
        self._stop = threading.Event()
        self._in_job = False
        self._pid: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve(self) -> None:
        """Run jobs until SIGTERM/SIGINT (or :meth:`stop`), then stop.

        A stop request abandons the running job (its record stays
        ``running`` for the next serve to resume) and returns normally.
        """
        self._refuse_second_supervisor()
        self._pid = os.getpid()
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, self._on_stop_signal)
            signal.signal(signal.SIGINT, self._on_stop_signal)
        self.queue.persist_capacity()
        self._write_state("serving")
        with obs.span("svc.serve", workers=self.workers,
                      cache_dir=str(self.cache_dir)):
            try:
                for record in self._interrupted_jobs():
                    if self._stop.is_set():
                        break
                    self._run_job(record)
                while not self._stop.is_set():
                    if not self._admit():
                        self._stop.wait(self.poll_interval)
            except ServiceStopped:
                pass
            self._write_state("stopped")
        obs.flush()

    def stop(self) -> None:
        """Ask a supervisor serving on another thread to stop after
        its running job."""
        self._stop.set()

    def _on_stop_signal(self, signum, frame) -> None:
        if os.getpid() != self._pid:
            # A forked pool worker inherited this handler: die as the
            # signal's default would, so the runner retries its cell.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self._stop.set()
        if self._in_job:
            raise ServiceStopped(signal.Signals(signum).name)

    def _refuse_second_supervisor(self) -> None:
        state = read_state(self.svc_root)
        if state is None or state.get("state") == "stopped":
            return
        pid = state.get("pid")
        if pid is not None and _pid_alive(int(pid)):
            raise RuntimeError(
                f"a supervisor (pid {pid}) is already serving "
                f"{self.svc_root}; stop it first"
            )

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def _interrupted_jobs(self):
        """Records a previous supervisor left ``running``."""
        if not self.jobs_dir.exists():
            return []
        records = [self._load_job(path)
                   for path in sorted(self.jobs_dir.glob("*.json"))]
        return sorted((r for r in records
                       if r and r.get("state") == "running"),
                      key=lambda r: r.get("admitted_s") or 0.0)

    def _admit(self) -> bool:
        claimed = self.queue.claim_next()
        if claimed is None:
            return False
        job_id, payload = claimed
        record = self._load_job(self._job_path(job_id))
        if record is not None and record.get("state") != "queued":
            return True  # stale queue file for an already-admitted job
        now = time.time()
        submitted = float(payload.get("submitted_s", now))
        obs.metric_observe("svc.queue.wait_us",
                           max(0.0, now - submitted) * 1e6)
        self._run_job({
            "id": job_id,
            "state": "running",
            "priority": int(payload.get("priority", DEFAULT_PRIORITY)),
            "submitted_s": submitted,
            "admitted_s": now,
            "queue_wait_s": round(max(0.0, now - submitted), 6),
            "specs": payload["specs"],
            "cells": {},
        })
        return True

    def _run_job(self, record: dict) -> None:
        """Run one job's cells through the runner and finish its record.

        The record is saved ``running`` first, so a crash or stop from
        here on leaves it for the next serve to resume.
        """
        self._save_job(record)
        specs = [RunSpec.from_dict(d) for d in record["specs"]]
        error: Optional[Exception] = None
        with obs.span("svc.job", job=record["id"], cells=len(specs)):
            self._in_job = True
            try:
                self.runner.run(specs)
            except ServiceStopped:
                # Pool workers may still be mid-cell; their results
                # would never reach the cache, so stop them now.
                for child in multiprocessing.active_children():
                    child.kill()
                    child.join()
                raise
            except Exception as exc:  # noqa: BLE001 - recorded below
                error = exc
            finally:
                self._in_job = False
        self._finish(record, specs, error)

    def _finish(self, record: dict, specs, error) -> None:
        """Fill the record's cells from the runner's manifest rows."""
        rows = {}
        for entry in self.runner.entries:
            rows.setdefault(entry.key, []).append(entry)
        # A RunError names its cell; any other error leaves every
        # unfinished cell failed.
        failed_key = (spec_key(error.spec)
                      if isinstance(error, RunError) else None)
        cells = {}
        for idx, spec in enumerate(specs):
            key = spec_key(spec)
            cell = {"key": key, "worker": None, "status": "cancelled",
                    "hit": False, "wall_s": 0.0, "attempts": 0,
                    "error": None}
            if rows.get(key):
                entry = rows[key].pop(0)
                cell.update(status="done", worker=entry.worker,
                            hit=entry.hit, wall_s=entry.wall_s,
                            attempts=entry.attempts)
            elif error is not None and failed_key in (None, key):
                cell.update(status="failed",
                            attempts=getattr(error, "attempts", 0),
                            error=f"{type(error).__name__}: {error}")
            cells[f"{record['id']}.{idx:04d}"] = cell
        done = [c for c in cells.values() if c["status"] == "done"]
        hits = sum(1 for c in done if c["hit"])
        record.update(
            state="failed" if error is not None else "done",
            finished_s=time.time(),
            cells=cells,
            done=len(done),
            failed=sum(1 for c in cells.values()
                       if c["status"] == "failed"),
            cache_hits=hits,
            executed=len(done) - hits,
            warm_rate=round(hits / max(1, len(cells)), 6),
            wall_s=round(sum(c["wall_s"] for c in done), 6),
        )
        record.pop("specs", None)  # only needed while the job can resume
        obs.metric_inc("svc.jobs.failed" if error is not None
                       else "svc.jobs.done")
        self._save_job(record)

    # ------------------------------------------------------------------
    # Job records and the state file
    # ------------------------------------------------------------------
    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    @staticmethod
    def _load_job(path: Path) -> Optional[dict]:
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _save_job(self, record: dict) -> None:
        _atomic_write_json(self._job_path(record["id"]), record)

    def _write_state(self, state: str) -> None:
        _atomic_write_json(self.state_path, {
            "pid": os.getpid(),
            "state": state,
            "ts": time.time(),
            "workers": self.workers,
            "cache_dir": str(self.cache_dir),
            "queue_capacity": self.queue.capacity,
        })


# ----------------------------------------------------------------------
# Read-only helpers shared with the client
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user pid
        return True
    return True


def read_state(svc_root: Path) -> Optional[dict]:
    """The supervisor state file, or ``None`` if absent/torn."""
    try:
        return json.loads(
            (Path(svc_root) / "supervisor" / "state.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
