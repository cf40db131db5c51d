"""Sweep-service supervisor: admit, route, collect, restart, drain.

The supervisor is the queue's single consumer.  Its loop:

* **admit** — pop the most urgent job, expand it to cells, settle
  already-cached cells immediately (recorded as warm hits, manifest
  row included, exactly like a solo run's cache short-circuit), and
  route the rest to worker inboxes;
* **collect** — fold worker outbox outcomes into the durable job
  records under ``<svc_root>/jobs/``;
* **supervise** — declare a worker dead when its process has exited
  *or* its heartbeat has gone stale, re-queue its claimed cells (with
  a bounded attempt count so a poisoned cell cannot crash-loop the
  service), and restart it;
* **drain** — on SIGTERM, stop admitting, forward SIGTERM to the
  workers (each finishes its in-flight cell), collect the stragglers
  and exit with durable state: pending queue files and routed inbox
  cells survive on disk, so a restarted service resumes where this
  one stopped.

Affinity routing is the warm-cache play: a cell is routed by a hash
of exactly the identity the warm layers key on — the materialized
config, the scheduler/team pair, and the trace-generation fields the
runner's trace memo keys on — so identical (config, scheduler, trace)
identities always land on the same worker.  Each worker keeps a
per-process trace memo (generated traces plus their derived run
tables), so a cell that runs again on the service — a requeue, or a
resubmission against a cleared cache — finds its traces already
built.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from repro import obs
from repro.exp.cache import ResultCache, spec_key
from repro.exp.manifest import Manifest, ManifestEntry
from repro.exp.spec import RunSpec
from repro.svc.queue import (
    DEFAULT_PRIORITY,
    JobQueue,
    _atomic_write_json,
)
from repro.svc.worker import HEARTBEAT_INTERVAL, worker_dir, worker_main

#: Default worker-process count.
DEFAULT_WORKERS = 2

#: Heartbeat age (seconds) past which a live process counts as dead.
HEARTBEAT_TIMEOUT = 10.0

#: Extra executions a cell may get after its claimant died.
DEFAULT_REQUEUES = 2


def svc_root_for(cache_dir: Path) -> Path:
    """The service state directory for a cache.

    Kept *inside* the cache directory so one path names a deployment,
    but always nested two levels down (``svc/<area>/...``) — the
    cache's ``*/*.json`` entry glob can never see service files.
    """
    return Path(cache_dir) / "svc"


def affinity_identity(spec: RunSpec) -> str:
    """Canonical digest of the warm-state identity of a cell.

    Hashes the materialized config and scheduler/team pair plus the
    trace-memo key fields, so every run of one cell lands on the
    worker whose trace memo already holds its traces.  The
    prefetcher is deliberately excluded: it changes the simulation but
    not the traces or run tables, so prefetcher variants of one cell
    still share a worker's warm trace memo.
    """
    config = spec.build_config()
    payload = {
        "config": config.to_dict(),
        "scheduler": spec.scheduler,
        "team_size": spec.team_size,
        "trace": [spec.workload, config.l1i_blocks, spec.seed,
                  spec.mode, spec.txn_type, spec.transactions,
                  spec.replicas, spec.effective_mix_seed()],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def route(spec: RunSpec, workers: int) -> int:
    """The worker index that owns a cell's warm-state identity."""
    return int(affinity_identity(spec), 16) % max(1, int(workers))


def _cell_index(cell_id: str) -> int:
    """The spec index encoded in a ``<job>.<idx>`` cell id."""
    return int(cell_id.rpartition(".")[2])


class Supervisor:
    """Owns the queue, the job records, and the worker fleet."""

    def __init__(self, cache_dir: Path,
                 svc_root: Optional[Path] = None,
                 workers: int = DEFAULT_WORKERS,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 queue_capacity: Optional[int] = None,
                 heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 poll_interval: float = 0.05,
                 requeues: int = DEFAULT_REQUEUES,
                 drain_timeout: float = 30.0,
                 mp_context=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if requeues < 0:
            raise ValueError("requeues must be >= 0")
        self.cache_dir = Path(cache_dir)
        self.svc_root = (Path(svc_root) if svc_root is not None
                         else svc_root_for(self.cache_dir))
        self.workers = int(workers)
        self.timeout = timeout
        self.retries = retries
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.requeues = requeues
        self.drain_timeout = drain_timeout
        self.queue = JobQueue(self.svc_root / "queue",
                              capacity=queue_capacity)
        self.jobs_dir = self.svc_root / "jobs"
        self.state_path = self.svc_root / "supervisor" / "state.json"
        self.cache = ResultCache(self.cache_dir)
        self.manifest = Manifest(self.cache_dir / "manifest.jsonl")
        self.restarts: Dict[int, int] = {i: 0 for i in range(workers)}
        self._jobs: Dict[str, dict] = {}
        self._procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self._spawned: Dict[int, float] = {}
        self._draining = threading.Event()
        self._last_state_write = 0.0
        context = mp_context
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
        self._context = context

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve(self) -> None:
        """Run the service until SIGTERM/SIGINT, then drain and stop."""
        self._refuse_second_supervisor()
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, self._on_stop_signal)
            signal.signal(signal.SIGINT, self._on_stop_signal)
        self.queue.persist_capacity()
        self._write_state("serving", force=True)
        for index in range(self.workers):
            self._spawn(index)
        self._recover()
        with obs.span("svc.serve", workers=self.workers,
                      cache_dir=str(self.cache_dir)):
            try:
                while not self._draining.is_set():
                    progressed = any([
                        self._admit(),
                        self._collect(),
                        self._supervise(),
                    ])
                    self._write_state("serving")
                    if not progressed:
                        self._draining.wait(self.poll_interval)
            finally:
                self._drain()
            obs.flush()

    def stop(self) -> None:
        """Ask a serving supervisor (same process) to drain and exit."""
        self._draining.set()

    def _on_stop_signal(self, signum, frame) -> None:
        self._draining.set()

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

    def _drain(self) -> None:
        self._write_state("draining", force=True)
        for process in self._procs.values():
            if process.is_alive():
                process.terminate()  # SIGTERM: finish in-flight cell
        deadline = time.monotonic() + self.drain_timeout
        while any(p.is_alive() for p in self._procs.values()) and \
                time.monotonic() < deadline:
            self._collect()
            time.sleep(min(0.05, self.poll_interval))
        for process in self._procs.values():
            if process.is_alive():  # pragma: no cover - wedged worker
                process.kill()
            process.join()
        self._collect()
        self._write_state("stopped", force=True)

    # ------------------------------------------------------------------
    # Worker fleet
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        process = self._context.Process(
            target=worker_main,
            args=(str(self.svc_root), index, str(self.cache_dir),
                  self.timeout, self.retries, self.heartbeat_interval),
            name=f"svc-worker-{index}",
        )
        process.start()
        self._procs[index] = process
        self._spawned[index] = time.time()

    def _supervise(self) -> bool:
        """Restart dead/stale workers, re-queueing their claims."""
        progressed = False
        for index in range(self.workers):
            process = self._procs.get(index)
            alive = process is not None and process.is_alive()
            if alive and not self._heartbeat_stale(index):
                continue
            if process is not None:
                if process.is_alive():  # stale heartbeat, wedged main
                    process.kill()  # pragma: no cover - defensive
                process.join()
            self._requeue_claims(index)
            self.restarts[index] += 1
            obs.metric_inc("svc.worker.restarts")
            with obs.span("svc.worker.restart", worker=index,
                          restarts=self.restarts[index]):
                self._spawn(index)
            progressed = True
        return progressed

    def _heartbeat_stale(self, index: int) -> bool:
        beat = read_heartbeat(self.svc_root, index)
        last = beat["ts"] if beat else self._spawned.get(index, 0.0)
        return time.time() - last > self.heartbeat_timeout

    def _requeue_claims(self, index: int) -> None:
        """Return a dead worker's claimed cells to its inbox.

        Each pass bumps the cell's attempt count; a cell whose budget
        is spent is failed outright instead of re-queued, so a cell
        that kills its executor cannot crash-loop the service.
        """
        spool = worker_dir(self.svc_root, index)
        for path in sorted((spool / "running").glob("p*.json")):
            try:
                cell = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            attempts = int(cell.get("attempts", 1))
            try:
                path.unlink()
            except OSError:
                continue
            if attempts > self.requeues:
                self._apply_outcome({
                    "cell": cell.get("cell"), "job": cell.get("job"),
                    "key": cell.get("key"), "worker": index,
                    "status": "failed", "hit": False,
                    "wall_s": 0.0, "attempts": attempts,
                    "error": (f"worker {index} died while running this "
                              f"cell {attempts} time(s)"),
                })
                continue
            cell["attempts"] = attempts + 1
            obs.metric_inc("svc.cells.requeued")
            _atomic_write_json(spool / "inbox" / path.name, cell)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        claimed = self.queue.claim_next()
        if claimed is None:
            return False
        job_id, payload = claimed
        record = self._load_job(job_id)
        if record is not None and record.get("state") != "queued":
            return True  # stale queue file for an already-admitted job
        with obs.span("svc.admit", job=job_id):
            self._admit_job(job_id, payload)
        return True

    def _admit_job(self, job_id: str, payload: dict) -> None:
        specs = [RunSpec.from_dict(d) for d in payload["specs"]]
        priority = int(payload.get("priority", DEFAULT_PRIORITY))
        now = time.time()
        submitted = float(payload.get("submitted_s", now))
        obs.metric_observe("svc.queue.wait_us",
                           max(0.0, now - submitted) * 1e6)
        cells: Dict[str, dict] = {}
        for idx, spec in enumerate(specs):
            key = spec_key(spec)
            cell_id = f"{job_id}.{idx:04d}"
            if key in self.cache:
                # Settled without touching a worker — the service-side
                # twin of the runner's cache short-circuit, manifest
                # row included.
                self.manifest.record(ManifestEntry(
                    key=key, spec=spec.to_dict(), hit=True, wall_s=0.0,
                    worker=None, attempts=0, ts=round(time.time(), 3),
                    sweep=job_id, shard=None))
                cells[cell_id] = {
                    "key": key, "worker": None, "status": "done",
                    "hit": True, "wall_s": 0.0,
                    "attempts": 0, "error": None,
                }
                obs.metric_inc("svc.cells.precached")
                continue
            target = route(spec, self.workers)
            name = f"p{priority}-{time.time_ns():020d}-{cell_id}.json"
            _atomic_write_json(
                worker_dir(self.svc_root, target) / "inbox" / name,
                {
                    "cell": cell_id, "job": job_id, "key": key,
                    "spec": spec.to_dict(), "attempts": 1,
                    "priority": priority, "enqueued_s": submitted,
                })
            cells[cell_id] = {
                "key": key, "worker": target, "status": "pending",
                "hit": False, "wall_s": 0.0,
                "attempts": 1, "error": None,
            }
            obs.metric_inc("svc.cells.dispatched")
        record = {
            "id": job_id,
            "state": "running",
            "priority": priority,
            "submitted_s": submitted,
            "admitted_s": now,
            "queue_wait_s": round(max(0.0, now - submitted), 6),
            "specs": payload["specs"],
            "cells": cells,
        }
        self._jobs[job_id] = record
        if not any(c["status"] == "pending" for c in cells.values()):
            self._finalize(record)
        self._save_job(record)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self) -> bool:
        progressed = False
        for index in range(self.workers):
            outbox = worker_dir(self.svc_root, index) / "outbox"
            for path in sorted(outbox.glob("*.json")):
                try:
                    outcome = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    continue
                applied = self._apply_outcome(outcome)
                try:
                    path.unlink()
                except OSError:
                    pass
                progressed = progressed or applied
        return progressed

    def _apply_outcome(self, outcome: dict) -> bool:
        job_id = outcome.get("job")
        record = self._load_job(job_id) if job_id else None
        if record is None:
            return False
        cell = record["cells"].get(outcome.get("cell"))
        if cell is None or cell["status"] != "pending":
            return False  # duplicate outcome after a crashy handoff
        cell.update(
            status=outcome.get("status", "failed"),
            worker=outcome.get("worker", cell.get("worker")),
            hit=bool(outcome.get("hit", False)),
            wall_s=float(outcome.get("wall_s", 0.0)),
            attempts=int(outcome.get("attempts", cell.get("attempts", 1))),
            error=outcome.get("error"),
        )
        if not any(c["status"] == "pending"
                   for c in record["cells"].values()):
            self._finalize(record)
        self._save_job(record)
        return True

    def _finalize(self, record: dict) -> None:
        cells = record["cells"].values()
        failed = sum(1 for c in cells if c["status"] == "failed")
        # A cell is warm when the result cache answered it.
        hits = sum(1 for c in cells if c.get("hit"))
        record.update(
            state="failed" if failed else "done",
            finished_s=time.time(),
            done=sum(1 for c in cells if c["status"] == "done"),
            failed=failed,
            cache_hits=hits,
            executed=sum(1 for c in cells
                         if c["status"] == "done" and not c.get("hit")),
            warm_hits=hits,
            warm_rate=round(hits / max(1, len(record["cells"])), 6),
            wall_s=round(sum(c.get("wall_s", 0.0) for c in cells), 6),
        )
        record.pop("specs", None)  # only needed while cells can requeue
        obs.metric_inc("svc.jobs.failed" if failed else "svc.jobs.done")

    # ------------------------------------------------------------------
    # Job records
    # ------------------------------------------------------------------
    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _load_job(self, job_id: str) -> Optional[dict]:
        record = self._jobs.get(job_id)
        if record is not None:
            return record
        try:
            record = json.loads(self._job_path(job_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        self._jobs[job_id] = record
        return record

    def _save_job(self, record: dict) -> None:
        _atomic_write_json(self._job_path(record["id"]), record)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Resume durable state left by a previous supervisor.

        * queue files for jobs that were already admitted are dropped;
        * every cell file anywhere in a worker spool is re-routed by
          affinity against the *current* worker count (a restart may
          resize the fleet); cells found in a ``running/`` spool have
          their attempt count bumped — their claimant died with them;
        * job records still marked ``running`` are loaded, and any
          pending cell with no surviving cell file is regenerated from
          the record's spec list.
        """
        job_paths = (sorted(self.jobs_dir.glob("*.json"))
                     if self.jobs_dir.exists() else [])
        for path in job_paths:
            record = self._load_job(path.stem)
            if record and record.get("state") != "queued":
                self.queue.discard(record["id"])
        orphans = []
        workers_root = self.svc_root / "workers"
        if workers_root.exists():
            for spool_name, claimed in (("inbox", False),
                                        ("running", True)):
                for path in sorted(
                        workers_root.glob(f"*/{spool_name}/p*.json")):
                    try:
                        cell = json.loads(path.read_text())
                    except (OSError, json.JSONDecodeError):
                        continue
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    if claimed:
                        cell["attempts"] = int(cell.get("attempts", 1)) + 1
                    orphans.append((path.name, cell))
        for name, cell in orphans:
            record = self._load_job(cell.get("job", ""))
            if record is None or record.get("state") != "running":
                continue  # job finished or vanished; drop the orphan
            if int(cell.get("attempts", 1)) > self.requeues + 1:
                self._apply_outcome({
                    "cell": cell.get("cell"), "job": cell.get("job"),
                    "key": cell.get("key"), "worker": None,
                    "status": "failed", "hit": False, "wall_s": 0.0,
                    "attempts": int(cell.get("attempts", 1)),
                    "error": "requeue budget spent across restarts",
                })
                continue
            spec = RunSpec.from_dict(cell["spec"])
            target = route(spec, self.workers)
            _atomic_write_json(
                worker_dir(self.svc_root, target) / "inbox" / name, cell)
        # Regenerate pending cells whose files were lost mid-handoff.
        present = {
            json.loads(p.read_text()).get("cell")
            for p in workers_root.glob("*/inbox/p*.json")
        } if workers_root.exists() else set()
        for record in list(self._jobs.values()):
            if record.get("state") != "running":
                continue
            specs = record.get("specs")
            for cell_id, cell in record["cells"].items():
                if cell["status"] != "pending" or cell_id in present:
                    continue
                if not specs:  # pragma: no cover - defensive
                    continue
                spec = RunSpec.from_dict(specs[_cell_index(cell_id)])
                target = route(spec, self.workers)
                name = (f"p{record.get('priority', DEFAULT_PRIORITY)}-"
                        f"{time.time_ns():020d}-{cell_id}.json")
                _atomic_write_json(
                    worker_dir(self.svc_root, target) / "inbox" / name,
                    {
                        "cell": cell_id, "job": record["id"],
                        "key": cell["key"], "spec": spec.to_dict(),
                        "attempts": int(cell.get("attempts", 1)),
                        "priority": record.get("priority",
                                               DEFAULT_PRIORITY),
                        "enqueued_s": record.get("submitted_s"),
                    })

    # ------------------------------------------------------------------
    # Supervisor state file
    # ------------------------------------------------------------------
    def _write_state(self, state: str, force: bool = False) -> None:
        now = time.time()
        if not force and now - self._last_state_write < 0.5:
            return
        self._last_state_write = now
        _atomic_write_json(self.state_path, {
            "pid": os.getpid(),
            "state": state,
            "ts": now,
            "workers": self.workers,
            "cache_dir": str(self.cache_dir),
            "queue_capacity": self.queue.capacity,
            "heartbeat_timeout": self.heartbeat_timeout,
            "restarts": {str(i): n for i, n in self.restarts.items()},
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


def read_heartbeat(svc_root: Path, index: int) -> Optional[dict]:
    """Worker ``index``'s latest heartbeat, or ``None``."""
    try:
        return json.loads(
            (worker_dir(svc_root, index) / "heartbeat.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
