"""Client side of the sweep service: submit, wait, status.

Everything here is file-protocol only — a client never needs the
supervisor process to be importable, reachable, or even alive.
Submitting writes the durable job record (state ``queued``) *before*
enqueueing the pointer file, so however the two writes interleave
with a racing supervisor the record can only move forward
(queued → running → done/failed); waiting polls the record; status is
assembled read-only from the queue directory, the job records and the
supervisor state file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.exp.spec import RunSpec, SweepSpec
from repro.sim import validate_run_request
from repro.svc.queue import (
    DEFAULT_PRIORITY,
    JobQueue,
    _atomic_write_json,
)
from repro.svc.supervisor import _pid_alive, read_state, svc_root_for


class JobFailed(RuntimeError):
    """A waited-on job finished in the ``failed`` state."""


def submit_job(svc_root: Union[Path, str],
               specs: Union[SweepSpec, Iterable[RunSpec]],
               priority: int = DEFAULT_PRIORITY,
               block: bool = False,
               timeout: Optional[float] = None) -> str:
    """Enqueue a job; returns its id immediately.

    ``specs`` may be a :class:`SweepSpec` (expanded client-side so the
    job record pins the exact cell list) or an iterable of
    :class:`RunSpec`.  Backpressure: at queue capacity this raises
    :class:`~repro.svc.queue.QueueFull` unless ``block`` is set.
    Every cell's config is materialized up front, so an invalid spec
    raises ``ValueError`` here instead of failing later in a worker.
    """
    if isinstance(specs, SweepSpec):
        specs = specs.expand()
    spec_list: List[RunSpec] = list(specs)
    if not spec_list:
        raise ValueError("job has no cells")
    for spec in spec_list:
        try:
            spec.build_config()
            validate_run_request(spec.scheduler, spec.prefetcher,
                                 spec.team_size)
        except ValueError as exc:
            raise ValueError(
                f"cell {spec.describe()} is invalid: {exc}") from exc
    svc_root = Path(svc_root)
    queue = JobQueue(svc_root / "queue")
    payload = {
        "priority": int(priority),
        "submitted_s": time.time(),
        "specs": [spec.to_dict() for spec in spec_list],
    }
    job_id = queue.submit(dict(payload), priority=priority,
                          block=block, timeout=timeout)
    # The record is (re)written after submit assigned the id, but a
    # supervisor that admits first simply wins: _save below only lands
    # if the record does not already exist.
    record_path = svc_root / "jobs" / f"{job_id}.json"
    if not record_path.exists():
        record = dict(payload, id=job_id, state="queued",
                      cells={})
        _atomic_write_json(record_path, record)
    return job_id


def read_job(svc_root: Union[Path, str], job_id: str) -> Optional[dict]:
    """The durable job record, or ``None`` if unknown."""
    try:
        return json.loads(
            (Path(svc_root) / "jobs" / f"{job_id}.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def wait_job(svc_root: Union[Path, str], job_id: str,
             timeout: Optional[float] = None,
             poll: float = 0.05,
             raise_on_failure: bool = True) -> dict:
    """Block until the job reaches a terminal state; returns its record.

    Raises ``TimeoutError`` after ``timeout`` seconds and
    :class:`JobFailed` when the job finished ``failed`` (suppress with
    ``raise_on_failure=False``).
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        record = read_job(svc_root, job_id)
        if record is not None and record.get("state") in ("done",
                                                          "failed"):
            if record["state"] == "failed" and raise_on_failure:
                errors = sorted(
                    {c.get("error") for c in record.get("cells",
                                                        {}).values()
                     if c.get("error")})
                raise JobFailed(
                    f"job {job_id} failed "
                    f"({record.get('failed', '?')} cell(s)): "
                    f"{'; '.join(errors) or 'unknown error'}"
                )
            return record
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(
                f"job {job_id} not finished after {timeout}s "
                f"(state: {(record or {}).get('state', 'unknown')})"
            )
        time.sleep(poll)


def service_status(svc_root: Union[Path, str]) -> dict:
    """A read-only snapshot of the whole service.

    Works with or without a live supervisor (liveness is judged by
    the state file's pid).  The shape is the ``repro status --json``
    contract::

        {"supervisor": {...}, "queue": {...}, "jobs": {...},
         "job_list": [...], "warm": {...}}
    """
    svc_root = Path(svc_root)
    state = read_state(svc_root)
    alive = bool(state and state.get("state") != "stopped"
                 and state.get("pid") is not None
                 and _pid_alive(int(state["pid"])))
    queue = JobQueue(svc_root / "queue")
    jobs = {"queued": 0, "running": 0, "done": 0, "failed": 0}
    job_rows = []
    jobs_dir = svc_root / "jobs"
    if jobs_dir.exists():
        for path in sorted(jobs_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            job_state = record.get("state", "unknown")
            if job_state in jobs:
                jobs[job_state] += 1
            job_rows.append({
                "id": record.get("id", path.stem),
                "state": job_state,
                "priority": record.get("priority"),
                "submitted_s": record.get("submitted_s"),
                "cells": len(record.get("cells") or
                             record.get("specs") or ()),
                "done": record.get("done"),
                "failed": record.get("failed"),
                "cache_hits": record.get("cache_hits"),
                "executed": record.get("executed"),
                "warm_rate": record.get("warm_rate"),
                "queue_wait_s": record.get("queue_wait_s"),
                "wall_s": record.get("wall_s"),
            })
    job_rows.sort(key=lambda row: row.get("submitted_s") or 0.0)
    finished = [row for row in job_rows
                if row["state"] in ("done", "failed")]
    hits = sum(row.get("cache_hits") or 0 for row in finished)
    cells = sum(row.get("cells") or 0 for row in finished)
    return {
        "svc_root": str(svc_root),
        "supervisor": {
            "alive": alive,
            "pid": state.get("pid") if state else None,
            "state": (state.get("state") if state else "absent"),
            "workers": int(state["workers"]) if state else 0,
            "cache_dir": state.get("cache_dir") if state else None,
        },
        "queue": {"pending": queue.depth(),
                  "capacity": queue.capacity},
        "jobs": jobs,
        "job_list": job_rows,
        "warm": {
            "cache_hits": hits,
            "cells": cells,
            "rate": round(hits / cells, 6) if cells else None,
        },
    }


def format_status(status: dict) -> str:
    """Human-readable rendering of :func:`service_status`."""
    sup = status["supervisor"]
    lines = [
        f"service {status['svc_root']}",
        (f"  supervisor: {sup['state']}"
         f"{' (pid ' + str(sup['pid']) + ')' if sup['pid'] else ''}"
         f"{' [alive]' if sup['alive'] else ''}"),
        (f"  queue: {status['queue']['pending']} pending / "
         f"capacity {status['queue']['capacity']}"),
        (f"  jobs: {status['jobs']['queued']} queued, "
         f"{status['jobs']['running']} running, "
         f"{status['jobs']['done']} done, "
         f"{status['jobs']['failed']} failed"),
    ]
    warm = status["warm"]
    if warm["cells"]:
        lines.append(
            f"  warm: {warm['cache_hits']}/{warm['cells']} cells "
            f"({100.0 * warm['rate']:.1f}%) across finished jobs")
    for row in status["job_list"][-8:]:
        label = f"  job {row['id']}: {row['state']}"
        if row["state"] in ("done", "failed"):
            label += (f" ({row['cells']} cells, "
                      f"{row.get('cache_hits') or 0} cache hit(s), "
                      f"wall {row.get('wall_s') or 0:.3f}s)")
        lines.append(label)
    return "\n".join(lines)


__all__ = [
    "JobFailed",
    "format_status",
    "read_job",
    "service_status",
    "submit_job",
    "svc_root_for",
    "wait_job",
]
