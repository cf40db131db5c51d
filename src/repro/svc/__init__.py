"""repro.svc — persistent sweep service with warm workers.

Every ad-hoc ``repro sweep`` pays full cold start: fork-per-cell
workers rebuild workload traces and their run tables, discarding
exactly the warm state the runner's trace memo exists to keep.  This
package keeps that state alive: a supervisor
(:mod:`repro.svc.supervisor`) plus N long-lived worker processes
(:mod:`repro.svc.worker`) serve jobs from a bounded, priority-aware,
file-backed queue (:mod:`repro.svc.queue`), with a file-protocol
client (:mod:`repro.svc.client`) behind
``repro serve`` / ``repro submit`` / ``repro status``.

The contract that makes the service safe to adopt: results flow
through the *same* ``ResultCache``/``Manifest`` write paths as a solo
runner, so a grid served by ``repro submit`` is byte-identical to the
same grid run by ``repro sweep`` (asserted by differential test), and
the service directory lives under ``<cache>/svc/`` where the cache's
two-level entry glob cannot see it.
"""

from repro.svc.client import (
    JobFailed,
    format_status,
    read_job,
    service_status,
    submit_job,
    svc_root_for,
    wait_job,
)
from repro.svc.queue import (
    DEFAULT_CAPACITY,
    DEFAULT_PRIORITY,
    JobQueue,
    QueueFull,
)
from repro.svc.supervisor import (
    DEFAULT_WORKERS,
    Supervisor,
    affinity_identity,
    route,
)
from repro.svc.worker import Worker, worker_main

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_PRIORITY",
    "DEFAULT_WORKERS",
    "JobFailed",
    "JobQueue",
    "QueueFull",
    "Supervisor",
    "Worker",
    "affinity_identity",
    "format_status",
    "read_job",
    "route",
    "service_status",
    "submit_job",
    "svc_root_for",
    "wait_job",
    "worker_main",
]
