"""repro.svc — a persistent sweep service: a file queue in front of
the experiment runner.

``repro submit`` puts a grid as one durable job on a bounded,
priority-aware, file-backed queue (:mod:`repro.svc.queue`), even
before any service runs.  ``repro serve`` starts a supervisor
(:mod:`repro.svc.supervisor`) that claims jobs one at a time and runs
each through :class:`~repro.exp.runner.Runner` with ``--workers`` pool
processes.  ``repro status`` and ``submit --wait`` read the job
records through the file-protocol client (:mod:`repro.svc.client`).

A served grid runs the code ``repro sweep`` runs, so its cache entries
are byte-identical to a solo run's (asserted by differential test),
and the service directory lives under ``<cache>/svc/`` where the
cache's two-level entry glob cannot see it.
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
from repro.svc.supervisor import DEFAULT_WORKERS, Supervisor

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_PRIORITY",
    "DEFAULT_WORKERS",
    "JobFailed",
    "JobQueue",
    "QueueFull",
    "Supervisor",
    "format_status",
    "read_job",
    "service_status",
    "submit_job",
    "svc_root_for",
    "wait_job",
]
