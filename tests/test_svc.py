"""Tests for the persistent sweep service (``repro.svc``).

Three layers:

* pure-filesystem units — the bounded priority queue needs no
  processes at all;
* the client protocol — submit/status are file-only, so they are
  exercised with no supervisor alive (durable queued jobs, absent
  service status);
* the live service — a real supervisor (and its runner's worker pool)
  forked from the test process.  These are the load-bearing tests: a
  served grid must be *byte-identical* to the same grid run by a solo
  :class:`~repro.exp.runner.Runner` (the service's core contract), a
  warm resubmission must be all cache hits, a SIGKILLed pool worker
  must be retried, a supervisor killed or stopped mid-job must leave
  the job for the next serve to finish without recomputing a cached
  cell, and ``--timeout`` must be enforced.

The live tests rely on the ``fork`` start method (like the fault
tests in ``test_exp_faults.py``): monkeypatched module state is
inherited by the supervisor and its pool workers, so faults fire
inside real worker processes.
"""

from __future__ import annotations

import collections
import contextlib
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

import repro.exp.runner as runner_mod
from repro.__main__ import main
from repro.exp import (
    Manifest,
    ResultCache,
    RunSpec,
    Runner,
    SweepSpec,
    execute_spec,
    spec_key,
)
from repro.svc import (
    JobFailed,
    JobQueue,
    QueueFull,
    Supervisor,
    format_status,
    read_job,
    service_status,
    submit_job,
    svc_root_for,
    wait_job,
)
from repro.svc.supervisor import read_state

FORK = multiprocessing.get_start_method() == "fork"
needs_fork = pytest.mark.skipif(
    not FORK, reason="live-service tests need fork-inherited state")


def tiny_spec(**overrides) -> RunSpec:
    defaults = dict(workload="tpcc", scheduler="base", cores=2,
                    transactions=4, seed=7, scale="tiny")
    defaults.update(overrides)
    return RunSpec(**defaults)


def small_grid():
    """Four tiny cells: base and strex at one and two cores."""
    return [tiny_spec(scheduler=scheduler, cores=cores)
            for scheduler in ("base", "strex") for cores in (1, 2)]


def cache_blobs(root):
    """Every cache entry's raw bytes, keyed by cache key."""
    cache = ResultCache(root)
    return {key: cache.read_bytes(key) for key in cache.keys()}


# ---------------------------------------------------------------------
# Queue units
# ---------------------------------------------------------------------

class TestJobQueue:
    def test_priority_then_fifo_order(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit({"n": "a"}, priority=5)
        queue.submit({"n": "b"}, priority=1)
        queue.submit({"n": "c"}, priority=5)
        order = [queue.claim_next()[1]["n"] for _ in range(3)]
        assert order == ["b", "a", "c"]
        assert queue.claim_next() is None

    def test_capacity_backpressure(self, tmp_path):
        queue = JobQueue(tmp_path / "q", capacity=2)
        queue.submit({})
        queue.submit({})
        with pytest.raises(QueueFull, match="capacity 2"):
            queue.submit({})
        start = time.monotonic()
        with pytest.raises(QueueFull):
            queue.submit({}, block=True, timeout=0.2, poll=0.02)
        assert time.monotonic() - start >= 0.2
        queue.claim_next()  # consumer frees a slot
        queue.submit({})

    def test_depth_and_discard(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        assert queue.depth() == 0
        job_id = queue.submit({})
        assert queue.depth() == 1
        assert queue.discard(job_id) is True
        assert queue.depth() == 0
        assert queue.claim_next() is None

    def test_priority_must_be_a_single_digit(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        with pytest.raises(ValueError, match="priority"):
            queue.submit({}, priority=10)
        with pytest.raises(ValueError, match="priority"):
            queue.submit({}, priority=-1)

    def test_capacity_is_published_to_other_processes(self, tmp_path):
        server = JobQueue(tmp_path / "q", capacity=7)
        server.persist_capacity()
        client = JobQueue(tmp_path / "q")  # no explicit capacity
        assert client.capacity == 7


# ---------------------------------------------------------------------
# Client protocol without a supervisor
# ---------------------------------------------------------------------

class TestClientOffline:
    def test_submission_is_durable_and_visible(self, tmp_path):
        root = svc_root_for(tmp_path / "cache")
        job_id = submit_job(root, [tiny_spec()], priority=3)
        record = read_job(root, job_id)
        assert record["state"] == "queued"
        assert record["priority"] == 3
        assert len(record["specs"]) == 1
        status = service_status(root)
        assert status["supervisor"]["alive"] is False
        assert status["supervisor"]["state"] == "absent"
        assert status["queue"]["pending"] == 1
        assert status["jobs"]["queued"] == 1
        text = format_status(status)
        assert "1 queued" in text
        assert "1 pending" in text

    def test_sweepspec_is_expanded_client_side(self, tmp_path):
        root = tmp_path / "svc"
        sweep = SweepSpec(workloads=("tpcc",), schedulers=("base",),
                          cores=(1, 2), seeds=(7,), scales=("tiny",),
                          transactions=4)
        job_id = submit_job(root, sweep)
        assert len(read_job(root, job_id)["specs"]) == 2

    def test_empty_job_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no cells"):
            submit_job(tmp_path / "svc", [])

    def test_invalid_cell_is_rejected_at_submit_time(self, tmp_path):
        bad = tiny_spec(scheduler="strex", team_size=0)
        with pytest.raises(ValueError, match="is invalid"):
            submit_job(tmp_path / "svc", [bad])
        assert not (tmp_path / "svc" / "jobs").exists()

    def test_wait_times_out_on_an_unserved_job(self, tmp_path):
        root = tmp_path / "svc"
        job_id = submit_job(root, [tiny_spec()])
        with pytest.raises(TimeoutError, match="queued"):
            wait_job(root, job_id, timeout=0.2, poll=0.02)

    def test_status_on_a_never_used_directory(self, tmp_path):
        status = service_status(tmp_path / "svc")
        assert status["supervisor"]["state"] == "absent"
        assert status["queue"]["pending"] == 0
        assert status["job_list"] == []
        assert status["warm"]["rate"] is None


# ---------------------------------------------------------------------
# Live service
# ---------------------------------------------------------------------

def _serve_entry(cache_dir: str, workers: int,
                 timeout: float | None) -> None:
    """Forked supervisor entry: fast polling, in its own process group
    so a test can SIGKILL it together with its pool workers."""
    os.setpgrp()
    Supervisor(Path(cache_dir), workers=workers, timeout=timeout,
               poll_interval=0.01).serve()


@contextlib.contextmanager
def service(cache_dir: Path, workers: int = 2,
            timeout: float | None = None):
    """A live service on ``cache_dir``; SIGTERM-stopped on exit."""
    context = multiprocessing.get_context("fork")
    process = context.Process(target=_serve_entry,
                              args=(str(cache_dir), workers, timeout))
    process.start()
    root = svc_root_for(cache_dir)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        state = read_state(root)
        if state and state.get("state") == "serving" \
                and state.get("pid") == process.pid:
            break
        time.sleep(0.02)
    else:  # pragma: no cover - startup wedge
        process.kill()
        process.join()
        pytest.fail("supervisor never reached the serving state")
    try:
        yield root, process
    finally:
        if process.is_alive():
            os.kill(process.pid, signal.SIGTERM)
        process.join(60.0)
        if process.is_alive():  # pragma: no cover - stop wedge
            process.kill()
            process.join()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)  # stray pool workers


def _sigkill_first_execution(marker_path):
    """An ``execute_spec`` stand-in: the first execution anywhere in
    the worker pool (marker claimed with O_EXCL) SIGKILLs its own
    worker process mid-cell."""
    real = execute_spec

    def killing(spec):
        try:
            fd = os.open(marker_path, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return real(spec)
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)

    return killing


def _block_once_on(marker_path, victim):
    """An ``execute_spec`` stand-in: the first execution of ``victim``
    (marker claimed with O_EXCL) blocks, so a test can kill or stop
    the supervisor mid-job; later executions run normally."""
    real = execute_spec

    def blocking(spec):
        if spec == victim:
            try:
                fd = os.open(marker_path, os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                return real(spec)
            os.close(fd)
            time.sleep(120.0)
        return real(spec)

    return blocking


def executed_rows(cache_dir):
    """How many executed (non-hit) manifest rows each key has."""
    rows = Manifest(Path(cache_dir) / "manifest.jsonl").read()
    return collections.Counter(row.key for row in rows if not row.hit)


@needs_fork
class TestServiceDifferential:
    def test_served_grid_is_byte_identical_to_a_solo_run(
            self, tmp_path):
        """The core contract end to end: a served job executes every
        cell, leaves the cache byte-identical to a solo Runner's, and a
        warm resubmission is 100% cache hits settled without a
        worker process."""
        specs = small_grid()
        served_root = tmp_path / "served"
        with service(served_root, workers=2) as (root, _process):
            job_id = submit_job(root, specs)
            record = wait_job(root, job_id, timeout=300.0)
            assert record["state"] == "done"
            assert record["done"] == len(specs)
            assert record["executed"] == len(specs)
            assert record["cache_hits"] == 0

            warm_id = submit_job(root, specs)
            warm = wait_job(root, warm_id, timeout=60.0)
            assert warm["state"] == "done"
            assert warm["cache_hits"] == len(specs)
            assert warm["executed"] == 0
            assert warm["warm_rate"] == 1.0
            # Cached cells are answered by the runner in the supervisor.
            assert all(cell["worker"] is None
                       for cell in warm["cells"].values())

            status = service_status(root)
            assert status["supervisor"]["alive"] is True
            assert status["jobs"]["done"] == 2

        # Drained: the supervisor exited 0 and published its state.
        assert read_state(root)["state"] == "stopped"

        solo_root = tmp_path / "solo"
        Runner(cache=ResultCache(solo_root)).run(specs)
        blobs = cache_blobs(served_root)
        assert blobs == cache_blobs(solo_root)
        assert len(blobs) == len(specs)

        # The shared manifest saw one executed row per cell plus one
        # hit row per warm-resubmitted cell.
        rows = Manifest(served_root / "manifest.jsonl").read()
        keys = sorted(spec_key(spec) for spec in specs)
        assert sorted(r.key for r in rows if not r.hit) == keys
        assert sorted(r.key for r in rows if r.hit) == keys

    def test_submission_before_serve_is_admitted(self, tmp_path):
        """Queued jobs are durable: a job submitted with no service
        alive runs as soon as one starts."""
        cache_dir = tmp_path / "cache"
        root = svc_root_for(cache_dir)
        job_id = submit_job(root, [tiny_spec()])
        assert read_job(root, job_id)["state"] == "queued"
        with service(cache_dir, workers=1):
            record = wait_job(root, job_id, timeout=120.0)
        assert record["state"] == "done"
        assert record["executed"] == 1
        assert ResultCache(cache_dir).get(spec_key(tiny_spec())) \
            is not None


@needs_fork
class TestServiceCrashPaths:
    def test_sigkilled_worker_is_restarted_and_the_cell_requeued(
            self, tmp_path, monkeypatch):
        """A pool worker SIGKILLed mid-cell breaks the runner's pool;
        the runner starts a new pool and retries the lost cells, and
        the job still finishes with bytes identical to a solo run."""
        specs = small_grid()
        solo_root = tmp_path / "solo"
        Runner(cache=ResultCache(solo_root)).run(specs)

        monkeypatch.setattr(
            runner_mod, "execute_spec",
            _sigkill_first_execution(str(tmp_path / "killed")))
        served_root = tmp_path / "served"
        with service(served_root, workers=2) as (root, _process):
            job_id = submit_job(root, specs)
            record = wait_job(root, job_id, timeout=300.0)
            assert os.path.exists(tmp_path / "killed")
            assert record["state"] == "done"
            assert record["executed"] == len(specs)
            # The killed cell (and any other cell in flight when the
            # pool broke) needed a second attempt.
            attempts = [cell["attempts"]
                        for cell in record["cells"].values()]
            assert max(attempts) == 2
        assert cache_blobs(served_root) == cache_blobs(solo_root)
        assert set(executed_rows(served_root).values()) == {1}

    @pytest.mark.parametrize("how", ["SIGKILL", "SIGTERM"])
    def test_interrupted_job_is_resumed_by_the_next_serve(
            self, tmp_path, monkeypatch, how):
        """A supervisor SIGKILLed (with its pool) or SIGTERMed mid-job
        leaves the job ``running``; the next serve finishes it,
        answering the cells that had finished from the cache, so no key
        is executed twice."""
        specs = small_grid()
        victim = specs[-1]
        solo_root = tmp_path / "solo"
        Runner(cache=ResultCache(solo_root)).run(specs)

        monkeypatch.setattr(
            runner_mod, "execute_spec",
            _block_once_on(str(tmp_path / "blocked"), victim))
        served_root = tmp_path / "served"
        with service(served_root, workers=2) as (root, process):
            job_id = submit_job(root, specs)
            deadline = time.monotonic() + 120.0
            while sum(executed_rows(served_root).values()) < \
                    len(specs) - 1:
                assert time.monotonic() < deadline, "job never ran"
                time.sleep(0.05)
            assert os.path.exists(tmp_path / "blocked")
            if how == "SIGKILL":
                os.killpg(process.pid, signal.SIGKILL)
                process.join(60.0)
                assert not process.is_alive()
            else:
                os.kill(process.pid, signal.SIGTERM)
                process.join(60.0)
                assert process.exitcode == 0
                assert read_state(root)["state"] == "stopped"
            assert read_job(root, job_id)["state"] == "running"

        with service(served_root, workers=2) as (root, _process):
            record = wait_job(root, job_id, timeout=300.0)
        assert record["state"] == "done"
        assert record["cache_hits"] == len(specs) - 1
        assert record["executed"] == 1
        assert cache_blobs(served_root) == cache_blobs(solo_root)
        assert executed_rows(served_root) == collections.Counter(
            spec_key(spec) for spec in specs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_fails_a_wedged_job(self, tmp_path, monkeypatch,
                                        workers):
        """``--timeout`` is enforced on both the inline path (one
        worker: the supervisor's main thread arms the alarm) and the
        pool path: a wedged cell fails its job, naming the timeout."""
        def wedged(spec):
            time.sleep(5.0)

        monkeypatch.setattr(runner_mod, "execute_spec", wedged)
        start = time.monotonic()
        with service(tmp_path / "cache", workers=workers,
                     timeout=0.2) as (root, _process):
            job_id = submit_job(root, [tiny_spec(seed=1),
                                       tiny_spec(seed=2)])
            with pytest.raises(JobFailed, match="SimTimeoutError"):
                wait_job(root, job_id, timeout=10.0)
        assert time.monotonic() - start < 10.0
        assert read_job(root, job_id)["failed"] >= 1

    def test_permanent_failure_cancels_the_rest_of_the_job(
            self, tmp_path, monkeypatch):
        """A cell that fails deterministically fails its job and the
        job's remaining cells are cancelled, as in ``repro sweep``."""
        real = execute_spec

        def broken(spec):
            if spec.seed == 2:
                raise ValueError("injected deterministic failure")
            return real(spec)

        monkeypatch.setattr(runner_mod, "execute_spec", broken)
        specs = [tiny_spec(seed=seed) for seed in (1, 2, 3)]
        with service(tmp_path / "cache", workers=1) as (root, _process):
            job_id = submit_job(root, specs)
            record = wait_job(root, job_id, timeout=120.0,
                              raise_on_failure=False)
        statuses = [cell["status"] for _, cell in
                    sorted(record["cells"].items())]
        assert record["state"] == "failed"
        assert statuses == ["done", "failed", "cancelled"]
        assert "injected deterministic failure" in \
            record["cells"][f"{job_id}.0001"]["error"]

    def test_second_supervisor_is_refused(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with service(cache_dir, workers=1):
            with pytest.raises(RuntimeError, match="already serving"):
                Supervisor(cache_dir, workers=1).serve()


# ---------------------------------------------------------------------
# Service files stay invisible to the result cache
# ---------------------------------------------------------------------

class TestServiceCacheIsolation:
    def test_svc_files_never_alias_cache_entries(self, tmp_path):
        """Everything the service writes lives at depth >= 3 under the
        cache root, so the cache's two-level ``*/*.json`` entry glob
        can never pick a service file up as a result."""
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        spec = tiny_spec()
        key = spec_key(spec)
        cache.put(key, execute_spec(spec), spec)
        root = svc_root_for(cache_dir)
        submit_job(root, [spec])  # queue file + job record
        assert sorted(cache.keys()) == [key]


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------

class TestServiceCli:
    GRID = ["--workloads", "tpcc", "--schedulers", "base",
            "--cores", "1", "--seeds", "7", "--scales", "tiny",
            "--transactions", "4"]

    def test_submit_enqueues_without_a_server(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(["submit", *self.GRID,
                     "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted job" in out
        assert "1 cell(s)" in out
        root = svc_root_for(cache_dir)
        status = service_status(root)
        assert status["queue"]["pending"] == 1
        assert status["jobs"]["queued"] == 1

    def test_submit_reports_a_full_queue(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        root = svc_root_for(cache_dir)
        JobQueue(root / "queue", capacity=1).persist_capacity()
        assert main(["submit", *self.GRID,
                     "--cache-dir", str(cache_dir)]) == 0
        code = main(["submit", *self.GRID,
                     "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "queue full" in out

    def test_status_json_is_machine_readable(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(["submit", *self.GRID, "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        code = main(["status", "--cache-dir", str(cache_dir),
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        status = json.loads(out)
        assert status["supervisor"]["alive"] is False
        assert status["queue"]["pending"] == 1
        assert status["jobs"]["queued"] == 1

    def test_status_text_on_an_empty_service(self, tmp_path, capsys):
        code = main(["status", "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "supervisor: absent" in out

    def test_submit_rejects_a_bad_priority(self, tmp_path, capsys):
        code = main(["submit", *self.GRID,
                     "--cache-dir", str(tmp_path / "cache"),
                     "--priority", "11"])
        assert code == 2
        assert "priority" in capsys.readouterr().err

    def test_submit_rejects_an_invalid_cell(self, tmp_path, capsys):
        code = main(["submit",
                     "--workloads", "tpcc", "--schedulers", "strex",
                     "--team-size", "0", "--cores", "2",
                     "--scales", "tiny", "--transactions", "4",
                     "--cache-dir", str(tmp_path / "cache")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "is invalid" in err
