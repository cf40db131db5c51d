"""Hardening tests for the ``repro.exp`` harness: golden cache keys,
deterministic fault injection against the worker pool, cache-corruption
recovery, and code-fingerprint sensitivity.

The fault-injection tests monkeypatch ``repro.exp.runner.execute_spec``
and rely on the Linux ``fork`` start method: pool workers inherit the
patched module state, so faults fire *inside* real worker processes.
Cross-attempt state (how many times a fault has fired) lives in files
under ``tmp_path`` because each attempt may land in a different
process.  Everything is deterministic — no sleeps beyond the wedged-run
fixtures, and those are cut short by the in-worker alarm.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
import warnings

import pytest

import repro
import repro.exp.cache as cache_mod
import repro.exp.runner as runner_mod
from repro.exp import (
    CACHE_SCHEMA,
    Manifest,
    ResultCache,
    RunError,
    RunSpec,
    Runner,
    SimTimeoutError,
    code_fingerprint,
    execute_spec,
    spec_key,
)

FORK = multiprocessing.get_start_method() == "fork"
needs_fork = pytest.mark.skipif(
    not FORK, reason="fault injection needs fork-inherited monkeypatches")


def tiny_spec(**overrides) -> RunSpec:
    defaults = dict(workload="tpcc", scheduler="base", cores=2,
                    transactions=4, seed=7, scale="tiny")
    defaults.update(overrides)
    return RunSpec(**defaults)


# ---------------------------------------------------------------------
# Golden cache keys
# ---------------------------------------------------------------------

#: Sentinel source fingerprint: golden keys must not depend on the
#: current source tree (every commit would invalidate them), only on
#: the key *schema* — which is exactly what they are meant to pin.
FROZEN_FINGERPRINT = "f" * 64

#: Pinned keys for a fixture of specs.  If one of these changes,
#: either the key schema changed on purpose (bump ``CACHE_SCHEMA``,
#: re-pin, and mention it in DESIGN.md) or a refactor changed keys by
#: accident and every user's cache would silently go cold.
GOLDEN_KEYS = {
    "base": (
        tiny_spec(),
        "71738ba058212463aedf8f97efebf62911dad3968d46f7075636df59fc271f09",
    ),
    "strex_team": (
        tiny_spec(scheduler="strex", team_size=4),
        "6cf7156804420987eee0c38b3e5dd078313af972bfe45cf8bd11955a6f0f2ff5",
    ),
    "strex_ablation": (
        tiny_spec(scheduler="strex", strex_overrides={"phase_bits": 2}),
        "251e40e68da0d909adcdae67a82576f55a41fc242ecc2b39e6c2b6c3ef548e13",
    ),
    "cache_override": (
        tiny_spec(cache_overrides={"assoc": 2}),
        "f92cfc6f3e440db7c20c9af3b29e5fec13436ec9ced60bf2d2df527770169d78",
    ),
    "overlap": (
        tiny_spec(mode="overlap", txn_type="NewOrder"),
        "34a6cc9bba2ea6d69f0c080d219d02683be38504957756b52e0706515ee0c1cc",
    ),
    "fptable": (
        tiny_spec(mode="fptable", transactions=3),
        "73bb1a481ba1a14308eb8b94e72a2120a78a3f6d75cf35a0991dd061f642622f",
    ),
    "paper_scale": (
        tiny_spec(workload="tpce", scale="default", replacement="bip"),
        "713f3211b285aff8827764bc45e8747d9ce45b1301c07c8e015e1465ba40a4da",
    ),
}


@pytest.fixture
def frozen_fingerprint(monkeypatch):
    monkeypatch.setattr(cache_mod, "_code_fingerprint",
                        FROZEN_FINGERPRINT)


class TestGoldenKeys:
    def test_fixture_keys_are_pinned(self, frozen_fingerprint):
        observed = {name: spec_key(spec)
                    for name, (spec, _) in GOLDEN_KEYS.items()}
        expected = {name: key
                    for name, (_, key) in GOLDEN_KEYS.items()}
        assert observed == expected

    def test_override_changes_the_key(self, frozen_fingerprint):
        plain = spec_key(tiny_spec(scheduler="strex"))
        ablated = spec_key(tiny_spec(scheduler="strex",
                                     strex_overrides={"phase_bits": 2}))
        assert plain != ablated

    def test_empty_overrides_equal_no_overrides(self, frozen_fingerprint):
        bare = tiny_spec(scheduler="strex")
        empty = tiny_spec(scheduler="strex", strex_overrides={})
        assert empty == bare
        assert empty.strex_overrides is None
        assert spec_key(empty) == spec_key(bare)

    def test_default_valued_override_shares_the_key(
            self, frozen_fingerprint):
        """The expanded config is hashed, so spelling out a default
        addresses the same content as not overriding at all."""
        bare = tiny_spec(scheduler="strex")
        spelled = tiny_spec(scheduler="strex",
                            strex_overrides={"window": 30})
        assert spelled != bare  # different specs...
        assert spec_key(spelled) == spec_key(bare)  # ...same content


# ---------------------------------------------------------------------
# Fault injection against the worker pool
# ---------------------------------------------------------------------

def _flaky_until(counter_path, failures, flaky_seed):
    """An ``execute_spec`` stand-in that raises ``OSError`` the first
    ``failures`` times it sees the spec with ``flaky_seed``."""
    real = execute_spec

    def flaky(spec):
        if spec.seed == flaky_seed:
            with open(counter_path, "ab") as handle:
                handle.write(b"x")
            if os.path.getsize(counter_path) <= failures:
                raise OSError("injected transient failure")
        return real(spec)

    return flaky


def _die_once(marker_path):
    """An ``execute_spec`` stand-in whose first caller (across all
    worker processes — the marker file is claimed with O_EXCL) kills
    its own process without cleanup, breaking the pool."""
    real = execute_spec

    def dying(spec):
        try:
            fd = os.open(marker_path, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return real(spec)
        os.close(fd)
        os._exit(1)

    return dying


@needs_fork
class TestPoolFaults:
    def test_worker_retry_until_success(self, tmp_path, monkeypatch):
        """A spec that fails transiently N times inside real workers is
        retried and ultimately succeeds; the manifest records the
        attempt count."""
        flaky_seed = 111
        specs = [tiny_spec(seed=flaky_seed), tiny_spec(seed=222)]
        monkeypatch.setattr(
            runner_mod, "execute_spec",
            _flaky_until(str(tmp_path / "count"), 2, flaky_seed))
        runner = Runner(jobs=2, retries=2)
        results = runner.run(specs)
        assert results[0] == execute_spec(specs[0])
        assert results[1] == execute_spec(specs[1])
        attempts = {entry.spec["seed"]: entry.attempts
                    for entry in runner.entries}
        assert attempts[flaky_seed] == 3
        assert attempts[222] == 1

    def test_worker_timeout_is_a_runerror(self, monkeypatch):
        """A run that sleeps past its budget is interrupted by the
        in-worker alarm, not waited out."""
        def wedged(spec):
            time.sleep(5.0)

        monkeypatch.setattr(runner_mod, "execute_spec", wedged)
        runner = Runner(jobs=2, timeout=0.2, retries=0)
        start = time.perf_counter()
        with pytest.raises(RunError) as excinfo:
            runner.run([tiny_spec(seed=1), tiny_spec(seed=2)])
        assert time.perf_counter() - start < 10.0
        assert isinstance(excinfo.value.__cause__, SimTimeoutError)

    def test_worker_death_recreates_the_pool(self, tmp_path,
                                             monkeypatch):
        """A worker that kills its own process breaks the pool; the
        runner replaces the pool, retries the lost runs, and still
        returns correct positional results."""
        specs = [tiny_spec(seed=1), tiny_spec(seed=2)]
        monkeypatch.setattr(runner_mod, "execute_spec",
                            _die_once(str(tmp_path / "died")))
        runner = Runner(jobs=2, retries=2)
        results = runner.run(specs)
        assert os.path.exists(tmp_path / "died")
        for spec, result in zip(specs, results):
            assert result == execute_spec(spec)
        # At least the run in the killed worker needed a second attempt
        # (a broken pool can fail other in-flight runs too).
        assert max(e.attempts for e in runner.entries) >= 2

    def test_worker_death_with_no_retries_fails_cleanly(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_spec",
                            _die_once(str(tmp_path / "died")))
        with pytest.raises(RunError):
            Runner(jobs=2, retries=0).run(
                [tiny_spec(seed=1), tiny_spec(seed=2)])


# ---------------------------------------------------------------------
# Timeouts off the main thread
# ---------------------------------------------------------------------

class TestThreadedTimeout:
    """A timed cell run off the main thread must not die arming
    SIGALRM (``signal.signal`` raises ``ValueError`` anywhere but the
    main thread): it falls back to no-timeout with one warning per
    process.  Pool workers and the serial path (the CLI) run on a main
    thread; this covers a library caller that drives a runner from its
    own thread."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_TIMEOUT_UNARMED_WARNED",
                            False)

    def _run_in_thread(self, target):
        thread = threading.Thread(target=target)
        thread.start()
        thread.join(60.0)
        assert not thread.is_alive()

    def test_timed_cell_completes_on_a_non_main_thread(self):
        spec = tiny_spec()
        expected = execute_spec(spec)
        box = {}

        def target():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                box["value"] = runner_mod._worker_run(spec, 5.0)
                box["messages"] = [str(w.message) for w in caught]

        self._run_in_thread(target)
        payload, result_type, _pid, _wall = box["value"]
        assert payload == expected.to_dict()
        assert result_type == type(expected).__name__
        assert any("SIGALRM" in message for message in box["messages"])

    def test_fallback_warns_once_per_process(self):
        spec = tiny_spec()
        counts = []

        def target():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runner_mod._worker_run(spec, 5.0)
                counts.append(sum("SIGALRM" in str(w.message)
                                  for w in caught))

        self._run_in_thread(target)
        self._run_in_thread(target)
        assert counts == [1, 0]

    def test_runner_with_timeout_completes_on_a_thread(self):
        """The full in-process Runner path survives a timeout request
        off the main thread."""
        spec = tiny_spec()
        expected = execute_spec(spec)
        box = {}

        def target():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                box["results"] = Runner(jobs=1, timeout=30.0,
                                        retries=0).run([spec])

        self._run_in_thread(target)
        assert box["results"] == [expected]

    def test_no_timeout_requested_never_warns(self):
        spec = tiny_spec()
        box = {}

        def target():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runner_mod._worker_run(spec, None)
                box["messages"] = [str(w.message) for w in caught]

        self._run_in_thread(target)
        assert not any("SIGALRM" in m for m in box["messages"])


# ---------------------------------------------------------------------
# Worker deaths in a multi-cell pool
# ---------------------------------------------------------------------

def _die_on(marker_path, victim_seed, die):
    """An ``execute_spec`` stand-in: the first process to reach the
    spec with ``victim_seed`` (marker claimed with O_EXCL) calls
    ``die()`` mid-run instead of doing the work."""
    real = execute_spec

    def dying(spec):
        if spec.seed == victim_seed:
            try:
                fd = os.open(marker_path, os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                return real(spec)
            os.close(fd)
            die()
        return real(spec)

    return dying


def _sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_zero():
    os._exit(0)


def _block_once_on(marker_path, victim):
    """An ``execute_spec`` stand-in: the first execution of ``victim``
    (marker claimed with O_EXCL) blocks, so a test can kill the sweep
    mid-run; later executions run normally."""
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


def _sweep_in_own_group(root, specs):
    """Forked two-worker sweep entry: in its own process group, so a
    test can SIGKILL it together with its pool workers."""
    os.setpgrp()
    Runner(jobs=2, cache=ResultCache(root)).run(specs)


def _executed_rows(root):
    """How many executed (non-hit) manifest rows the cache holds."""
    rows = Manifest(root / "manifest.jsonl").read()
    return sum(1 for row in rows if not row.hit)


@needs_fork
class TestPoolWorkerDeaths:
    """A pool worker that dies mid-cell — SIGKILLed, or a lying clean
    ``exit 0`` — breaks the pool; the runner starts a new one, retries
    the lost cells, and leaves a cache byte-identical to a clean run's
    with every cell executed once."""

    JOBS = 3

    def _specs(self):
        """Eight tiny cells; the victim is the last, so cells before it
        have completed or are in flight when its worker dies."""
        specs = [tiny_spec(seed=seed) for seed in range(1, 9)]
        return specs, specs[-1]

    def _assert_clean(self, tmp_path, specs, faulted_root, results):
        clean_root = tmp_path / "clean"
        clean = Runner(cache=ResultCache(clean_root)).run(specs)
        assert results == clean
        clean_cache = ResultCache(clean_root)
        faulted = ResultCache(faulted_root)
        keys = [spec_key(spec) for spec in specs]
        assert sorted(faulted.keys()) == sorted(keys)
        for key in keys:
            assert faulted.read_bytes(key) == clean_cache.read_bytes(key)
        # The dead attempt never completed, so every key has exactly
        # one executed manifest row.
        rows = Manifest(faulted_root / "manifest.jsonl").read()
        assert sorted(row.key for row in rows if not row.hit) == \
            sorted(keys)

    @pytest.mark.parametrize("die", [_sigkill_self, _exit_zero],
                             ids=["sigkill", "exit0"])
    def test_dead_worker_is_retried_without_recompute(
            self, tmp_path, monkeypatch, die):
        specs, victim = self._specs()
        monkeypatch.setattr(
            runner_mod, "execute_spec",
            _die_on(str(tmp_path / "died"), victim.seed, die))
        root = tmp_path / "faulted"
        runner = Runner(jobs=self.JOBS, cache=ResultCache(root))
        results = runner.run(specs)
        assert os.path.exists(tmp_path / "died")
        victim_rows = [e for e in runner.entries
                       if e.key == spec_key(victim)]
        assert [e.attempts for e in victim_rows] == [2]
        self._assert_clean(tmp_path, specs, root, results)

    def test_killed_sweep_resumes_from_the_cache(self, tmp_path,
                                                 monkeypatch):
        """A sweep SIGKILLed with its pool while its last cell runs
        loses no finished cell: rerunning it on the same cache answers
        every finished cell as a hit and executes only the lost one."""
        specs, victim = self._specs()
        monkeypatch.setattr(
            runner_mod, "execute_spec",
            _block_once_on(str(tmp_path / "blocked"), victim))
        root = tmp_path / "killed"
        process = multiprocessing.get_context("fork").Process(
            target=_sweep_in_own_group, args=(root, specs))
        process.start()
        try:
            deadline = time.monotonic() + 120.0
            while _executed_rows(root) < len(specs) - 1:
                assert process.is_alive(), "sweep exited early"
                assert time.monotonic() < deadline, "sweep never ran"
                time.sleep(0.05)
            assert os.path.exists(tmp_path / "blocked")
            os.killpg(process.pid, signal.SIGKILL)
            process.join(60.0)
            assert not process.is_alive()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)  # on a failure
            process.join(60.0)

        runner = Runner(cache=ResultCache(root))
        results = runner.run(specs)
        assert (runner.hits, runner.misses) == (len(specs) - 1, 1)
        self._assert_clean(tmp_path, specs, root, results)

    @pytest.mark.parametrize("die", [_sigkill_self, _exit_zero],
                             ids=["sigkill", "exit0"])
    def test_repeated_deaths_raise_runerror(self, tmp_path, monkeypatch,
                                            die):
        """A cell whose worker dies on every attempt exhausts the retry
        budget and surfaces as RunError naming it, not a silent hole;
        whatever did reach the cache is still a clean run's bytes."""
        specs, victim = self._specs()
        clean = ResultCache(tmp_path / "clean")
        Runner(cache=clean).run(specs)

        def always_dies(spec):
            if spec.seed == victim.seed:
                die()
            return execute_spec(spec)

        monkeypatch.setattr(runner_mod, "execute_spec", always_dies)
        root = tmp_path / "faulted"
        with pytest.raises(RunError) as excinfo:
            Runner(jobs=self.JOBS, cache=ResultCache(root),
                   retries=1).run(specs)
        assert excinfo.value.spec == victim
        assert excinfo.value.attempts == 2
        faulted = ResultCache(root)
        for key in faulted.keys():
            assert faulted.read_bytes(key) == clean.read_bytes(key)


# ---------------------------------------------------------------------
# Cache corruption
# ---------------------------------------------------------------------

class TestCacheCorruption:
    def _seeded(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        result = execute_spec(spec)
        key = spec_key(spec)
        cache.put(key, result, spec)
        return cache, key, result, spec

    def _assert_recovers(self, cache, key, result, spec):
        """The poisoned entry reads as a miss, is removed, and the slot
        is immediately writable again."""
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()
        cache.put(key, result, spec)
        assert cache.get(key) == result

    def test_truncated_json(self, tmp_path):
        cache, key, result, spec = self._seeded(tmp_path)
        path = cache.path_for(key)
        path.write_text(path.read_text()[:40])
        self._assert_recovers(cache, key, result, spec)

    def test_empty_file(self, tmp_path):
        cache, key, result, spec = self._seeded(tmp_path)
        cache.path_for(key).write_text("")
        self._assert_recovers(cache, key, result, spec)

    def test_wrong_schema_version(self, tmp_path):
        cache, key, result, spec = self._seeded(tmp_path)
        cache.path_for(key).write_text(
            '{"schema": %d, "result": {}}' % (CACHE_SCHEMA - 1))
        self._assert_recovers(cache, key, result, spec)

    def test_unknown_result_type(self, tmp_path):
        cache, key, result, spec = self._seeded(tmp_path)
        cache.path_for(key).write_text(
            '{"schema": %d, "result_type": "MysteryResult", '
            '"result": {}}' % CACHE_SCHEMA)
        self._assert_recovers(cache, key, result, spec)

    def test_wrong_result_shape(self, tmp_path):
        cache, key, result, spec = self._seeded(tmp_path)
        cache.path_for(key).write_text(
            '{"schema": %d, "result_type": "RunResult", '
            '"result": {"bogus_field": 1}}' % CACHE_SCHEMA)
        self._assert_recovers(cache, key, result, spec)

    def test_put_rejects_unregistered_result_type(self, tmp_path):
        with pytest.raises(TypeError, match="unregistered result type"):
            ResultCache(tmp_path).put("0" * 64, object())


# ---------------------------------------------------------------------
# Code-fingerprint sensitivity
# ---------------------------------------------------------------------

class TestCodeFingerprint:
    @pytest.fixture
    def fake_package(self, tmp_path, monkeypatch):
        """Point ``code_fingerprint`` at a throwaway package so the
        tests can edit 'source' without touching the real tree."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("X = 1\n")
        monkeypatch.setattr(repro, "__file__",
                            str(pkg / "__init__.py"))
        monkeypatch.setattr(cache_mod, "_code_fingerprint", None)
        return pkg

    def _fresh_fingerprint(self):
        cache_mod._code_fingerprint = None
        return code_fingerprint()

    def test_editing_source_changes_fingerprint_and_keys(
            self, fake_package):
        before_fp = self._fresh_fingerprint()
        before_key = spec_key(tiny_spec())
        (fake_package / "mod.py").write_text("X = 2\n")
        after_fp = self._fresh_fingerprint()
        assert after_fp != before_fp
        assert spec_key(tiny_spec()) != before_key

    def test_renaming_a_module_changes_fingerprint(self, fake_package):
        before = self._fresh_fingerprint()
        os.rename(fake_package / "mod.py", fake_package / "mod2.py")
        assert self._fresh_fingerprint() != before

    def test_fingerprint_is_memoized(self, fake_package):
        first = self._fresh_fingerprint()
        (fake_package / "mod.py").write_text("X = 3\n")
        # No memo reset: the stale value is intentionally reused for
        # the life of the process.
        assert code_fingerprint() == first
