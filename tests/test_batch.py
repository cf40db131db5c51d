"""Hit-run fast-forwarding and the ``REPRO_SIM_NOBATCH`` switch.

The contract under test is byte-identity: with fast-forwarding on or
off (``REPRO_SIM_NOBATCH=1``), every simulation must serialize to
exactly the same :func:`result_blob`.  On top of the differential
sweep, unit tests pin the pieces the blobs alone don't: run-table
construction, residency-signature invalidation on flush/invalidate,
the trace content key, the cache mutation version, and the
oracle/NOBATCH bypasses.
"""

import random
from pathlib import Path

import pytest

from repro.cache.cache import Cache, ReferenceCache
from repro.config import CacheConfig, tiny_scale
from repro.exp.diff import result_blob
from repro.fastpath import CHECK_ENV, ENV_VAR, NOBATCH_ENV
from repro.sim.api import SCHEDULERS, simulate
from repro.sim.engine import SimulationEngine
from repro.trace.trace import RUN_MIN_EVENTS, TransactionTrace
from repro.verify.harness import load_corpus
from repro.workloads import WORKLOADS

CORPUS_DIR = Path(__file__).parent / "corpus"


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    """Unset mode flags for every test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.delenv(CHECK_ENV, raising=False)
    monkeypatch.delenv(NOBATCH_ENV, raising=False)


def _mix(transactions=8, seed=7, cores=2):
    config = tiny_scale(num_cores=cores)
    suite = WORKLOADS["tpcc"](config.l1i_blocks, seed)
    return config, suite.generate_mix(transactions, seed=seed)


def _nobatch_blob(monkeypatch, config, traces, scheduler="base"):
    monkeypatch.setenv(NOBATCH_ENV, "1")
    try:
        return result_blob(
            simulate(config, traces, scheduler, "tpcc"))
    finally:
        monkeypatch.delenv(NOBATCH_ENV)


class TestRecordReplayDifferential:
    """Fast-forward on vs off: one run each, byte-identical."""

    def test_matches_nobatch_byte_for_byte(self, monkeypatch):
        config, traces = _mix()
        on = result_blob(simulate(config, traces, "base", "tpcc"))
        assert on == _nobatch_blob(monkeypatch, config, traces)

    @pytest.mark.parametrize(
        "scheduler", ("base", "strex", "slicc", "hybrid", "smt"))
    def test_every_scheduler_matches_nobatch(self, monkeypatch,
                                             scheduler):
        """Fast-forwarding runs under every scheduler (the tight and
        the monitored loops) -- the bytes must not move."""
        config, traces = _mix()
        on = result_blob(simulate(config, traces, scheduler, "tpcc"))
        assert on == _nobatch_blob(monkeypatch, config, traces,
                                   scheduler)

    def test_corpus_batch_on_off(self, monkeypatch):
        """Every committed fuzz case: a fast-forward-on run and a
        fast-forward-off run, byte-identical."""
        pairs = load_corpus(CORPUS_DIR)
        assert pairs, "committed corpus missing"
        for path, case in pairs:
            config = case.build_config()
            traces = case.build_traces()
            blobs = set()
            for nobatch in (False, True):
                if nobatch:
                    monkeypatch.setenv(NOBATCH_ENV, "1")
                else:
                    monkeypatch.delenv(NOBATCH_ENV, raising=False)
                blobs.add(result_blob(simulate(
                    config, traces, case.scheduler,
                    workload_name=case.workload,
                    prefetcher=case.prefetcher,
                    team_size=case.team_size,
                )))
            monkeypatch.delenv(NOBATCH_ENV)
            assert len(blobs) == 1, \
                f"fast-forward on/off diverged: {path}"


class TestFastForwardInvalidation:
    def _drive_until_memoized(self, engine):
        thread = engine.threads[0]
        while thread.pos < len(thread.trace):
            engine.run_events(0, thread, 200)
            if engine._ff_memos[0]:
                return thread
        pytest.skip("trace produced no memoized runs")

    def test_flush_invalidates_every_memo(self):
        config, traces = _mix()
        engine = SimulationEngine(config, traces, SCHEDULERS["base"])
        self._drive_until_memoized(engine)
        l1i = engine.hier.l1i[0]
        shock_before = l1i.version - engine._ff_fill_base[0]
        l1i.flush()
        shock_after = l1i.version - engine._ff_fill_base[0]
        # Every memo's signature embeds the out-of-band count, so the
        # bump stales all of them at once.
        assert shock_after == shock_before + 1

    def test_invalidate_invalidates_every_memo(self):
        config, traces = _mix()
        engine = SimulationEngine(config, traces, SCHEDULERS["base"])
        self._drive_until_memoized(engine)
        l1i = engine.hier.l1i[0]
        block = next(iter(l1i.resident_blocks()))
        shock_before = l1i.version - engine._ff_fill_base[0]
        assert l1i.invalidate(block)
        shock_after = l1i.version - engine._ff_fill_base[0]
        assert shock_after == shock_before + 1

    def test_results_unchanged_by_mid_run_flush(self, monkeypatch):
        """Flush mid-simulation, fast-forward on vs off: the memos must
        not leak pre-flush residency into post-flush runs."""

        def drive(nobatch):
            if nobatch:
                monkeypatch.setenv(NOBATCH_ENV, "1")
            else:
                monkeypatch.delenv(NOBATCH_ENV, raising=False)
            config, traces = _mix(transactions=4)
            engine = SimulationEngine(
                config, traces, SCHEDULERS["base"])
            thread = engine.threads[0]
            slices = 0
            while thread.pos < len(thread.trace):
                engine.run_events(0, thread, 200)
                slices += 1
                if slices == 3:
                    engine.hier.l1i[0].flush()
            stats = engine.hier.l1i[0].stats
            return (engine.core_time[0], stats.hits, stats.misses,
                    thread.instructions_done)

        assert drive(nobatch=False) == drive(nobatch=True)

    def test_ff_disabled_when_oracles_armed(self, monkeypatch):
        monkeypatch.setenv(CHECK_ENV, "1")
        config, traces = _mix(transactions=4)
        engine = SimulationEngine(config, traces, SCHEDULERS["base"])
        assert not engine._ff_enabled
        engine.run("tpcc")
        assert engine.ff_runs == 0

    def test_ff_disabled_under_nobatch(self, monkeypatch):
        monkeypatch.setenv(NOBATCH_ENV, "1")
        config, traces = _mix(transactions=4)
        engine = SimulationEngine(config, traces, SCHEDULERS["base"])
        assert not engine._ff_enabled
        engine.run("tpcc")
        assert engine.ff_runs == 0

    def test_ff_engages_on_plain_engine(self):
        config, traces = _mix(transactions=4)
        engine = SimulationEngine(config, traces, SCHEDULERS["base"])
        assert engine._ff_enabled
        engine.run("tpcc")
        assert engine.ff_runs > 0


class TestRunTables:
    def test_spans_and_metadata(self):
        # Events 0-3 are instruction-only (a minimal run); event 4
        # carries data; event 5 is a too-short singleton span.
        trace = TransactionTrace(
            1, "X",
            [1, 2, 3, 4, 5, 6],
            [1, 2, 1, 2, 1, 1],
            [-1, -1, -1, -1, 9, -1],
            [0, 0, 0, 0, 1, 0],
        )
        tables = trace.run_tables(0.5, 4)
        assert tables is not None
        next_ff, runs = tables
        assert list(runs) == [0]
        rend, icycles, distinct, last_offs, n_run, run_sets = runs[0]
        assert rend == 4
        assert icycles == [0.5, 1.0, 0.5, 1.0]
        assert distinct == (1, 2, 3, 4)
        assert last_offs == [0, 1, 2, 3]
        assert n_run == 4
        assert run_sets == (1, 2, 3, 0)
        assert next_ff == [0, 6, 6, 6, 6, 6, 6]

    def test_repeated_blocks_keep_last_offset(self):
        trace = TransactionTrace(
            1, "X",
            [7, 8, 7, 8, 7],
            [1] * 5,
            [-1] * 5,
            [0] * 5,
        )
        _, runs = trace.run_tables(1.0, 4)
        rend, _, distinct, last_offs, n_run, run_sets = runs[0]
        assert rend == 5
        assert distinct == (7, 8)
        assert last_offs == [4, 3]
        assert n_run == 5
        assert run_sets == (3, 0)

    def test_short_spans_yield_no_tables(self):
        n = RUN_MIN_EVENTS - 1
        trace = TransactionTrace(
            1, "X",
            list(range(n)) + [99],
            [1] * (n + 1),
            [-1] * n + [5],
            [0] * (n + 1),
        )
        assert trace.run_tables(1.0, 4) is None

    def test_memoized_per_parameters(self):
        trace = TransactionTrace(
            1, "X", [1, 2, 3, 4], [1] * 4, [-1] * 4, [0] * 4)
        assert trace.run_tables(1.0, 4) is trace.run_tables(1.0, 4)
        assert trace.run_tables(1.0, 4) is not trace.run_tables(2.0, 4)


class TestContentKey:
    def test_array_and_list_backed_traces_agree(self):
        np = pytest.importorskip("numpy")
        cols = ([1, 2, 3], [1, 1, 2], [-1, 5, -1], [0, 1, 0])
        as_lists = TransactionTrace(3, "T", *cols)
        as_arrays = TransactionTrace(
            3, "T", *(np.asarray(c) for c in cols))
        assert as_lists.content_key() == as_arrays.content_key()
        assert as_lists.event_columns() == as_arrays.event_columns()

    def test_sensitive_to_every_column_and_meta(self):
        base = (3, "T", [1, 2], [1, 1], [-1, 5], [0, 1])
        key = TransactionTrace(*base).content_key()
        variants = [
            (4, "T", [1, 2], [1, 1], [-1, 5], [0, 1]),
            (3, "U", [1, 2], [1, 1], [-1, 5], [0, 1]),
            (3, "T", [1, 9], [1, 1], [-1, 5], [0, 1]),
            (3, "T", [1, 2], [1, 2], [-1, 5], [0, 1]),
            (3, "T", [1, 2], [1, 1], [-1, 6], [0, 1]),
            (3, "T", [1, 2], [1, 1], [-1, 5], [0, 0]),
        ]
        assert all(
            TransactionTrace(*v).content_key() != key
            for v in variants
        )

    def test_memoized(self):
        trace = TransactionTrace(1, "X", [1], [1], [-1], [0])
        assert trace.content_key() is trace.content_key()


class TestVersionCounter:
    @pytest.mark.parametrize("cls", (Cache, ReferenceCache))
    def test_mutators_bump(self, cls):
        cache = cls(CacheConfig(512, assoc=4),
                    rng=random.Random(7))
        version = cache.version
        cache.access(1)
        assert cache.version > version
        version = cache.version
        cache.access(1)  # hits still promote/tag -> still a mutation
        assert cache.version > version
        version = cache.version
        cache.set_tag(1, 3)
        assert cache.version > version
        version = cache.version
        assert cache.invalidate(1)
        assert cache.version > version
        version = cache.version
        cache.access(2)
        cache.flush()
        assert cache.version > version
        version = cache.version
        cache.reset_tags()
        assert cache.version > version

    @pytest.mark.parametrize("cls", (Cache, ReferenceCache))
    def test_nonresident_probes_still_conservative(self, cls):
        cache = cls(CacheConfig(512, assoc=4),
                    rng=random.Random(7))
        version = cache.version
        assert not cache.invalidate(42)
        assert not cache.set_tag(42, 1)
        # Bumping on a no-op is allowed (conservative), never required
        # to stay put -- but residency must be unchanged.
        assert cache.occupancy == 0
        assert cache.version >= version

