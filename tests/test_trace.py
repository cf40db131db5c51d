"""Tests for repro.trace.trace."""

import pytest

from repro.trace.trace import (
    RUN_MIN_EVENTS,
    TraceBuilder,
    TransactionTrace,
    load_traces,
    save_traces,
)


def build_simple(txn_id=0, txn_type="T", events=((1, 10, -1, 0),)):
    builder = TraceBuilder(txn_id, txn_type)
    for iblock, ilen, dblock, dwrite in events:
        builder.append(iblock, ilen, dblock, dwrite)
    return builder.build()


class TestBuilder:
    def test_build_simple(self):
        trace = build_simple()
        assert len(trace) == 1
        assert trace.total_instructions == 10

    def test_empty_build_raises(self):
        with pytest.raises(ValueError, match="empty"):
            TraceBuilder(0, "T").build()

    def test_zero_ilen_rejected(self):
        builder = TraceBuilder(0, "T")
        with pytest.raises(ValueError):
            builder.append(1, 0)

    def test_last_iblock(self):
        builder = TraceBuilder(0, "T")
        assert builder.last_iblock is None
        builder.append(42, 5)
        assert builder.last_iblock == 42

    def test_len(self):
        builder = TraceBuilder(0, "T")
        builder.append(1, 1)
        builder.append(2, 1)
        assert len(builder) == 2


class TestTrace:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            TransactionTrace(0, "T", [1, 2], [1], [-1, -1], [0, 0])

    def test_events_iteration(self):
        trace = build_simple(events=((1, 5, 7, 1), (2, 3, -1, 0)))
        events = list(trace.events())
        assert events == [(1, 5, 7, 1), (2, 3, -1, 0)]

    def test_unique_iblocks(self):
        trace = build_simple(events=((1, 5, -1, 0), (2, 5, -1, 0),
                                     (1, 5, -1, 0)))
        assert trace.unique_iblocks() == {1, 2}

    def test_footprint_units(self):
        trace = build_simple(events=tuple((i, 4, -1, 0)
                                          for i in range(64)))
        assert trace.footprint_units(32) == 2.0

    def test_numpy_views(self):
        trace = build_simple(events=((1, 5, -1, 0), (2, 3, -1, 0)))
        assert trace.iblock_array().tolist() == [1, 2]
        assert trace.ilen_array().sum() == 8

    def test_repr(self):
        trace = build_simple(txn_id=3, txn_type="Payment")
        text = repr(trace)
        assert "Payment" in text and "id=3" in text


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        traces = [
            build_simple(0, "A", ((1, 5, 7, 1), (2, 3, -1, 0))),
            build_simple(1, "B", ((9, 2, -1, 0),)),
        ]
        path = str(tmp_path / "traces.npz")
        save_traces(path, traces)
        loaded = load_traces(path)
        assert len(loaded) == 2
        assert loaded[0].txn_type == "A"
        assert loaded[1].txn_id == 1
        assert list(loaded[0].events()) == list(traces[0].events())
        assert loaded[1].total_instructions == 2

    def test_roundtrip_preserves_instruction_count(self, tmp_path,
                                                   tiny_tpcc):
        trace = tiny_tpcc.generate_trace("Payment", seed=5)
        path = str(tmp_path / "t.npz")
        save_traces(path, [trace])
        loaded = load_traces(path)[0]
        assert loaded.total_instructions == trace.total_instructions
        assert loaded.unique_iblocks() == trace.unique_iblocks()


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
