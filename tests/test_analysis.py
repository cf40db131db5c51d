"""Tests for repro.analysis: overlap, latency, report."""

import pytest

from repro.analysis.latency import LatencyDistribution, compare_distributions
from repro.analysis.overlap import BANDS, OverlapAnalysis, summarize
from repro.analysis.report import (
    bar_chart,
    format_table,
    grouped_bar_chart,
)
from repro.config import tiny_scale
from repro.trace.trace import TraceBuilder


def synthetic_trace(txn_id, blocks, txn_type="S"):
    builder = TraceBuilder(txn_id, txn_type)
    for block in blocks:
        builder.append(block, 10)
    return builder.build()


class TestOverlap:
    def test_identical_traces_full_overlap(self):
        """Identical transactions in lockstep: every touched block is in
        every cache (band >=10 for 12 cores)."""
        blocks = [2000 + i for i in range(60)]
        traces = [synthetic_trace(i, blocks) for i in range(12)]
        analysis = OverlapAnalysis(tiny_scale(), interval_instructions=100)
        intervals = analysis.run(traces)
        assert intervals
        result = summarize(intervals)
        assert result[">=10"] > 0.95

    def test_disjoint_traces_no_overlap(self):
        traces = [
            synthetic_trace(i, [i * 10_000 + j for j in range(40)])
            for i in range(4)
        ]
        analysis = OverlapAnalysis(tiny_scale())
        result = summarize(analysis.run(traces))
        assert result["1"] > 0.95

    def test_requires_two_traces(self):
        with pytest.raises(ValueError):
            OverlapAnalysis(tiny_scale()).run(
                [synthetic_trace(0, [1, 2])])

    def test_stops_at_half_done(self):
        shorts = [synthetic_trace(i, [2000 + i]) for i in range(2)]
        longs = [
            synthetic_trace(2 + i, [(3 + i) * 1000 + j
                                    for j in range(500)])
            for i in range(2)
        ]
        analysis = OverlapAnalysis(tiny_scale(),
                                   interval_instructions=100)
        intervals = analysis.run(shorts + longs)
        # Stops once the two short transactions finish, far before the
        # 500-block traces end (5 K-instructions).
        assert intervals[-1].kilo_instructions < 2.0

    def test_fractions_sum_to_one(self):
        blocks = [2000 + i for i in range(50)]
        traces = [synthetic_trace(i, blocks) for i in range(4)]
        intervals = OverlapAnalysis(tiny_scale()).run(traces)
        for interval in intervals:
            total = sum(interval.fraction(band) for band in BANDS)
            assert total == pytest.approx(1.0)

    def test_paper_claim_on_tpcc(self, tiny_tpcc):
        """Section 2.2: >70% of touched blocks appear in >=5 caches for
        16 same-type transactions on 16 cores."""
        traces = tiny_tpcc.generate_uniform("Payment", 16, seed=61)
        analysis = OverlapAnalysis(tiny_scale(),
                                   interval_instructions=100)
        result = summarize(analysis.run(traces))
        assert result["five_or_more"] > 0.7
        assert result["1"] < 0.15


class TestLatency:
    def test_mean_and_percentiles(self):
        dist = LatencyDistribution("x", [1_000_000, 3_000_000])
        assert dist.mean_mcycles == 2.0
        assert dist.p50_mcycles == 2.0
        assert dist.p95_mcycles > 2.0

    def test_empty_distribution(self):
        dist = LatencyDistribution("x", [])
        assert dist.mean_mcycles == 0.0
        assert dist.histogram() == []

    def test_histogram_normalized(self):
        dist = LatencyDistribution(
            "x", [int(i * 1e6) for i in (1, 3, 5, 60)])
        hist = dist.histogram(bin_mcycles=2.0, max_mcycles=50.0)
        assert sum(hist) == pytest.approx(1.0)
        assert hist[-1] == pytest.approx(0.25)  # the "More" bucket

    def test_compare_renders(self):
        text = compare_distributions([
            LatencyDistribution("Base", [1_000_000]),
            LatencyDistribution("STREX-10T", [2_000_000]),
        ])
        assert "Base" in text and "STREX-10T" in text


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_bar_chart(self):
        text = bar_chart({"base": 1.0, "strex": 1.5}, width=10)
        assert "strex" in text
        assert text.count("#") > 10

    def test_bar_chart_empty(self):
        assert bar_chart({}, title="t") == "t"

    def test_grouped_bar_chart(self):
        text = grouped_bar_chart({"2 cores": {"base": 1.0},
                                  "4 cores": {"base": 2.0}})
        assert "2 cores:" in text and "4 cores:" in text


class TestBarChartScaling:
    def test_bars_scale_to_peak(self):
        text = bar_chart({"a": 1.0, "b": 0.5}, width=20)
        lines = text.splitlines()
        a_hashes = lines[0].count("#")
        b_hashes = lines[1].count("#")
        assert a_hashes == 20
        assert b_hashes == 10

    def test_zero_values_render(self):
        text = bar_chart({"a": 0.0, "b": 0.0})
        assert "0.00" in text
