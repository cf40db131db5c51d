"""Tests of the benchmark itself: ``python -m pytest bench``.

The end-to-end cases run ``run.py --smoke``: the same grids at the
``tiny`` scale, one cold pass, a few seconds each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import grids  # noqa: E402
import run  # noqa: E402
from stats import p50, self_times, tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def smoke(tmp_path: Path, capsys, monkeypatch):
    """Run one smoke workload; ``(exit code, last line, out record)``.

    Pins go to a private ``expected.json``, never the committed one.
    """
    monkeypatch.setattr(run, "EXPECTED", tmp_path / "expected.json")

    def go(workload: str, *extra: str):
        out = tmp_path / "out.json"
        code = run.main(["--smoke", "--seconds", "0", "--workload",
                         workload, "--out", str(out), *extra])
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        return code, last, json.loads(out.read_text())
    return go


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(grids.WORKLOADS)
    bounds = {}
    for entry in BENCHMARK["end_to_end"]:
        assert run.E2E[entry["name"]] == (entry["unit"], entry["better"])
        bounds[entry["name"]] = entry["bound"]
    # Set-up time gets the largest bound the format allows; every other
    # metric is held to 0.10.
    assert bounds.pop("setup_s") == 0.25
    assert all(0.05 <= bound <= 0.10 for bound in bounds.values())
    for entry in BENCHMARK["per_layer"]:
        assert run.LAYERS[entry["name"]] == entry["unit"]


def test_tail_percentile_rule():
    assert tail(range(20)) == (9, 50.0)
    assert p50(range(20)) == 9
    value, pct = tail(range(99))
    assert (value, round(pct, 1)) == (88, 89.9)
    assert tail(range(100)) == (89, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 200 / 3)


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0, "dur": 10.0},
        # Overlapping children cover [1, 5]; one sticks out past the end.
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0, "dur": 3.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 5.0, "dur": 2.0},
        {"id": 4, "parent": 1, "start": 9.0, "end": 12.0, "dur": 3.0},
        # An aggregate child (no interval) covers its duration.
        {"id": "1.p", "parent": 1, "start": None, "end": None, "dur": 0.5},
        {"id": 5, "parent": 2, "start": 2.0, "end": 3.0, "dur": 1.0},
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)
    assert own["1.p"] == pytest.approx(0.5)


def test_host_slowdown_averages_the_probes_in_an_interval():
    speed = run.HostSpeed()
    ref = run.PROBE_REFERENCE_S
    speed.samples = [(10.0, ref), (10.1, 2 * ref), (10.2, 3 * ref),
                     (20.0, 1.5 * ref)]
    assert speed.slowdown(10.05, 10.25) == pytest.approx(2.5)
    # No sample inside: the nearest one stands in.
    assert speed.slowdown(19.0, 19.5) == pytest.approx(1.5)


def test_setup_time_is_scaled_by_the_launch_probe():
    setups = [[{"ready_s": 0.4, "probe_s": 0.2},
               {"ready_s": 0.6, "probe_s": 0.3}],
              [{"ready_s": 0.5, "probe_s": 0.25}]]
    one_pass = {"wall_s": (10.0, 12.0), "walls": [], "sim": [],
                "reruns": [], "peak_rss_mb": (100.0, 100.0)}
    setup = run.e2e_metrics(setups, [one_pass], 20, 0)["setup_s"]
    # Median launch 0.5 s over median probe 0.25 s: twice the probe.
    assert setup["value"] == pytest.approx(2 * run.LAUNCH_PROBE_REFERENCE_S)
    assert (setup["raw"], setup["n"]) == (0.5, 3)


def test_compare_pairs_runs_by_seed():
    # Seeds differ in cost by 2x; pairing cancels that out.
    base = {seed: [seed * 10.0] for seed in (1, 2, 3, 4, 5)}

    def scaled(factors):
        return {seed: [v[0] * f] for (seed, v), f in zip(base.items(),
                                                         factors)}

    def call(b, better="lower"):
        return compare.verdict(base, b, 0.05, better)["verdict"]

    steady = scaled([1.0, 1.01, 0.99, 1.0, 1.005])
    assert call(steady) == "unchanged"
    slower = scaled([1.2, 1.21, 1.19, 1.2, 1.205])
    assert call(slower) == "regressed"
    assert call(slower, "higher") == "improved"
    # A gain inside the bound counts when it holds on 9 seeds in 10 and
    # exceeds the ratios' spread.
    assert call(scaled([0.97, 0.971, 0.969, 0.97, 0.97])) == "improved"
    assert call(scaled([0.5, 1.5, 1.0, 0.8, 1.2])) == "unresolved"
    # Only shared seeds count.
    assert compare.verdict(base, {2: [40.0], 9: [1.0]}, 0.05,
                           "lower")["seeds"] == 1


def test_zero_timeout_fails_every_cell(smoke, monkeypatch):
    monkeypatch.setattr(run, "CELL_TIMEOUT_S", 1e-6)
    # The traced run ignores the timeout; with no untraced cell to
    # compare it to, its overhead is left out.
    code, last, record = smoke("policy-mix", "--trace")
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] == 20
    result = record["workloads"]["policy-mix"]
    assert result["e2e"]["cells_failed"]["value"] == 1.0
    assert "obs.trace_overhead" not in result["layers"]


def test_failed_setup_launch_still_prints_a_result(smoke, monkeypatch):
    def broken(*args):
        raise RuntimeError("setup launch for oltp-mix failed")
    monkeypatch.setattr(run, "launch_setup", broken)
    code, last, record = smoke("oltp-mix")
    assert code == 1
    assert last["failed"] == last["attempted"] == 20
    assert record["workloads"]["oltp-mix"]["failures"] == [
        "setup launch for oltp-mix failed"]


def test_tampered_digest_is_reported(smoke):
    pins = run.EXPECTED
    code, last, record = smoke("oltp-mix", "--pin")
    assert code == 0 and last["correct"] and last["failed"] == 0
    e2e = record["workloads"]["oltp-mix"]["e2e"]
    for entry in BENCHMARK["end_to_end"]:
        assert last["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert e2e[entry["name"]]["n"] >= 1
    assert set(e2e) == set(run.E2E)

    pinned = json.loads(pins.read_text())
    section = pinned[str(grids.DEFAULT_SEED)]["oltp-mix:smoke"]
    assert len(section) == 20
    section[next(iter(section))] = "0" * 64
    pins.write_text(json.dumps(pinned))
    code, last, record = smoke("oltp-mix")
    assert code == 1 and last["failed"] == 1
    assert any("expected.json" in failure for failure in
               record["workloads"]["oltp-mix"]["failures"])


def test_traced_run_reports_every_layer(smoke):
    code, last, record = smoke("replica-profile", "--trace")
    assert code == 0 and last["correct"]
    assert set(last["metrics"]) == {e["name"]
                                    for e in BENCHMARK["per_layer"]}
    layers = record["workloads"]["replica-profile"]["layers"]
    assert set(layers) == set(run.LAYERS)
    assert layers["obs.layer_coverage"]["value"] >= 0.95
    assert layers["sim.batch_replays"]["value"] == 0


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oltp-mix"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
