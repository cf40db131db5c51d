"""Cold-sweep benchmark of the STREX reproduction.

    python3 bench/run.py [--workload NAME ...] [--seed S] [--seconds N]
        [--trace [0|1]] [--out FILE] [--pin] [--smoke]

For each workload (default: all, see ``grids.py``) the benchmark

1. launches one untimed interpreter, then times half of
   ``SETUP_LAUNCHES`` more from spawn to ready (``setup_s``), each
   followed by a launch probe;
2. runs the grid cold -- a fresh interpreter, an empty private
   ``ResultCache`` and ``Runner(jobs=min(2, nproc))`` -- then serves it
   again from that cache ten times (``rerun_s``); cold passes repeat
   while another one fits in ``--seconds``, and one always runs;
3. times the other half of the launches;
4. with ``--trace``, runs the grid once more serially in one traced
   interpreter that times each layer's public calls from outside, and
   writes the spans to ``bench/out/<workload>.spans.jsonl``.

End-to-end times are reported at reference host speed (see
:class:`HostSpeed`; set-up time against the launch probe, see
:func:`e2e_metrics`), makespan and peak RSS at the default seed's grid
size (see :func:`pass_metrics`), each with its measured value as
``raw``.

Every cell's result is checked: its SHA-256 must match
``bench/expected.json`` where that seed is pinned, the warm and traced
results must equal the cold ones byte for byte, and seed-independent
sanity checks must pass.  Any failure counts in ``cells_failed`` and
makes the exit code 1.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding the
``BENCHMARK.json`` end-to-end metrics, or its per-layer metrics with
``--trace 1``.  ``--pin`` rewrites the seed's digests in
``expected.json`` from a run whose cells all pass their other checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from stats import p50, self_times, tail

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

#: Timed interpreter launches per workload, half before the cold pass
#: and half after it; ``setup_s`` is their median.
SETUP_LAUNCHES = 8

#: Per-cell ``Runner`` timeout.  The slowest cell takes about 8 s, and
#: a run must end within 180 s, so a wedged cell fails well before.
CELL_TIMEOUT_S = 60.0

#: Children still running this long after a workload started are
#: killed, and their cells count as failed.
WORKLOAD_DEADLINE_S = 170.0

#: Host-speed probe period, and the probe's CPU time at the reference
#: speed: the fast level of a 2-vCPU Xeon VM at 2.1 GHz, where the
#: bounds in BENCHMARK.json were measured.
PROBE_EVERY_S = 0.1
PROBE_REFERENCE_S = 0.00165

#: The launch probe's time (``child.py probe``, spawn to ready) on that
#: VM, scaled to where the probe above reads the reference.
LAUNCH_PROBE_REFERENCE_S = 0.135

#: Variables that change what the program computes or records; no
#: child inherits them (nor any ``REPRO_BENCH_*`` benchmark knob).
SCRUBBED = ("REPRO_SIM_REFERENCE", "REPRO_SIM_NOBATCH", "REPRO_SIM_CHECK",
            "REPRO_TRACE")

#: End-to-end metrics: name -> (unit, which direction is better).
E2E = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cell_p50_s": ("s", "lower"),
    "cell_tail_s": ("s", "lower"),
    "sim_mips": ("Minstr/s", "higher"),
    "rerun_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cells_failed": ("fraction", "lower"),
}

SCHEDULERS = ("base", "strex", "slicc", "hybrid", "smt")
PATHS = ("age", "nonage", "prefetch")

#: Per-layer metrics -> unit.
LAYERS = {
    "setup.import_s": "s",
    "setup.fingerprint_s": "s",
    "workloads.build_s": "s",
    "workloads.generate_s": "s",
    "workloads.events": "count",
    "trace.precompute_s": "s",
    **{f"sim.kernel_s.{name}": "s" for name in SCHEDULERS + PATHS},
    **{f"sim.keps.{path}": "kevents/s" for path in PATHS},
    "sim.events": "count",
    "sim.instructions": "count",
    "sim.ff_runs": "count",
    "sim.ff_memo_hit_rate": "fraction",
    "sim.batch_recordings": "count",
    "sim.batch_replays": "count",
    "analysis.overlap_s": "s",
    "core.fptable_s": "s",
    "exp.spec_key_ms": "ms",
    "exp.cache_get_ms": "ms",
    "exp.cache_put_ms": "ms",
    "exp.result_kb": "KB",
    "exp.pool_efficiency": "fraction",
    "exp.dispatch_s": "s",
    "obs.trace_overhead": "fraction",
    "obs.layer_coverage": "fraction",
    "host.slowdown": "ratio",
}

#: Span names that are bookkeeping of the benchmark, not a layer.
UNLAYERED = ("run", "cell")


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED and not key.startswith("REPRO_BENCH_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe_work() -> int:
    """Fixed pure-Python work of the simulator's kind: dict probes,
    list stores and integer arithmetic, about 1.7 ms of CPU."""
    where = {block: block & 63 for block in range(0, 4096, 3)}
    ages = [0] * 64
    hits = 0
    for step in range(20000):
        slot = where.get(step * 7 & 4095)
        if slot is not None:
            ages[slot] = step
            hits += 1
    return hits


class HostSpeed:
    """How fast the host runs, sampled while the children work.

    Shared cloud VMs run the same code at speeds up to 1.7x apart; each
    vCPU's speed moves within seconds, and the average drifts over
    minutes.  A background thread times :func:`probe_work` in thread
    CPU time (so waiting for a core does not count) every
    :data:`PROBE_EVERY_S`.  :meth:`slowdown` is the mean probe time
    over an interval divided by :data:`PROBE_REFERENCE_S`; every
    end-to-end time but set-up is reported as measured divided by the
    slowdown during it, i.e. at reference host speed, with the measured
    value kept beside it as ``raw``.  The probe stays in the L1 cache, so the
    pool's memory traffic does not slow it (``probe_check.py``).
    """

    def __init__(self) -> None:
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while True:
            tick = time.thread_time()
            probe_work()
            self.samples.append((time.time(), time.thread_time() - tick))
            if self._stop.wait(PROBE_EVERY_S):
                return

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time in ``[start, end]`` (epoch seconds) over the
        reference; the sample nearest the interval when none fall in."""
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples,
                          key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.mean(inside) / PROBE_REFERENCE_S


class Child:
    """One ``child.py`` task in its own session, killed at a deadline."""

    def __init__(self, args: List[str], deadline: float,
                 stdout=subprocess.DEVNULL) -> None:
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env=child_env(), stdout=stdout, text=True,
            start_new_session=True)

    def wait(self) -> bool:
        """Whether the task exited 0 before the deadline."""
        try:
            return self.proc.wait(
                timeout=max(0.0, self.deadline - time.monotonic())) == 0
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            return False


def launch_setup(args, workload: str, deadline: float,
                 task: str = "setup") -> dict:
    """Time one ``setup`` (or ``probe``) interpreter from spawn to ready."""
    start = time.time()
    tick = time.perf_counter()
    child = Child([task, workload, str(args.seed)]
                  + ["--smoke"] * args.smoke, deadline,
                  stdout=subprocess.PIPE)
    line = child.proc.stdout.readline()
    ready_s = time.perf_counter() - tick
    child.proc.stdout.close()
    if not child.wait() or not line.startswith("ready "):
        raise RuntimeError(f"{task} launch for {workload} failed")
    return {"ready_s": ready_s, "start": start, "end": start + ready_s,
            **json.loads(line[len("ready "):])}


def setup_group(args, workload: str, deadline: float) -> List[dict]:
    """Time half of the ``SETUP_LAUNCHES`` launches back to back, each
    followed by a launch probe (its time as ``probe_s``)."""
    group = []
    for _ in range(SETUP_LAUNCHES // 2):
        launch = launch_setup(args, workload, deadline)
        launch["probe_s"] = launch_setup(args, workload, deadline,
                                         "probe")["ready_s"]
        group.append(launch)
    return group


def run_task(task: str, args, workload: str, work: Path, deadline: float,
             jobs: int) -> Optional[dict]:
    """Run a ``cold`` or ``trace`` child; its report, or ``None``."""
    work.mkdir(parents=True)
    child = Child([task, workload, str(args.seed), "--dir", str(work),
                   "--jobs", str(jobs), "--timeout", str(CELL_TIMEOUT_S)]
                  + ["--smoke"] * args.smoke, deadline)
    report = work / f"{task}.json"
    if not child.wait() or not report.exists():
        return None
    return json.loads(report.read_text())


def dispatch_s(started: float, cells: List[dict]) -> float:
    """Worker time between executed cells: spawn, IPC and result handling.

    Per worker, each cell's start is its completion time (as the
    runner saw it) minus its wall time; the gap back to the previous
    completion on that worker, or to the grid's start, is dispatch.
    """
    by_worker = defaultdict(list)
    for cell in cells:
        by_worker[cell["worker"]].append(cell)
    total = 0.0
    for done in by_worker.values():
        previous = started
        for cell in sorted(done, key=lambda c: c["ts"]):
            total += max(0.0, cell["ts"] - cell["wall_s"] - previous)
            previous = cell["ts"]
    return total


def judge(report: dict, expected: Optional[dict],
          traced: Optional[dict]) -> Dict[str, str]:
    """Failed cells of one cold pass: spec label -> reason."""
    failures = {label: "warm result differs from the cold one"
                for label in report["warm_mismatch"]}
    for index, cell in enumerate(report["cells"]):
        label = cell["spec"]
        if cell["digest"] is None:
            failures[label] = "raised or timed out"
        elif cell.get("problem"):
            failures[label] = cell["problem"]
        elif expected is not None and \
                expected.get(cell["identity"]) != cell["digest"]:
            failures[label] = "digest differs from expected.json"
        elif traced is not None and (
                traced["cells"][index]["digest"] != cell["digest"]
                or traced["cells"][index].get("problem")):
            failures[label] = ("traced run: "
                               + (traced["cells"][index].get("problem")
                                  or "result differs from the cold one"))
    return failures


def pass_metrics(report: dict, jobs: int, speed: HostSpeed,
                 reference: Optional[int]) -> dict:
    """One cold pass's samples as ``(at reference speed, raw)`` pairs.

    The pass's slowdown is its cells' slowdowns weighted by their wall
    time, so it counts the host's speed where the work was.  The grid's
    makespan and peak RSS grow with the instructions it simulates, and
    seeds differ by 6% in those, so both are scaled to ``reference``
    instructions, the default seed's, when that is given.
    """
    cells = [c for c in report["cells"] if c.get("wall_s") is not None]
    started, wall = report["started"], report["wall_s"]

    def scaled(cell: dict) -> tuple:
        end = cell["ts"]
        return (cell["wall_s"] / speed.slowdown(end - cell["wall_s"], end),
                cell["wall_s"])

    walls = [scaled(c) for c in cells]
    slowdown = (sum(raw for _, raw in walls) / sum(s for s, _ in walls)
                if walls else speed.slowdown(started, started + wall))
    work = sum(c.get("instructions") or 0 for c in report["cells"])
    size = reference / work if reference and work else 1.0
    rss = report["peak_rss_mb"]
    return {
        "slowdown": slowdown,
        "wall_s": (wall / slowdown * size, wall),
        "walls": walls,
        "sim": [(c["instructions"], *pair) for c, pair in zip(cells, walls)
                if c["instructions"]],
        "reruns": [(dur / speed.slowdown(begun, begun + dur), dur)
                   for begun, dur in report["warm_s"]],
        "peak_rss_mb": (rss * size, rss),
        "pool_efficiency": sum(c["wall_s"] for c in cells) / (jobs * wall),
        "dispatch_s": dispatch_s(started, cells),
    }


def metric(value, unit: str, n: int, **extra) -> dict:
    return {"value": value, "unit": unit, "n": n, **extra}


def e2e_metrics(setups: List[List[dict]], passes: List[dict],
                attempted: int, failed: int) -> Dict[str, dict]:
    """End-to-end metrics; a time's ``raw`` is the same statistic of
    the measured values.

    Set-up time is scaled by the launch probe, not by
    :class:`HostSpeed`: a launch is mostly process creation, page
    faults and imports, whose speed the CPU probe (sampled beside it,
    often on the other vCPU) tracks poorly.  ``setup_s`` is the median
    launch over the median probe launch, times
    :data:`LAUNCH_PROBE_REFERENCE_S`.  The probe runs none of
    ``repro``, so a change to the program's set-up moves only the
    numerator.
    """
    launches = [launch for group in setups for launch in group]
    ready = statistics.median(s["ready_s"] for s in launches)
    slowdown = statistics.median(s["probe_s"] for s in launches) \
        / LAUNCH_PROBE_REFERENCE_S
    walls = [pair for p in passes for pair in p["walls"]]
    sim = [triple for p in passes for triple in p["sim"]]
    reruns = [pair for p in passes for pair in p["reruns"]]
    rss = [p["peak_rss_mb"] for p in passes]

    def timed(values, raws, n: int, pick=statistics.median):
        return metric(pick(values), "s", n, raw=pick(raws))

    out = {
        "setup_s": metric(ready / slowdown, "s", len(launches), raw=ready),
        "wall_s": timed(*zip(*(p["wall_s"] for p in passes)), len(passes)),
        "peak_rss_mb": metric(max(s for s, _ in rss), "MB", len(passes),
                              raw=max(r for _, r in rss)),
        "cells_failed": metric(failed / attempted, "fraction", attempted),
    }
    if walls:
        scaled, raw = zip(*walls)
        value, pct = tail(scaled)
        out["cell_p50_s"] = timed(scaled, raw, len(walls), p50)
        out["cell_tail_s"] = metric(value, "s", len(walls),
                                    raw=tail(raw)[0],
                                    percentile=round(pct, 1))
    if sim:
        instructions = sum(i for i, _, _ in sim)
        out["sim_mips"] = metric(
            instructions / sum(w for _, w, _ in sim) / 1e6, "Minstr/s",
            len(sim), raw=instructions / sum(r for _, _, r in sim) / 1e6)
    if reruns:
        out["rerun_s"] = timed(*zip(*reruns), len(reruns))
    return out


def layer_metrics(setups: List[List[dict]], passes: List[dict],
                  traced: Optional[dict], spans: Optional[List[dict]],
                  speed: HostSpeed) -> Dict[str, dict]:
    """Per-layer metrics; the span-derived ones need a traced run."""
    setups = [launch for group in setups for launch in group]
    values = {
        "setup.import_s": statistics.median(s["import_s"] for s in setups),
        "setup.fingerprint_s": statistics.median(
            s["fingerprint_s"] for s in setups),
        "exp.pool_efficiency": statistics.median(
            p["pool_efficiency"] for p in passes),
        "exp.dispatch_s": statistics.median(p["dispatch_s"]
                                            for p in passes),
        "host.slowdown": statistics.median(p["slowdown"] for p in passes),
    }
    if spans is not None:
        values.update(span_metrics(spans, traced["wall_s"]))
        values["exp.result_kb"] = statistics.mean(
            cell["result_kb"] for cell in traced["cells"])
        # Both sides at reference host speed: the two runs are minutes
        # apart, and the host's speed drifts more than tracing costs.
        start, wall = traced["started"], traced["wall_s"]
        untraced = sum(scaled for scaled, _ in passes[0]["walls"])
        if untraced:
            values["obs.trace_overhead"] = (
                wall / speed.slowdown(start, start + wall) / untraced - 1)
    return {name: {"value": value, "unit": LAYERS[name]}
            for name, value in values.items()}


def span_metrics(spans: List[dict], traced_wall: float) -> Dict[str, float]:
    own = self_times(spans)
    time_in = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(int)
    for span in spans:
        name = span["name"]
        time_in[name] += own[span["id"]]
        calls[name] += 1
        if name == "sim.kernel":
            time_in[f"sim.kernel_s.{span['scheduler']}"] += own[span["id"]]
            time_in[f"sim.kernel_s.{span['path']}"] += own[span["id"]]
            counters[f"events.{span['path']}"] += span["counters"]["events"]
        for counter, value in span["counters"].items():
            counters[f"{name}.{counter}"] += value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {
        "workloads.build_s": time_in["workloads.build"],
        "workloads.generate_s": time_in["workloads.generate"],
        "workloads.events": counters["workloads.generate.events"],
        "trace.precompute_s": time_in["trace.precompute"],
        "sim.events": counters["sim.kernel.events"],
        "sim.instructions": counters["sim.kernel.instructions"],
        "sim.ff_runs": counters["sim.kernel.ff_runs"],
        "sim.ff_memo_hit_rate": ratio(counters["sim.kernel.ff_memo_hits"],
                                      counters["sim.kernel.ff_runs"]),
        "sim.batch_recordings": counters["sim.kernel.batch_recordings"],
        "sim.batch_replays": counters["sim.kernel.batch_replays"],
        "analysis.overlap_s": time_in["analysis.overlap"],
        "core.fptable_s": time_in["core.fptable"],
        "exp.spec_key_ms": 1e3 * ratio(time_in["exp.spec_key"],
                                       calls["exp.spec_key"]),
        "exp.cache_get_ms": 1e3 * ratio(time_in["exp.cache_get"],
                                        calls["exp.cache_get"]),
        "exp.cache_put_ms": 1e3 * ratio(time_in["exp.cache_put"],
                                        calls["exp.cache_put"]),
        "obs.layer_coverage": ratio(
            sum(own[s["id"]] for s in spans
                if s["name"] not in UNLAYERED), traced_wall),
    }
    for name in SCHEDULERS + PATHS:
        values[f"sim.kernel_s.{name}"] = time_in[f"sim.kernel_s.{name}"]
    for path in PATHS:
        values[f"sim.keps.{path}"] = ratio(
            counters[f"events.{path}"], time_in[f"sim.kernel_s.{path}"]
        ) / 1e3
    return values


def run_workload(workload: str, cells: int, args, expected: Optional[dict],
                 jobs: int, reference: Optional[int]) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        with HostSpeed() as speed:
            launch_setup(args, workload, deadline)
            setups = [setup_group(args, workload, deadline)]
            reports = []
            begin = time.monotonic()
            while True:
                reports.append(run_task("cold", args, workload,
                                        work / f"cold{len(reports)}",
                                        deadline, jobs))
                spent = time.monotonic() - begin
                if reports[-1] is None or reports[-1]["error"] or \
                        spent * (len(reports) + 1) / len(reports) \
                        > args.seconds:
                    break
            setups.append(setup_group(args, workload, deadline))
            traced = spans = None
            if args.trace:
                traced = run_task("trace", args, workload, work / "trace",
                                  deadline, jobs)
        if traced is not None:
            shutil.copy(work / "trace" / "spans.jsonl",
                        OUT / f"{workload}.spans.jsonl")
            with open(work / "trace" / "spans.jsonl") as handle:
                spans = [json.loads(line) for line in handle]
    except RuntimeError as exc:
        return {"cells": cells, "passes": 0, "attempted": cells,
                "failed": cells, "failures": [str(exc)], "e2e": {},
                "layers": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures, passes = [], []
    failed = 0
    for number, report in enumerate(reports):
        if report is None:
            failures.append(f"cold pass {number} crashed or timed out")
            failed += cells
            continue
        failed_cells = judge(report, expected,
                             traced if number == 0 else None)
        failed += len(failed_cells)
        failures += [f"{label}: {why}"
                     for label, why in failed_cells.items()]
        passes.append(pass_metrics(report, jobs, speed, reference))
    if args.trace and traced is None:
        failures.append("traced run crashed or timed out")
        failed = max(failed, 1)
    attempted = cells * len(reports)
    record = {"cells": cells, "passes": len(reports),
              "attempted": attempted, "failed": failed,
              "failures": failures, "e2e": {}, "layers": {}}
    if passes:
        record["e2e"] = e2e_metrics(setups, passes, attempted, failed)
        record["layers"] = layer_metrics(setups, passes, traced, spans,
                                         speed)
        record["digests"] = {
            cell["identity"]: cell["digest"]
            for cell in reports[0]["cells"] if cell["digest"]}
    return record


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ,
                            "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def print_record(name: str, record: dict, seed: int, jobs: int) -> None:
    print(f"== {name}  seed={seed}  {record['cells']} cells x "
          f"{record['passes']} cold pass(es)  jobs={jobs}")
    for group in ("e2e", "layers"):
        for metric_name, entry in record[group].items():
            value = entry["value"]
            text = (f"{value:.6g}" if isinstance(value, float)
                    else str(value))
            extra = ""
            if "n" in entry:
                extra = f"  n={entry['n']}"
            if "percentile" in entry:
                extra += f"  p{entry['percentile']}"
            print(f"  {metric_name:<24} {text:>14} {entry['unit']:<10}"
                  f"{extra}")
    status = "ok" if not record["failures"] else "FAILED"
    print(f"  correctness: {status}, {record['failed']} of "
          f"{record['attempted']} cell(s) failed")
    for failure in record["failures"]:
        print(f"    {failure}")


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Cold-sweep benchmark of the STREX reproduction.")
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=workloads, help="default: all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 20130623)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="budget for repeated cold passes (min. one)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="add a serial traced run (per-layer metrics)")
    parser.add_argument("--out", type=Path,
                        help="write the full result record here")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite this seed's digests in expected.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, pinned apart from the real ones")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grids

    args = parse_args(argv, list(grids.WORKLOADS))
    if args.seed is None:
        args.seed = grids.DEFAULT_SEED
    workloads = args.workload or list(grids.WORKLOADS)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    nproc = len(os.sched_getaffinity(0))
    jobs = min(2, nproc)

    records = {}
    # Smoke grids have their own cells, so their pins live apart.
    sections = {name: name + ":smoke" * args.smoke for name in workloads}
    for name in workloads:
        expected = None if args.pin else \
            pinned.get(str(args.seed), {}).get(sections[name])
        cells = len(grids.WORKLOADS[name](args.seed, args.smoke))
        reference = None if args.smoke else grids.REFERENCE_INSTRUCTIONS[name]
        records[name] = run_workload(name, cells, args, expected, jobs,
                                     reference)
        print_record(name, records[name], args.seed, jobs)

    if args.pin:
        for name, record in records.items():
            if record["failures"]:
                print(f"error: not pinning {name}: cells failed",
                      file=sys.stderr)
                return 1
            pinned.setdefault(str(args.seed), {})[sections[name]] = \
                record["digests"]
        EXPECTED.write_text(json.dumps(pinned, indent=1,
                                       sort_keys=True) + "\n")
    if args.out:
        args.out.write_text(json.dumps({
            "commit": git_commit(), "python": platform.python_version(),
            "nproc": nproc, "jobs": jobs, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
            "smoke": args.smoke, "workloads": records}, indent=1) + "\n")

    group, key = ("layers", "per_layer") if args.trace else \
        ("e2e", "end_to_end")
    metrics = {}
    for name, record in records.items():
        prefix = "" if len(records) == 1 else f"{name}/"
        for entry in benchmark[key]:
            if entry["name"] in record[group]:
                got = record[group][entry["name"]]
                metrics[prefix + entry["name"]] = {
                    "value": got["value"], "unit": got["unit"]}
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    correct = failed == 0 and not any(r["failures"]
                                      for r in records.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
