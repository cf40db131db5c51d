"""Simulation-kernel microbenchmark (``python -m repro perf``).

Measures how fast the engine replays trace events on the specialized
fast path versus the reference implementation, on the *same traces in
the same process*.  Both paths are warmed first (allocator state,
interpreter caches), then timed over interleaved repeats with the
minimum wall time kept -- the most reproducible statistic on a shared
machine.  Before any timing is trusted, the two paths' full
:class:`RunResult` dicts are compared for every timed scheduler; a
mismatch raises rather than recording a meaningless number.

Two series are timed: ``fast`` (the cold kernel: the fast loop over
the flat cache layout) and ``reference``.

The report is written as JSON (``BENCH_sim.json`` at the repo root by
convention) so CI can archive it and reviews can diff it;
:func:`append_history` keeps a one-line-per-run ``BENCH_history.jsonl``
ledger and :func:`profile_kernel` prints the kernel's cProfile hot
spots.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from repro import obs
from repro.config import SCALES
from repro.sim.api import SCHEDULERS, simulate
from repro.workloads import WORKLOADS

#: Schedulers timed individually on the fast path.
DEFAULT_SCHEDULERS = ("base", "strex", "slicc", "hybrid", "smt")


def _time_run(config, traces, scheduler: str, workload: str,
              reference: bool = False) -> float:
    start = time.perf_counter()
    simulate(config, traces, scheduler, workload, reference=reference)
    return time.perf_counter() - start


def run_bench(
    scale: str = "default",
    workload: str = "tpcc",
    transactions: int = 40,
    repeats: int = 5,
    seed: int = 1013,
    cores: Optional[int] = None,
    schedulers: Iterable[str] = DEFAULT_SCHEDULERS,
    trace_counters: bool = False,
) -> Dict[str, object]:
    """Benchmark the kernel; returns the JSON-ready report dict.

    The headline number is ``speedup``: fast-path events/second over
    reference events/second for the ``base`` scheduler, which exercises
    the tightest loop.  Parity between the paths is asserted before
    timing, for ``base`` and every scheduler in ``schedulers``; each
    ``schedulers_wall_s`` entry is the minimum over ``repeats``.

    With ``trace_counters`` the report additionally embeds
    ``kernel_counters``: the engine's own attribution for one fast run
    -- event/instruction totals and kernel calls -- so a regression
    report arrives with its own diagnosis (did the slices get
    shorter?).  The extra run happens after all timing.
    """
    if scale not in SCALES:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; "
            f"choose from {sorted(WORKLOADS)}")
    schedulers = tuple(schedulers)
    repeats = max(1, repeats)
    for name in schedulers:
        if name not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {name!r}")
    config = SCALES[scale]() if cores is None \
        else SCALES[scale](num_cores=cores)
    suite = WORKLOADS[workload](config.l1i_blocks, seed)
    traces = suite.generate_mix(transactions, seed=seed)
    events = sum(len(trace) for trace in traces)
    with obs.span("perf.bench", scale=scale, workload=workload,
                  cores=config.num_cores):
        # Warm both kernels and check parity, on every scheduler whose
        # number the report carries, while doing so.
        mismatched = []
        with obs.span("perf.warmup"):
            for name in dict.fromkeys(("base",) + schedulers):
                fast_result = simulate(config, traces, name, workload)
                ref_result = simulate(config, traces, name, workload,
                                      reference=True)
                if fast_result.to_dict() != ref_result.to_dict():
                    mismatched.append(name)
        parity = not mismatched
        if not parity:
            raise AssertionError(
                f"fast and reference paths disagree on "
                f"{', '.join(mismatched)}; fix parity before "
                f"benchmarking (run the tests in "
                f"tests/test_parity.py)")
        # Timed repeats, interleaved so host drift hits both series
        # alike.
        fast_wall = []
        ref_wall = []
        with obs.span("perf.timed", repeats=repeats):
            for _ in range(repeats):
                fast_wall.append(
                    _time_run(config, traces, "base", workload))
                ref_wall.append(
                    _time_run(config, traces, "base", workload,
                              reference=True))
        scheduler_wall = {name: [] for name in schedulers}
        with obs.span("perf.schedulers", repeats=repeats):
            for _ in range(repeats):
                for name in schedulers:
                    scheduler_wall[name].append(
                        _time_run(config, traces, name, workload))
        kernel_counters = None
        if trace_counters:
            kernel_counters = _traced_kernel_counters(
                config, traces, workload)
    fast_s = min(fast_wall)
    ref_s = min(ref_wall)
    per_scheduler = {name: round(min(walls), 4)
                     for name, walls in scheduler_wall.items()}
    report: Dict[str, object] = {
        "bench": "sim_kernel",
        "scale": scale,
        "workload": workload,
        "transactions": transactions,
        "cores": config.num_cores,
        "seed": seed,
        "events": events,
        "repeats": repeats,
        "parity": parity,
        "fast": {
            "wall_s": round(fast_s, 4),
            "events_per_s": round(events / fast_s),
        },
        "reference": {
            "wall_s": round(ref_s, 4),
            "events_per_s": round(events / ref_s),
        },
        "speedup": round(ref_s / fast_s, 3),
        "schedulers_wall_s": per_scheduler,
        "python": platform.python_version(),
        "timestamp": time.time(),
    }
    if kernel_counters is not None:
        report["kernel_counters"] = kernel_counters
    return report


def _traced_kernel_counters(config, traces, workload: str
                            ) -> Dict[str, object]:
    """Kernel self-attribution for one fast run.

    Harvests the engine's ``sim.run`` span counters through a private
    in-memory tracer (no sink, no effect on any ambient
    ``REPRO_TRACE``).
    """
    tracer = obs.Tracer()
    with obs.use(tracer):
        simulate(config, traces, "base", workload)
    span = next(
        s for s in reversed(tracer.ring) if s.name == "sim.run")
    counters = span.counters
    return {
        "events": int(counters.get("events", 0)),
        "instructions": int(counters.get("instructions", 0)),
        "kernel_calls": int(counters.get("kernel_calls", 0)),
    }


#: Bench-report keys that must match for two reports to be comparable
#: (per-event throughput is only meaningful on the same workload shape).
_COMPARABLE_KEYS = ("bench", "scale", "workload", "transactions",
                    "cores", "seed")


def check_regression(current: Dict[str, object],
                     prior: Dict[str, object],
                     max_slowdown: float = 0.15
                     ) -> "Tuple[bool, str]":
    """Gate a fresh bench report against a prior artifact.

    Compares fast-path ``events_per_s`` (wall time normalized per
    event, so jitter in trace generation cannot hide in the number)
    and fails on a drop of more than ``max_slowdown``.  Reports taken
    under different parameters are not comparable and fail loudly —
    a gate that silently skips is not a gate.

    Returns ``(ok, message)``; the CLI turns ``ok`` into the exit
    code.
    """
    if max_slowdown <= 0:
        raise ValueError("max_slowdown must be positive")
    mismatched = [
        key for key in _COMPARABLE_KEYS
        if current.get(key) != prior.get(key)
    ]
    if mismatched:
        pairs = ", ".join(
            f"{key}: {prior.get(key)!r} -> {current.get(key)!r}"
            for key in mismatched)
        return False, (
            f"bench reports are not comparable ({pairs}); re-baseline "
            f"with matching parameters")
    try:
        prior_eps = float(prior["fast"]["events_per_s"])
        current_eps = float(current["fast"]["events_per_s"])
    except (KeyError, TypeError, ValueError):
        return False, "prior bench report is malformed; re-baseline"
    if prior_eps <= 0:
        return False, "prior bench report has no throughput; re-baseline"
    slowdown = 1.0 - current_eps / prior_eps
    verdict = (
        f"fast path {current_eps:,.0f} events/s vs prior "
        f"{prior_eps:,.0f} ({-100 * slowdown:+.1f}%; budget "
        f"-{100 * max_slowdown:.0f}%)")
    if slowdown > max_slowdown:
        return False, f"kernel slowdown exceeds budget: {verdict}"
    return True, f"kernel within budget: {verdict}"


def write_bench(report: Dict[str, object], out: Path) -> None:
    """Write the report as stable, diff-friendly JSON."""
    out = Path(out)
    out.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")


def append_history(report: Dict[str, object], path: Path) -> None:
    """Append the report as one JSON line to a ``.jsonl`` ledger.

    ``BENCH_sim.json`` is overwritten per run; the history file keeps
    every run so throughput can be plotted over the repo's life (CI
    uploads it as an artifact).  One compact line per run, newest
    last.
    """
    path = Path(path)
    with path.open("a") as handle:
        handle.write(json.dumps(report, sort_keys=True,
                                separators=(",", ":")) + "\n")


def profile_kernel(
    scale: str = "default",
    workload: str = "tpcc",
    transactions: int = 40,
    seed: int = 1013,
    cores: Optional[int] = None,
    top: int = 25,
) -> str:
    """cProfile one fast-path run; returns the top-``top`` report."""
    import cProfile
    import io
    import pstats

    config = SCALES[scale]() if cores is None \
        else SCALES[scale](num_cores=cores)
    suite = WORKLOADS[workload](config.l1i_blocks, seed)
    traces = suite.generate_mix(transactions, seed=seed)
    profiler = cProfile.Profile()
    profiler.enable()
    simulate(config, traces, "base", workload)
    profiler.disable()
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats("tottime").print_stats(top)
    return out.getvalue().rstrip()


def format_report(report: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a bench report."""
    fast = report["fast"]
    ref = report["reference"]
    lines = [
        f"sim kernel bench: {report['workload']} @ {report['scale']} "
        f"scale, {report['cores']} cores, {report['events']} events, "
        f"min of {report['repeats']} repeats",
        f"  fast:      {fast['wall_s']:.3f}s "
        f"({fast['events_per_s']:,} events/s)",
        f"  reference: {ref['wall_s']:.3f}s "
        f"({ref['events_per_s']:,} events/s)",
        f"  speedup:   x{report['speedup']:.2f} "
        f"(parity {'OK' if report['parity'] else 'FAILED'})",
        "  scheduler wall times (fast path):",
    ]
    for name, wall in report["schedulers_wall_s"].items():
        lines.append(f"    {name:7s} {wall:.3f}s")
    return "\n".join(lines)
