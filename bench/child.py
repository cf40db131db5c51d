"""The benchmark's child processes: each task runs in a fresh interpreter.

``run.py`` launches this file with a clean environment and
``PYTHONPATH`` pointing at ``src`` and ``bench``::

    python bench/child.py setup WORKLOAD SEED [--smoke]
    python bench/child.py probe WORKLOAD SEED
    python bench/child.py cold WORKLOAD SEED --dir DIR --jobs J --timeout T
    python bench/child.py trace WORKLOAD SEED --dir DIR

``setup`` prints one ``ready`` line once the grid could start: ``repro``
imported, the specs expanded and ``code_fingerprint()`` computed.
``probe`` is the launch probe: it prints the same line once NumPy, the
one third-party package ``repro`` imports, is imported, and touches
nothing of ``repro``.
``cold`` runs the grid through ``Runner`` into an empty cache under
DIR, serves it again from that cache ``WARM_PASSES`` times, and writes
``DIR/cold.json``.  ``trace`` runs
the grid serially in this process through the runner's own
``execute_spec``, with each layer's entry points wrapped so every call
is timed from outside; it writes ``DIR/trace.json`` and
``DIR/spans.jsonl``.

Only the standard library is imported at module level, so ``setup``
times the ``repro`` import itself.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import time
from contextlib import contextmanager
from pathlib import Path

START = time.perf_counter()

#: Warm passes after the cold one; ``rerun_s`` is their median.
WARM_PASSES = 10

#: ``TransactionTrace`` methods timed as the trace-precompute layer.
PRECOMPUTE = ("packed_events", "run_tables", "instruction_prefix",
              "iblock_set_indices", "content_key", "event_columns")


def _cell_record(spec, result) -> dict:
    from grids import check
    from repro.exp.cache import spec_identity
    from repro.sim.results import RunResult
    from stats import digest

    return {
        "identity": spec_identity(spec),
        "spec": spec.describe(),
        "digest": digest(result.to_dict()),
        "instructions": (result.instructions
                         if isinstance(result, RunResult) else None),
        "problem": check(spec, result),
    }


def setup(args) -> None:
    import grids
    imported = time.perf_counter()
    grids.WORKLOADS[args.workload](args.seed, args.smoke)
    from repro.exp.cache import code_fingerprint
    expanded = time.perf_counter()
    code_fingerprint()
    done = time.perf_counter()
    print("ready", json.dumps({"import_s": imported - START,
                               "fingerprint_s": done - expanded}),
          flush=True)


def probe(args) -> None:
    import numpy  # noqa: F401
    print("ready", json.dumps({}), flush=True)


def _reap_pool_workers() -> None:
    """Wait for the runner's pool workers so their RSS is counted."""
    for child in multiprocessing.active_children():
        child.join()


def cold(args) -> None:
    from grids import WORKLOADS
    from repro.exp import ResultCache, Runner, RunSpec
    from repro.exp.cache import spec_key
    from repro.exp.runner import RunError
    from stats import digest

    out = Path(args.dir)
    specs = WORKLOADS[args.workload](args.seed, args.smoke)
    cache = ResultCache(out / "cache")
    runner = Runner(jobs=args.jobs, cache=cache, timeout=args.timeout)
    report = {"error": None, "warm_s": [], "warm_mismatch": []}
    started = time.time()
    tick = time.perf_counter()
    try:
        results = runner.run(specs)
    except RunError as exc:
        report["error"] = str(exc)
        results = [cache.get(spec_key(spec)) for spec in specs]
    report["wall_s"] = time.perf_counter() - tick
    report["started"] = started
    executed = {entry.key: {"wall_s": entry.wall_s, "worker": entry.worker,
                            "ts": entry.ts}
                for entry in runner.entries if not entry.hit}
    report["cells"] = [
        {**_cell_record(spec, result), **executed.get(spec_key(spec), {})}
        if result is not None
        else {"spec": spec.describe(), "digest": None}
        for spec, result in zip(specs, results)]
    if report["error"] is None:
        cold_digests = [cell["digest"] for cell in report["cells"]]
        for _ in range(WARM_PASSES):
            warm = Runner(jobs=args.jobs, cache=cache, timeout=args.timeout)
            begun = time.time()
            tick = time.perf_counter()
            again = warm.run(specs)
            report["warm_s"].append([begun, time.perf_counter() - tick])
            report["warm_mismatch"] += [
                RunSpec.from_dict(entry.spec).describe()
                for entry in warm.entries if not entry.hit]
            report["warm_mismatch"] += [
                spec.describe()
                for spec, result, want in zip(specs, again, cold_digests)
                if digest(result.to_dict()) != want]
    _reap_pool_workers()
    report["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    (out / "cold.json").write_text(json.dumps(report))


class SpanLog:
    """In-memory spans recorded around calls into the layers.

    Each span is a dict with ``id``, ``parent``, ``name``, ``cell`` (the
    spec key of the cell it belongs to), ``start``/``end``/``dur`` in
    seconds since the log began, free-form fields and ``counters``.
    Precompute calls are too many to keep one by one (millions per
    grid), so their time is summed per innermost open span and closed
    as one *aggregate* child span with no interval (``start`` is
    ``None``); see :func:`stats.self_times`.
    """

    def __init__(self) -> None:
        self.spans = []
        self.cell = None
        self.spec = None
        self._stack = []
        self._seq = 0
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, **fields):
        self._seq += 1
        record = {"id": self._seq,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "name": name, "cell": self.cell, "counters": {},
                  **fields}
        record["_agg"] = [0.0, 0]
        self._stack.append(record)
        record["start"] = time.perf_counter() - self._epoch
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._epoch
            record["dur"] = record["end"] - record["start"]
            self._stack.pop()
            agg_s, calls = record.pop("_agg")
            self.spans.append(record)
            if calls:
                self.spans.append({
                    "id": f"{record['id']}.p", "parent": record["id"],
                    "name": "trace.precompute", "cell": record["cell"],
                    "start": None, "end": None, "dur": agg_s,
                    "counters": {"calls": calls}})

    def timed(self, method):
        """Wrap ``method`` so outermost calls add to the open span."""
        stack = self._stack
        clock = time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0] or not stack:
                return method(*args, **kwargs)
            depth[0] = 1
            tick = clock()
            try:
                return method(*args, **kwargs)
            finally:
                agg = stack[-1]["_agg"]
                agg[0] += clock() - tick
                agg[1] += 1
                depth[0] = 0
        return wrapper

    def spanned(self, name: str, count=None):
        """Wrap a function so its outermost calls run in a ``name`` span;
        ``count(span, result)`` may then add counters to the span."""
        def wrap(function):
            def wrapper(*args, **kwargs):
                if any(open_["name"] == name for open_ in self._stack):
                    return function(*args, **kwargs)
                with self.span(name) as span:
                    result = function(*args, **kwargs)
                if count is not None:
                    count(span, result)
                return result
            return wrapper
        return wrap

    def kernel(self, simulate):
        """Wrap ``simulate`` in a ``sim.kernel`` span that carries the
        engine's own ``sim.run`` counters and the kernel path taken."""
        from repro import obs

        def wrapper(*args, **kwargs):
            spec = self.spec
            tracer = obs.Tracer()
            with self.span("sim.kernel", scheduler=spec.scheduler) as span, \
                    obs.use(tracer):
                result = simulate(*args, **kwargs)
            run = [s for s in tracer.ring if s.name == "sim.run"][-1]
            span["counters"].update(run.counters)
            span["path"] = ("prefetch" if spec.prefetcher != "none"
                            else "age" if run.tags["kernel"] == "age"
                            else "nonage")
            return result
        return wrapper


def _count_events(span: dict, traces) -> None:
    span["counters"]["events"] = sum(len(t) for t in traces)


def _layer_wrappers(log: SpanLog):
    """``(owner, attribute, wrapper factory)`` for every layer entry
    point that ``execute_spec`` reaches, as the runner module names them."""
    from repro.analysis.overlap import OverlapAnalysis
    from repro.exp import runner
    from repro.trace.trace import TransactionTrace
    from repro.workloads.base import Workload

    generate = log.spanned("workloads.generate", _count_events)
    return ([(runner, "make_workload", log.spanned("workloads.build")),
             (Workload, "generate_mix", generate),
             (Workload, "generate_uniform", generate),
             (runner, "replicate_instances", generate),
             (runner, "simulate", log.kernel),
             (runner, "profile_fptable", log.spanned("core.fptable")),
             (OverlapAnalysis, "run", log.spanned("analysis.overlap"))]
            + [(TransactionTrace, name, log.timed) for name in PRECOMPUTE])


@contextmanager
def _patched(wrappers):
    """Replace each ``owner.attribute`` by its wrapped self while open."""
    originals = [(owner, attribute, getattr(owner, attribute))
                 for owner, attribute, _ in wrappers]
    try:
        for (owner, attribute, wrap), (_, _, original) in zip(wrappers,
                                                               originals):
            setattr(owner, attribute, wrap(original))
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


def trace(args) -> None:
    from grids import WORKLOADS
    from repro.exp import ResultCache
    from repro.exp.cache import spec_key
    from repro.exp.runner import execute_spec
    from stats import digest

    out = Path(args.dir)
    specs = WORKLOADS[args.workload](args.seed, args.smoke)
    cache = ResultCache(out / "cache")
    log = SpanLog()
    done = []
    started = time.time()
    with _patched(_layer_wrappers(log)), log.span("run") as run:
        for spec in specs:
            log.cell, log.spec = None, spec
            with log.span("cell") as cell:
                with log.span("exp.spec_key") as keyed:
                    key = spec_key(spec)
                keyed["cell"] = cell["cell"] = log.cell = key
                result = execute_spec(spec)
                with log.span("exp.cache_put"):
                    cache.put(key, result, spec)
                with log.span("exp.cache_get"):
                    back = cache.get(key)
            done.append((spec, key, result, back))
    cells = []
    for spec, key, result, back in done:
        record = _cell_record(spec, result)
        if back is None or digest(back.to_dict()) != record["digest"]:
            record["problem"] = "cache round trip changed the result"
        record["result_kb"] = cache.path_for(key).stat().st_size / 1024
        cells.append(record)
    with open(out / "spans.jsonl", "w") as handle:
        for span in log.spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    (out / "trace.json").write_text(json.dumps(
        {"started": started, "wall_s": run["dur"], "cells": cells}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=("setup", "probe", "cold", "trace"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--dir")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--timeout", type=float)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    {"setup": setup, "probe": probe, "cold": cold,
     "trace": trace}[args.task](args)


if __name__ == "__main__":
    main()
