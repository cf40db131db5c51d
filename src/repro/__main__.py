"""Command-line interface: ``python -m repro COMMAND``.

``main()`` dispatches every subcommand through the ``COMMANDS`` table;
a missing or unknown command is a usage error naming the commands, and
``python -m repro --help`` lists them.

The ``sweep`` subcommand expands a parameter grid and drives it
through the ``repro.exp`` runner (parallel workers + content-addressed
result cache), printing the paper's metrics per cell and each cell's
throughput relative to the grid's matching ``base`` cell; a killed
sweep resumes when rerun, its finished cells coming back as cache
hits.

The ``shard`` subcommand splits a sweep across machines (or CI jobs)
by hash-range of the content-addressed cache key: ``--shard i/N`` runs
one slice into a private cache directory, and ``--merge`` unions shard
caches back into the shared one with conflict detection.  On one
machine, ``sweep --jobs N`` is the parallel form.

The ``manifest`` subcommand summarizes the run manifest the cache
keeps: hit rates, wall time by workload/scheduler, and the slowest
cells.

The ``diff`` subcommand is the audit layer: it aligns two sweeps'
manifests cell-by-cell by *spec identity* (ignoring the source
fingerprint) and reports per-metric drift, exiting nonzero on any
out-of-tolerance change; ``diff --reference`` instead runs a grid
through both the fast kernel and the reference kernel
(``repro.verify.reference``) and asserts byte-equal results.  The
``baseline`` subcommand maintains committed metric snapshots
(``pin``/``check``/``update``) that give CI a cell-level regression
gate.

The ``fuzz`` subcommand is the verification layer (``repro.verify``):
``fuzz run`` generates seeded hostile cases and runs each through the
fast *and* reference kernels with the invariant oracles armed
(byte-equal results required), shrinking and saving any failure as a
one-file JSON repro; ``fuzz replay``/``fuzz corpus`` re-run saved
cases (``tests/corpus/`` is the committed corpus).

The ``trace`` subcommand renders the structured traces every layer
emits when ``REPRO_TRACE=<path>`` is set (``repro.obs``): ``summary``
for per-span-name self/total time, hottest cells, and kernel counter
rollups; ``tree`` for the nested span tree per process; ``export
--json`` for the machine-readable rollup.  ``perf --trace`` embeds
the kernel counters of a traced run in the bench report.

Examples::

    python -m repro sweep --workloads tpcc tpce --schedulers base strex \\
        --cores 2 4 8 --jobs 4
    python -m repro sweep --workloads tpce --schedulers base strex slicc \\
        hybrid --cores 2 4 8 16 --transactions 80
    python -m repro sweep --workloads tpcc --prefetchers none pif
    python -m repro sweep --workloads tpcc --team-sizes 4 8 16 \\
        --schedulers strex --no-cache
    python -m repro sweep --workloads tpcc --schedulers strex \\
        --strex-overrides '{"phase_bits": [2, 4, 8]}'
    python -m repro shard --shard 0/2 --workloads tpcc --cores 2 4
    python -m repro shard --merge benchmarks/out/.cache/shards/0-of-2
    python -m repro manifest --top 5
    python -m repro manifest --json
    python -m repro manifest --since 2026-08-01T00:00:00
    python -m repro manifest --keep-last 5
    python -m repro perf --scale tiny
    python -m repro perf --repeats 7 --out BENCH_sim.json
    python -m repro perf --check prior/BENCH_sim.json --max-slowdown 0.15
    python -m repro perf --history BENCH_history.jsonl
    python -m repro perf --profile 25
    REPRO_TRACE=trace.jsonl python -m repro perf --scale tiny --trace
    python -m repro trace summary trace.jsonl --top 5
    python -m repro trace tree trace.jsonl --depth 3
    python -m repro trace export --json trace.jsonl
    python -m repro diff old/.cache/manifest.jsonl new/.cache
    python -m repro diff a/manifest.jsonl b/manifest.jsonl \\
        --rel-tol 0.01 --markdown
    python -m repro diff --reference --workloads tpcc --schedulers \\
        base strex --cores 2 --scales tiny
    python -m repro diff old/.cache/audit/fig5.jsonl \\
        new/.cache/audit/fig5.jsonl
    python -m repro fuzz run --cases 50 --seed 7
    python -m repro fuzz run --cases 200 --schedulers strex \\
        --save-failures fuzz-failures --time-budget 60
    python -m repro fuzz corpus
    python -m repro fuzz replay tests/corpus/one-core-torus.json
    python -m repro baseline pin baselines/ci-tiny.json --scales tiny \\
        --workloads tpcc tpce --schedulers base strex slicc hybrid
    python -m repro baseline check baselines/ci-tiny.json
    python -m repro baseline update baselines/ci-tiny.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import List, Tuple

from repro.analysis.report import format_table
from repro.config import SCALES
from repro.exp import (
    Manifest,
    ResultCache,
    Runner,
    ShardSpec,
    SweepSpec,
    Tolerance,
    check_baseline,
    diff_manifests,
    merge_caches,
    pin_baseline,
    reference_diff,
    run_shard,
    shard_root,
    summarize_entries,
    update_baseline,
)
from repro.sim.api import PREFETCHERS, SCHEDULERS
from repro.workloads import WORKLOADS

DEFAULT_CACHE_DIR = Path("benchmarks/out/.cache")


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep-grid axes shared by ``sweep`` and ``shard``."""
    parser.add_argument("--workloads", nargs="+",
                        choices=sorted(WORKLOADS), default=["tpcc"])
    parser.add_argument("--schedulers", nargs="+",
                        choices=sorted(SCHEDULERS),
                        default=["base", "strex"])
    parser.add_argument("--prefetchers", nargs="+",
                        choices=sorted(PREFETCHERS), default=["none"])
    parser.add_argument("--cores", nargs="+", type=int, default=[2, 4])
    parser.add_argument("--team-sizes", nargs="+", type=int, default=[],
                        help="STREX team sizes (strex/hybrid cells only)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1013])
    parser.add_argument("--scales", nargs="+", choices=sorted(SCALES),
                        default=["default"])
    parser.add_argument("--transactions", type=int, default=40)
    for option, target in (("--strex-overrides", "StrexConfig"),
                           ("--cache-overrides", "CacheConfig"),
                           ("--hybrid-overrides", "HybridConfig")):
        parser.add_argument(
            option, type=json.loads, default=None, metavar="JSON",
            help=f"ablation grid over {target} fields, e.g. "
                 '\'{"phase_bits": [2, 4, 8]}\'')


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution knobs shared by ``sweep`` and ``shard``."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (<=1 runs in-process)")
    parser.add_argument("--cache-dir", type=Path,
                        default=DEFAULT_CACHE_DIR)
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock budget in seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help="extra attempts after transient failures")


def _grid_sweep(args) -> "SweepSpec":
    """The :class:`SweepSpec` a parsed grid-argument set describes."""
    return SweepSpec(
        workloads=tuple(args.workloads),
        schedulers=tuple(args.schedulers),
        prefetchers=tuple(args.prefetchers),
        cores=tuple(args.cores),
        team_sizes=tuple(args.team_sizes) or (None,),
        seeds=tuple(args.seeds),
        scales=tuple(args.scales),
        transactions=args.transactions,
        strex_overrides=args.strex_overrides,
        cache_overrides=args.cache_overrides,
        hybrid_overrides=args.hybrid_overrides,
    )


def build_sweep_parser() -> argparse.ArgumentParser:
    """Parser for the ``sweep`` subcommand (the ``repro.exp`` runner)."""
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Expand a parameter grid into runs and execute "
                    "them through the repro.exp runner: parallel "
                    "workers, per-run timeout/retry, and a "
                    "content-addressed result cache.",
    )
    _add_grid_arguments(parser)
    _add_runner_arguments(parser)
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed result "
                             "cache (always re-simulate)")
    return parser


def run_exp_sweep(argv: List[str]) -> Tuple[str, int]:
    """Execute the ``sweep`` subcommand; returns (report, exit code)."""
    args = build_sweep_parser().parse_args(argv)
    sweep = _grid_sweep(args)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = Runner(jobs=args.jobs, cache=cache, timeout=args.timeout,
                    retries=args.retries)
    specs = sweep.expand()
    results = runner.run(specs)

    def override_label(spec) -> str:
        segments = []
        for overrides in (spec.strex_overrides, spec.cache_overrides,
                          spec.hybrid_overrides):
            if overrides is not None:
                segments += [f"{k}={v}" for k, v in overrides]
        return ",".join(segments) or "-"

    by_spec = dict(zip(specs, results))

    def vs_base(spec, run) -> str:
        base = by_spec.get(dataclasses.replace(
            spec, scheduler="base", prefetcher="none", team_size=None,
            strex_overrides=None, hybrid_overrides=None))
        if base is None:
            return "-"
        return f"x{run.relative_throughput(base):.3f}"

    with_overrides = any(override_label(spec) != "-" for spec in specs)
    rows = []
    for spec, run in zip(specs, results):
        row = [
            run.workload,
            spec.scale,
            spec.cores,
            run.scheduler,
            spec.team_size if spec.team_size is not None else "-",
        ]
        if with_overrides:
            row.append(override_label(spec))
        row += [
            spec.seed,
            round(run.i_mpki, 2),
            round(run.d_mpki, 2),
            round(run.throughput, 2),
            vs_base(spec, run),
        ]
        rows.append(row)
    headers = ["workload", "scale", "cores", "scheduler", "team"]
    if with_overrides:
        headers.append("overrides")
    headers += ["seed", "I-MPKI", "D-MPKI", "thr (txn/Mcyc)", "vs base"]
    table = format_table(headers, rows)
    summary = (
        f"{len(results)} runs: {runner.hits} cache hits, "
        f"{runner.misses} executed"
    )
    if cache is not None:
        summary += f" (cache: {args.cache_dir})"
    return table + "\n" + summary, 0


def build_shard_parser() -> argparse.ArgumentParser:
    """Parser for the ``shard`` subcommand (cross-machine sweeps)."""
    parser = argparse.ArgumentParser(
        prog="repro shard",
        description="Split a sweep across machines by hash-range of "
                    "the content-addressed cache key: run one shard "
                    "into a private cache (--shard), or union shard "
                    "caches into the shared one (--merge).  Merges "
                    "are conflict-safe: the same key with different "
                    "payloads is a hard error, never "
                    "last-writer-wins.  On one machine, 'repro sweep "
                    "--jobs N' runs a grid in parallel.",
    )
    _add_grid_arguments(parser)
    _add_runner_arguments(parser)
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--shard", type=ShardSpec.parse, metavar="I/N",
                        help="run shard I of N into a private "
                             "cache directory")
    action.add_argument("--merge", nargs="+", type=Path, metavar="DIR",
                        help="merge shard cache directories into "
                             "--cache-dir (no simulation)")
    parser.add_argument("--shard-dir", type=Path, default=None,
                        help="private cache directory for --shard "
                             "(default: <cache-dir>/shards/<i>-of-<n>)")
    return parser


def run_shard_cmd(argv: List[str]) -> Tuple[str, int]:
    """Execute the ``shard`` subcommand; returns (report, exit code)."""
    args = build_shard_parser().parse_args(argv)
    if args.merge is not None:
        report = merge_caches(ResultCache(args.cache_dir), args.merge)
        return f"{report.describe()} -> {args.cache_dir}", 0
    specs = _grid_sweep(args).expand()
    root = args.shard_dir if args.shard_dir is not None \
        else shard_root(args.cache_dir, args.shard)
    outcome = run_shard(specs, args.shard, root, jobs=args.jobs,
                        timeout=args.timeout, retries=args.retries)
    return (
        f"shard {args.shard}: {outcome.selected}/{len(specs)} cell(s) "
        f"selected, {outcome.hits} cache hit(s), {outcome.misses} "
        f"executed\n"
        f"private cache: {root}\n"
        f"merge with: python -m repro shard --merge {root} "
        f"--cache-dir {args.cache_dir}",
        0,
    )


def build_manifest_parser() -> argparse.ArgumentParser:
    """Parser for the ``manifest`` subcommand (cache analytics)."""
    parser = argparse.ArgumentParser(
        prog="repro manifest",
        description="Summarize the run manifest kept next to the "
                    "result cache: cache hit rate, wall time by "
                    "workload and scheduler, and the slowest cells.",
    )
    parser.add_argument("--path", type=Path,
                        default=DEFAULT_CACHE_DIR / "manifest.jsonl",
                        help="manifest file (default: the benchmark "
                             "cache's manifest)")
    parser.add_argument("--top", type=int, default=10,
                        help="how many slowest cells to list")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of "
                             "tables (for CI assertions)")
    parser.add_argument("--since", type=str, default=None,
                        metavar="ISO",
                        help="only summarize rows at/after this ISO "
                             "timestamp, e.g. 2026-08-01T00:00:00 "
                             "(rows without a timestamp are excluded)")
    parser.add_argument("--keep-last", type=int, default=None,
                        metavar="N",
                        help="compact the manifest in place, keeping "
                             "only the rows of the last N sweeps")
    return parser


def run_manifest(argv: List[str]) -> Tuple[str, int]:
    """Execute the ``manifest`` subcommand; returns (report, code)."""
    from datetime import datetime

    args = build_manifest_parser().parse_args(argv)
    manifest = Manifest(args.path)
    if args.keep_last is not None:
        if args.keep_last <= 0:
            raise ValueError("--keep-last must be positive")
        kept, dropped = manifest.compact(args.keep_last)
        return (f"compacted {args.path}: kept {kept} row(s) from the "
                f"last {args.keep_last} sweep(s), dropped {dropped}", 0)
    entries = manifest.read()
    if args.since is not None:
        try:
            cutoff = datetime.fromisoformat(args.since).timestamp()
        except ValueError:
            raise ValueError(
                f"--since must be an ISO timestamp, got {args.since!r}"
            ) from None
        entries = [e for e in entries
                   if e.ts is not None and e.ts >= cutoff]
    summary = summarize_entries(entries, top=args.top)
    if args.json:
        return json.dumps(summary.to_dict(), indent=2, sort_keys=True), 0
    if not entries:
        return f"no manifest entries at {args.path}", 0
    lines = [
        f"manifest: {args.path}",
        f"{summary.runs} runs: {summary.hits} cache hits, "
        f"{summary.misses} executed "
        f"(hit rate {100 * summary.hit_rate:.1f}%)",
        f"executed wall time {summary.wall_s:.2f}s; cache saved "
        f"~{summary.saved_s:.2f}s; {summary.retried} run(s) retried",
        "",
    ]
    group_rows = [
        [workload, scheduler, stats["runs"], stats["hits"],
         stats["misses"], round(stats["wall_s"], 2)]
        for (workload, scheduler), stats in sorted(summary.groups.items())
    ]
    lines.append(format_table(
        ["workload", "scheduler", "runs", "hits", "misses", "wall (s)"],
        group_rows))
    if summary.slowest:
        lines.append("")
        lines.append(format_table(
            ["wall (s)", "spec", "key"],
            [[round(wall, 3), label, key[:12]]
             for wall, label, key in summary.slowest]))
    return "\n".join(lines), 0


def _add_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--abs-tol", type=float, default=0.0,
                        metavar="X",
                        help="absolute per-metric tolerance "
                             "(default 0: exact)")
    parser.add_argument("--rel-tol", type=float, default=0.0,
                        metavar="F",
                        help="relative per-metric tolerance vs the "
                             "reference side (default 0: exact)")


def _manifest_path(path: Path) -> Path:
    """Accept either a manifest file or a cache directory."""
    if path.is_dir():
        return path / "manifest.jsonl"
    return path


def build_diff_parser() -> argparse.ArgumentParser:
    """Parser for the ``diff`` subcommand (the audit layer)."""
    parser = argparse.ArgumentParser(
        prog="repro diff",
        description="Compare two sweeps cell by cell: align their "
                    "manifests by spec identity (config + params + "
                    "mode, ignoring the source fingerprint), classify "
                    "each cell as identical/changed/added/removed, "
                    "and report per-metric deltas.  Exits nonzero on "
                    "any out-of-tolerance change.  With --reference, "
                    "instead runs a grid through both the fast "
                    "and the reference kernel and asserts "
                    "byte-equal results per cell.",
    )
    parser.add_argument("a", nargs="?", type=Path, metavar="MANIFEST_A",
                        help="reference sweep: manifest file or cache "
                             "directory")
    parser.add_argument("b", nargs="?", type=Path, metavar="MANIFEST_B",
                        help="candidate sweep: manifest file or cache "
                             "directory")
    parser.add_argument("--cache-a", type=Path, default=None,
                        metavar="DIR",
                        help="result cache for MANIFEST_A (default: "
                             "the manifest's directory)")
    parser.add_argument("--cache-b", type=Path, default=None,
                        metavar="DIR",
                        help="result cache for MANIFEST_B (default: "
                             "the manifest's directory)")
    _add_tolerance_arguments(parser)
    parser.add_argument("--strict", action="store_true",
                        help="also fail on added/removed cells, not "
                             "just changed/missing ones")
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    output.add_argument("--markdown", action="store_true",
                        help="emit GitHub-flavored markdown (for PR "
                             "comments)")
    parser.add_argument("--reference", action="store_true",
                        help="diff the fast kernel against the "
                             "reference kernel on the grid flags "
                             "below (byte-equality; tolerances do not "
                             "apply)")
    _add_grid_arguments(parser)
    return parser


def run_diff(argv: List[str]) -> Tuple[str, int]:
    """Execute the ``diff`` subcommand; returns (report, exit code)."""
    args = build_diff_parser().parse_args(argv)
    if args.reference:
        if args.a is not None or args.b is not None:
            raise ValueError(
                "--reference takes grid flags, not manifest paths")
        report = reference_diff(_grid_sweep(args).expand())
    else:
        if args.a is None or args.b is None:
            raise ValueError(
                "diff needs two manifests (or --reference)")
        report = diff_manifests(
            _manifest_path(args.a), _manifest_path(args.b),
            cache_a=args.cache_a, cache_b=args.cache_b,
            tolerance=Tolerance(abs_tol=args.abs_tol,
                                rel_tol=args.rel_tol))
    if args.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    elif args.markdown:
        text = report.format_markdown()
    else:
        text = report.format_text()
    return text, report.exit_code(strict=args.strict)


def build_baseline_parser() -> argparse.ArgumentParser:
    """Parser for the ``baseline`` subcommand (pinned snapshots)."""
    parser = argparse.ArgumentParser(
        prog="repro baseline",
        description="Maintain committed metric snapshots of a sweep.  "
                    "'pin' runs the grid flags below and writes the "
                    "snapshot; 'check' re-runs the pinned specs (the "
                    "file is self-contained) and exits nonzero on "
                    "drift; 'update' re-runs and overwrites the "
                    "snapshot.  Snapshots hold metric vectors, not "
                    "raw bytes, so fingerprint-only changes stay "
                    "green.",
    )
    parser.add_argument("action", choices=("pin", "check", "update"))
    parser.add_argument("path", type=Path, metavar="FILE",
                        help="baseline JSON file (commit it; "
                             "baselines/ by convention)")
    parser.add_argument("--name", type=str, default=None,
                        help="snapshot name recorded in the file "
                             "(pin only; default: the file stem)")
    _add_tolerance_arguments(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit the check's diff as JSON")
    _add_grid_arguments(parser)
    _add_runner_arguments(parser)
    return parser


def run_baseline(argv: List[str]) -> Tuple[str, int]:
    """Execute the ``baseline`` subcommand; returns (report, code)."""
    args = build_baseline_parser().parse_args(argv)
    runner = Runner(jobs=args.jobs, cache=ResultCache(args.cache_dir),
                    timeout=args.timeout, retries=args.retries)
    if args.action == "pin":
        specs = _grid_sweep(args).expand()
        baseline = pin_baseline(
            specs, args.path, runner=runner,
            name=args.name if args.name is not None else args.path.stem)
        return (f"pinned {len(baseline.cells)} cell(s) -> {args.path}",
                0)
    if args.action == "update":
        baseline = update_baseline(args.path, runner=runner)
        return (f"updated {len(baseline.cells)} cell(s) in "
                f"{args.path}", 0)
    report = check_baseline(
        args.path, runner=runner,
        tolerance=Tolerance(abs_tol=args.abs_tol,
                            rel_tol=args.rel_tol))
    if args.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        verdict = "OK" if report.ok(strict=True) else "DRIFT"
        text = (f"baseline {args.path}: {verdict}\n"
                + report.format_text())
    # A pinned cell that vanishes is as much of a regression as one
    # that moves, hence strict.
    return text, report.exit_code(strict=True)


def build_fuzz_parser() -> argparse.ArgumentParser:
    """Parser for the ``fuzz`` subcommand (``repro.verify``).

    Shares the sweep-grid argument factoring with ``sweep``/``shard``
    (one ``--workloads``/``--schedulers``/... vocabulary everywhere),
    but defaults every axis to *unset*: an unset axis means "sample
    the full hostile pool", not the sweep's fixed grid.
    """
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Property-based differential fuzzing of the "
                    "simulator: generate seeded hostile cases (or "
                    "replay saved ones), run each through the fast "
                    "AND the reference kernel with the "
                    "REPRO_SIM_CHECK=1 invariant oracles armed, and "
                    "require byte-equal results.  Failures are "
                    "shrunk to minimal one-file JSON repros; "
                    "tests/corpus/ holds the committed replay "
                    "corpus.",
    )
    parser.add_argument("action", choices=("run", "replay", "corpus"),
                        help="run: fresh seeded cases; replay: the "
                             "given case files/directories; corpus: "
                             "the committed corpus directory")
    parser.add_argument("paths", nargs="*", type=Path, metavar="PATH",
                        help="case files or directories for 'replay'")
    parser.add_argument("--cases", type=int, default=25,
                        help="number of generated cases for 'run'")
    parser.add_argument("--seed", type=int, default=1013,
                        help="campaign seed (printed for replay)")
    parser.add_argument("--corpus-dir", type=Path,
                        default=Path("tests/corpus"),
                        help="committed corpus directory for 'corpus'")
    parser.add_argument("--save-failures", type=Path, default=None,
                        metavar="DIR",
                        help="write shrunken failing cases here as "
                             "JSON repros (CI uploads this dir)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    parser.add_argument("--no-check", action="store_true",
                        help="differential comparison only; leave the "
                             "invariant oracles disarmed")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="S",
                        help="stop generating new cases after S "
                             "seconds of wall clock ('run' only)")
    _add_grid_arguments(parser)
    # Grid flags narrow the sampling pools only when given explicitly;
    # the sweep defaults (cores=[2,4], tpcc-only, ...) would otherwise
    # silently exclude the hostile corner the fuzzer exists to reach.
    parser.set_defaults(workloads=None, schedulers=None,
                        prefetchers=None, cores=None, team_sizes=None,
                        seeds=None, scales=None, transactions=None)
    return parser


def run_fuzz(argv: List[str]) -> Tuple[str, int]:
    """Execute the ``fuzz`` subcommand; returns (report, exit code)."""
    from repro.verify import (
        CasePools,
        fuzz_run,
        load_case,
        load_corpus,
        replay_cases,
    )

    args = build_fuzz_parser().parse_args(argv)
    check = not args.no_check
    shrink = not args.no_shrink

    if args.action == "run":
        if args.paths:
            raise ValueError("'fuzz run' takes no PATH arguments "
                             "(use 'fuzz replay')")
        pools = CasePools.from_grid_args(args)
        report = fuzz_run(
            args.cases, args.seed, pools=pools, check=check,
            shrink=shrink, save_dir=args.save_failures,
            time_budget_s=args.time_budget)
        header = (f"fuzz seed {args.seed}; replay with: "
                  f"python -m repro fuzz run --cases {args.cases} "
                  f"--seed {args.seed}")
        return header + "\n" + report.format_text(), report.exit_code()

    if args.action == "corpus":
        pairs = load_corpus(args.corpus_dir)
        if not pairs:
            return (f"no corpus cases under {args.corpus_dir} "
                    f"(expected committed *.json repros)", 2)
        cases = [case for _, case in pairs]
    else:
        if not args.paths:
            raise ValueError("'fuzz replay' needs case files or "
                             "directories")
        cases = []
        for path in args.paths:
            if path.is_dir():
                cases += [case for _, case in load_corpus(path)]
            else:
                cases.append(load_case(path))
        if not cases:
            raise ValueError(
                f"no case files found under {args.paths}")

    report = replay_cases(cases, check=check, shrink=shrink,
                          save_dir=args.save_failures)
    rows = [[outcome.case.name, outcome.case.scheduler,
             outcome.case.workload, outcome.status]
            for outcome in report.outcomes]
    table = format_table(["case", "scheduler", "workload", "status"],
                         rows)
    return table + "\n" + report.format_text(), report.exit_code()


def build_perf_parser() -> argparse.ArgumentParser:
    """Parser for the ``perf`` subcommand (kernel microbenchmark)."""
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Benchmark the simulation kernel: fast vs "
                    "reference kernel on the "
                    "same traces, with parity asserted first.  Writes "
                    "a JSON report for tracking.",
    )
    parser.add_argument("--scale", choices=sorted(SCALES),
                        default="default")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="tpcc")
    parser.add_argument("--transactions", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per path and per "
                             "scheduler (min is kept)")
    parser.add_argument("--cores", type=int, default=None,
                        help="override the scale's default core count")
    parser.add_argument("--seed", type=int, default=1013)
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_sim.json"),
                        help="JSON report path (default: "
                             "BENCH_sim.json in the current directory)")
    parser.add_argument("--check", type=Path, default=None,
                        metavar="PRIOR",
                        help="compare the fresh report against this "
                             "prior BENCH_sim.json and exit nonzero "
                             "on a kernel slowdown beyond "
                             "--max-slowdown (a missing PRIOR is "
                             "skipped: first runs have no baseline)")
    parser.add_argument("--max-slowdown", type=float, default=0.15,
                        metavar="F",
                        help="tolerated fractional events/s drop for "
                             "--check (default 0.15)")
    parser.add_argument("--history", type=Path, default=None,
                        metavar="PATH",
                        help="also append the report as one JSON line "
                             "to this .jsonl ledger (e.g. "
                             "BENCH_history.jsonl)")
    parser.add_argument("--profile", type=int, default=None,
                        metavar="N",
                        help="instead of benchmarking, cProfile one "
                             "fast-path run and print the top N "
                             "functions by total time")
    parser.add_argument("--trace", action="store_true",
                        help="embed the engine's own kernel counters "
                             "(event/instruction totals, kernel "
                             "calls, packed-view footprint) in the "
                             "report as 'kernel_counters'")
    return parser


def run_perf(argv: List[str]) -> Tuple[str, int]:
    """Execute the ``perf`` subcommand; returns (report, exit code)."""
    from repro.perf import (append_history, check_regression,
                            profile_kernel, run_bench, write_bench)
    from repro.perf.bench import format_report

    args = build_perf_parser().parse_args(argv)
    if args.profile is not None:
        return profile_kernel(
            scale=args.scale,
            workload=args.workload,
            transactions=args.transactions,
            seed=args.seed,
            cores=args.cores,
            top=args.profile,
        ), 0
    report = run_bench(
        scale=args.scale,
        workload=args.workload,
        transactions=args.transactions,
        repeats=args.repeats,
        seed=args.seed,
        cores=args.cores,
        trace_counters=args.trace,
    )
    write_bench(report, args.out)
    text = format_report(report) + f"\nwrote {args.out}"
    code = 0
    if args.check is not None:
        if not args.check.exists():
            text += (f"\nno prior report at {args.check}; "
                     f"nothing to gate against")
        else:
            prior = json.loads(args.check.read_text())
            ok, message = check_regression(
                report, prior, max_slowdown=args.max_slowdown)
            text += "\n" + message
            if not ok:
                code = 1
    # The ledger archives *clean* runs only: every gate above must
    # have passed (parity failures raise inside run_bench and never
    # get here).  Appending a failing report would poison later
    # over-time comparisons with numbers a gate already rejected.
    if args.history is not None:
        if code == 0 and report.get("parity") is True:
            append_history(report, args.history)
            text += f"\nappended to {args.history}"
        else:
            text += (f"\nnot appending to {args.history}: report "
                     f"failed a gate")
    return text, code


def build_trace_parser() -> argparse.ArgumentParser:
    """Parser for the ``trace`` subcommand (``repro.obs``)."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Inspect a structured trace written by "
                    "REPRO_TRACE=<path>: per-span wall-time rollups "
                    "with self/total split, the hottest sweep cells, "
                    "kernel counters summed over every sim.run span, "
                    "and merged cross-process metrics.  'summary' "
                    "aggregates, 'tree' renders the span forest, "
                    "'export' emits the summary as JSON for CI "
                    "artifacts.",
    )
    parser.add_argument("action", choices=("summary", "tree", "export"),
                        help="summary: aggregate rollups; tree: the "
                             "nested span forest; export: summary as "
                             "JSON")
    parser.add_argument("path", nargs="?", type=Path, default=None,
                        help="trace JSONL sink (default: the current "
                             "REPRO_TRACE value)")
    parser.add_argument("--top", type=int, default=10,
                        help="hottest cells to list (default 10)")
    parser.add_argument("--depth", type=int, default=None,
                        help="maximum tree depth for 'tree'")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON (implied by "
                             "'export')")
    return parser


def run_trace(argv: List[str]) -> Tuple[str, int]:
    """Execute the ``trace`` subcommand; returns (report, exit code)."""
    from repro.obs import TRACE_ENV
    from repro.obs.report import (format_summary, format_tree,
                                  load_trace, summarize)

    # parse_intermixed_args lets flags precede the optional positional
    # ("trace export --json trace.jsonl"), which plain parse_args
    # rejects for nargs='?' positionals.
    args = build_trace_parser().parse_intermixed_args(argv)
    path = args.path
    if path is None:
        env = os.environ.get(TRACE_ENV)
        if not env:
            raise ValueError(
                "no trace path given and REPRO_TRACE is not set")
        path = Path(env)
    if not path.exists():
        raise ValueError(f"no trace file at {path}")
    data = load_trace(path)
    if args.action == "tree":
        return format_tree(data, depth=args.depth), 0
    summary = summarize(data, top=args.top)
    if args.action == "export" or args.json:
        return json.dumps(summary, indent=2, sort_keys=True), 0
    return format_summary(summary), 0


#: Subcommand name -> its runner.  Each runner parses its own argv
#: and returns ``(report, exit code)``.
COMMANDS = {
    "sweep": run_exp_sweep,
    "shard": run_shard_cmd,
    "manifest": run_manifest,
    "perf": run_perf,
    "diff": run_diff,
    "fuzz": run_fuzz,
    "baseline": run_baseline,
    "trace": run_trace,
}


def build_main_parser() -> argparse.ArgumentParser:
    """The top-level parser: ``--help`` and usage errors."""
    return argparse.ArgumentParser(
        prog="repro",
        usage="%(prog)s COMMAND [ARGS ...]",
        description="STREX (ISCA 2013) reproduction: simulate OLTP "
                    "workloads under conventional, STREX, SLICC, or "
                    "hybrid scheduling.",
        epilog=f"commands: {', '.join(sorted(COMMANDS))}.  Run "
               "'python -m repro COMMAND --help' for each.",
    )


def main(argv=None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        parser = build_main_parser()
        if argv and argv[0].startswith("-"):
            # --help prints the commands; any other flag is an error.
            parser.parse_args(argv)
        word = f"unknown command {argv[0]!r}" if argv else "no command"
        parser.error(f"{word}; choose from {', '.join(sorted(COMMANDS))}")
    try:
        text, code = command(argv[1:])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
