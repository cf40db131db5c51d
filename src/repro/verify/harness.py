"""Differential fuzz harness: fast vs reference kernel, oracles armed.

:func:`run_case` is the heart: one :class:`FuzzCase` runs through the
fast kernel *and* the reference kernel, on the **same trace
objects** (trace generation is seeded but the parity rule requires the
two kernels to consume identical inputs in one process), with
``REPRO_SIM_CHECK=1`` arming the invariant oracles in both.  The bar
is DESIGN decision 12's: the two serialized ``RunResult``s must be
byte-equal, and so must every hierarchy counter the result does not
carry (:func:`hierarchy_state`: per-level cache stats, L2 demand
traffic, NoC messages and hops, prefetch coverage), so a fast-kernel
bug that moves only those is still a mismatch.

Failures are classified (oracle ``violation`` / kernel ``mismatch`` /
hard ``error``), greedily shrunk to a minimal still-failing case, and
written as one-file JSON repros -- the replay corpus under
``tests/corpus/`` is exactly such files, committed.  ``python -m repro
fuzz run|replay|corpus`` drives everything from the command line.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exp.diff import metric_vector, result_blob
from repro.sim.api import build_engine
from repro.verify.generators import (
    SYNTHETIC,
    CaseGenerator,
    CasePools,
    FuzzCase,
)
from repro.verify.oracles import CHECK_ENV, InvariantViolation

#: Outcome statuses, in severity order.
STATUS_OK = "ok"
STATUS_VIOLATION = "violation"
STATUS_MISMATCH = "mismatch"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class CaseOutcome:
    """What happened when one case ran through both kernels."""

    case: FuzzCase
    status: str
    detail: str = ""
    kernel: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def describe(self) -> str:
        suffix = f" [{self.kernel}]" if self.kernel else ""
        line = f"{self.status}{suffix}: {self.case.describe()}"
        if self.detail:
            line += f"\n    {self.detail}"
        return line

    def to_dict(self) -> dict:
        return {
            "case": self.case.to_dict(),
            "status": self.status,
            "detail": self.detail,
            "kernel": self.kernel,
        }


def hierarchy_state(engine) -> Dict[str, int]:
    """Every hierarchy counter the fast loops keep in locals or inline,
    by name: each cache's ``stats.snapshot()`` (``l1i[0].hits``, ...),
    the L2 demand traffic, the NoC's messages and hops and the
    prefetcher's coverage counts.  ``RunResult`` carries none of these
    per level, so the differential checks compare them as well."""
    hier = engine.hier
    state = {}
    for level in ("l1i", "l1d", "l2"):
        for index, cache in enumerate(getattr(hier, level)):
            for counter, value in cache.stats.snapshot().items():
                state[f"{level}[{index}].{counter}"] = value
    state["l2_demand_traffic"] = hier.l2_demand_traffic
    state["noc.messages"] = hier.noc.messages
    state["noc.total_hops"] = hier.noc.total_hops
    state["prefetch.covered_misses"] = hier.prefetcher.covered_misses
    state["prefetch.uncovered_misses"] = hier.prefetcher.uncovered_misses
    return state


def _simulate_case(case: FuzzCase, config, traces, reference: bool,
                   check: bool):
    """One kernel run with the oracle switch pinned, then restored.

    Returns ``(result, hierarchy_state)``.  The result carries no
    ``scheduler+prefetcher`` label (``simulate`` adds that after the
    run); both kernels are compared unlabelled.
    """
    saved_check = os.environ.get(CHECK_ENV)
    try:
        if check:
            os.environ[CHECK_ENV] = "1"
        else:
            os.environ.pop(CHECK_ENV, None)
        engine = build_engine(
            config, traces, case.scheduler,
            prefetcher=case.prefetcher,
            team_size=case.team_size,
            reference=reference,
        )
        result = engine.run(case.workload)
        return result, hierarchy_state(engine)
    finally:
        if saved_check is None:
            os.environ.pop(CHECK_ENV, None)
        else:
            os.environ[CHECK_ENV] = saved_check


def _differences(a: Dict, b: Dict) -> List[str]:
    return [
        f"{name}: fast={a.get(name)!r} reference={b.get(name)!r}"
        for name in sorted(set(a) | set(b))
        if a.get(name) != b.get(name)
    ]


def _mismatch_detail(fast, reference) -> str:
    """Name the metrics and hierarchy counters where the two kernels
    disagree; ``fast`` and ``reference`` are ``(result, state)``."""
    moved = (_differences(metric_vector(fast[0]),
                          metric_vector(reference[0]))
             + _differences(fast[1], reference[1]))
    if not moved:
        moved = ["metric vectors agree; serialized results differ "
                 "(latency list or extra fields)"]
    shown = "; ".join(moved[:6])
    if len(moved) > 6:
        shown += f"; ... {len(moved) - 6} more"
    return shown


def run_case(case: FuzzCase, check: bool = True) -> CaseOutcome:
    """Run one case through both kernels; the serialized results and
    the hierarchy states must be equal."""
    try:
        config = case.build_config()
        traces = case.build_traces()
    except Exception as exc:  # noqa: BLE001 - classified, not hidden
        return CaseOutcome(case, STATUS_ERROR,
                           detail=f"case construction failed: {exc!r}")
    runs = {}
    for kernel, reference in (("fast", False), ("reference", True)):
        try:
            runs[kernel] = _simulate_case(
                case, config, traces, reference=reference, check=check)
        except InvariantViolation as exc:
            return CaseOutcome(case, STATUS_VIOLATION, detail=str(exc),
                               kernel=kernel)
        except Exception as exc:  # noqa: BLE001
            return CaseOutcome(case, STATUS_ERROR, detail=repr(exc),
                               kernel=kernel)
    fast, ref = runs["fast"], runs["reference"]
    if result_blob(fast[0]) != result_blob(ref[0]) or fast[1] != ref[1]:
        return CaseOutcome(case, STATUS_MISMATCH,
                           detail=_mismatch_detail(fast, ref))
    return CaseOutcome(case, STATUS_OK)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _with_config(case: FuzzCase, **top_level) -> FuzzCase:
    """A copy of ``case`` with top-level config keys replaced."""
    config = json.loads(json.dumps(case.config))
    config.update(top_level)
    return case.replace(config=config)


def _shrink_candidates(case: FuzzCase) -> List[FuzzCase]:
    """Strictly-simpler variants, most aggressive reductions first."""
    out: List[FuzzCase] = []

    def add(builder: Callable[[], FuzzCase]) -> None:
        try:
            candidate = builder()
        except (ValueError, KeyError, TypeError):
            return
        out.append(candidate)

    if case.transactions > 1:
        add(lambda: case.replace(transactions=1))
        add(lambda: case.replace(transactions=case.transactions // 2))
    if case.workload != SYNTHETIC:
        add(lambda: case.replace(workload=SYNTHETIC, events=24,
                                 blocks=32, data_blocks=16))
    else:
        for fld in ("events", "blocks", "data_blocks"):
            value = getattr(case, fld)
            if value > 1:
                add(lambda f=fld: case.replace(**{f: 1}))
                add(lambda f=fld, v=value: case.replace(**{f: v // 2}))
    cores = case.config.get("num_cores", 1)
    if cores > 1:
        add(lambda: _with_config(case, num_cores=1))
        add(lambda: _with_config(case, num_cores=cores // 2))
    if case.prefetcher != "none":
        add(lambda: case.replace(prefetcher="none"))
    if case.team_size is not None:
        add(lambda: case.replace(team_size=None))
    lru = {}
    for level in ("l1i", "l1d", "l2_slice"):
        section = case.config.get(level, {})
        if section.get("replacement", "lru") != "lru":
            lru[level] = dict(section, replacement="lru")
    if lru:
        add(lambda: _with_config(case, **lru))
    if case.scheduler != "base":
        add(lambda: case.replace(scheduler="base", team_size=None))
    return out


def shrink_case(case: FuzzCase,
                is_failing: Optional[Callable[[FuzzCase], bool]] = None,
                check: bool = True,
                max_attempts: int = 80) -> Tuple[FuzzCase, int]:
    """Greedily minimize a failing case.

    Repeatedly tries simpler variants, keeping any that still fail
    (by ``is_failing``, default: :func:`run_case` not ok), until a
    full candidate round yields no reduction or the attempt budget is
    spent.  Deterministic: candidate order is fixed and the predicate
    is pure for our cases.

    Returns:
        ``(smallest failing case found, candidate runs spent)``.
    """
    if is_failing is None:
        def is_failing(candidate: FuzzCase) -> bool:
            return not run_case(candidate, check=check).ok

    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(case):
            if attempts >= max_attempts:
                break
            attempts += 1
            try:
                failing = is_failing(candidate)
            except Exception:  # noqa: BLE001 - a crash still "fails"
                failing = True
            if failing:
                case = candidate
                improved = True
                break
    return case, attempts


# ----------------------------------------------------------------------
# Corpus files
# ----------------------------------------------------------------------
def save_case(case: FuzzCase, directory: Path) -> Path:
    """Write one case as ``<directory>/<name>.json`` (atomic)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.name}.json"
    payload = json.dumps(case.to_dict(), indent=2, sort_keys=True)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(payload + "\n")
    tmp.replace(path)
    return path


def load_case(path: Path) -> FuzzCase:
    """Read one corpus file back into a :class:`FuzzCase`."""
    return FuzzCase.from_dict(json.loads(Path(path).read_text()))


def load_corpus(directory: Path) -> List[Tuple[Path, FuzzCase]]:
    """All corpus cases under ``directory``, sorted by filename."""
    directory = Path(directory)
    pairs = []
    for path in sorted(directory.glob("*.json")):
        pairs.append((path, load_case(path)))
    return pairs


# ----------------------------------------------------------------------
# Campaign drivers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Failure:
    """One failing case with its shrunken repro."""

    outcome: CaseOutcome
    shrunk: FuzzCase
    shrink_attempts: int = 0
    saved_to: Optional[Path] = None


@dataclass
class FuzzReport:
    """Outcome of a fuzz campaign (or corpus replay)."""

    outcomes: List[CaseOutcome] = field(default_factory=list)
    failures: List[Failure] = field(default_factory=list)
    seed: Optional[int] = None
    elapsed_s: float = 0.0
    requested: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def counts(self) -> dict:
        counts = {STATUS_OK: 0, STATUS_VIOLATION: 0,
                  STATUS_MISMATCH: 0, STATUS_ERROR: 0}
        for outcome in self.outcomes:
            counts[outcome.status] += 1
        return counts

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def format_text(self) -> str:
        counts = self.counts
        ran = len(self.outcomes)
        line = (f"{ran} case(s) in {self.elapsed_s:.1f}s: "
                f"{counts[STATUS_OK]} ok, "
                f"{counts[STATUS_VIOLATION]} invariant violation(s), "
                f"{counts[STATUS_MISMATCH]} kernel mismatch(es), "
                f"{counts[STATUS_ERROR]} error(s)")
        if self.seed is not None:
            line += f"  [seed {self.seed}]"
        if ran < self.requested:
            line += (f"\ntime budget hit: ran {ran} of "
                     f"{self.requested} requested case(s)")
        lines = [line]
        for failure in self.failures:
            lines.append("")
            lines.append(failure.outcome.describe())
            lines.append(f"  shrunk to: {failure.shrunk.describe()} "
                         f"({failure.shrink_attempts} attempt(s))")
            if failure.saved_to is not None:
                lines.append(
                    f"  repro saved: {failure.saved_to} "
                    f"(replay: python -m repro fuzz replay "
                    f"{failure.saved_to})")
        return "\n".join(lines)


def _record_failure(outcome: CaseOutcome, *, shrink: bool, check: bool,
                    save_dir: Optional[Path]) -> Failure:
    case = outcome.case
    if shrink:
        shrunk, attempts = shrink_case(case, check=check)
        shrunk = shrunk.replace(
            name=f"{case.name}-shrunk",
            note=(f"{shrunk.note}; shrunk from {case.name} "
                  f"({outcome.status})").strip("; "))
    else:
        shrunk, attempts = case, 0
    saved_to = save_case(shrunk, save_dir) if save_dir is not None \
        else None
    return Failure(outcome=outcome, shrunk=shrunk,
                   shrink_attempts=attempts, saved_to=saved_to)


def fuzz_run(count: int, seed: int,
             pools: Optional[CasePools] = None,
             check: bool = True,
             shrink: bool = True,
             save_dir: Optional[Path] = None,
             time_budget_s: Optional[float] = None,
             progress: Optional[Callable[[CaseOutcome], None]] = None,
             ) -> FuzzReport:
    """Run ``count`` freshly generated cases; shrink and save failures.

    ``time_budget_s`` bounds the campaign wall clock (the CI
    fuzz-smoke job); generation stops once it is exceeded, which is
    reported rather than silent.
    """
    generator = CaseGenerator(seed, pools)
    report = FuzzReport(seed=seed, requested=count)
    started = time.monotonic()
    for index in range(count):
        if time_budget_s is not None and \
                time.monotonic() - started > time_budget_s:
            break
        outcome = run_case(generator.case(index), check=check)
        report.outcomes.append(outcome)
        if not outcome.ok:
            report.failures.append(_record_failure(
                outcome, shrink=shrink, check=check,
                save_dir=save_dir))
        if progress is not None:
            progress(outcome)
    report.elapsed_s = time.monotonic() - started
    return report


def replay_cases(cases: Sequence[FuzzCase],
                 check: bool = True,
                 shrink: bool = False,
                 save_dir: Optional[Path] = None,
                 progress: Optional[Callable[[CaseOutcome], None]] = None,
                 ) -> FuzzReport:
    """Re-run known cases (the corpus, or saved failure files)."""
    report = FuzzReport(requested=len(cases))
    started = time.monotonic()
    for case in cases:
        outcome = run_case(case, check=check)
        report.outcomes.append(outcome)
        if not outcome.ok:
            report.failures.append(_record_failure(
                outcome, shrink=shrink, check=check,
                save_dir=save_dir))
        if progress is not None:
            progress(outcome)
    report.elapsed_s = time.monotonic() - started
    return report
