"""repro.verify — invariant oracles, the reference kernel, and
property-based differential fuzzing.

Four layers (see DESIGN.md, decisions 12 and 15):

* :mod:`repro.verify.oracles` — ``REPRO_SIM_CHECK=1`` arms in-engine
  invariant checks (conservation, monotonicity, phase-tag ranges,
  result reconciliation); breaches raise :class:`InvariantViolation`.
* :mod:`repro.verify.reference` — the reference kernel: its cache
  layer (per-set-dict caches, recency-stack policies, the generic L2
  route) and its event loop, run by engines constructed with
  ``reference=True``.  It is the differential oracle for the fast
  kernel.
* :mod:`repro.verify.generators` — seeded hostile-case generation
  (:class:`FuzzCase` / :class:`CaseGenerator`), JSON round-trippable.
* :mod:`repro.verify.harness` — the differential harness
  (:func:`run_case` requires byte-equal fast/reference results and
  equal :func:`hierarchy_state` counters),
  greedy shrinking, and the replay corpus under ``tests/corpus/``.

Import note: the oracle layer is imported *eagerly* because
``repro.sim.engine`` depends on it at module level; the generator and
harness layers import the engine back (via ``repro.sim.api``), so they
load lazily (PEP 562) to keep ``engine -> oracles`` cycle-free.  The
engine imports :mod:`repro.verify.reference` itself, and only when it
is asked for the reference kernel.
"""

from repro.verify.oracles import (
    CHECK_ENV,
    InvariantChecker,
    InvariantViolation,
    check_mode,
    make_checker,
)

#: Lazily-resolved exports: name -> submodule.
_LAZY = {
    "CASE_SCHEMA": "generators",
    "CaseGenerator": "generators",
    "CasePools": "generators",
    "FuzzCase": "generators",
    "POLICIES": "generators",
    "SYNTHETIC": "generators",
    "synthetic_traces": "generators",
    "CaseOutcome": "harness",
    "Failure": "harness",
    "FuzzReport": "harness",
    "fuzz_run": "harness",
    "hierarchy_state": "harness",
    "load_case": "harness",
    "load_corpus": "harness",
    "replay_cases": "harness",
    "run_case": "harness",
    "save_case": "harness",
    "shrink_case": "harness",
}

__all__ = [
    "CHECK_ENV",
    "InvariantChecker",
    "InvariantViolation",
    "check_mode",
    "make_checker",
] + sorted(_LAZY)


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{submodule}")
    value = getattr(module, name)
    globals()[name] = value
    return value
