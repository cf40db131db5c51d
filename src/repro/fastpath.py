"""Kernel mode flags: fast/reference selection and invariant checking.

The simulator ships two implementations of its hot path (flat-array
caches + age-counter replacement + specialized event loops, versus the
original per-set structures + recency stacks + general loop).  Both
produce bit-identical :class:`~repro.sim.results.RunResult` metrics;
the reference path exists so differential tests can prove it.

Selection is via the environment::

    REPRO_SIM_REFERENCE=1 python -m repro ...

Independently, ``REPRO_SIM_CHECK=1`` arms the invariant oracles of
:mod:`repro.verify.oracles`: every engine then audits its own
accounting (miss/access conservation, cycle monotonicity, phase-tag
ranges, totals reconciliation) and raises
:class:`~repro.verify.oracles.InvariantViolation` on the first breach.

Both flags are read at *construction* time of each cache / engine, so
a simulation never mixes paths mid-run and never arms checking
mid-run.
"""

from __future__ import annotations

import os

#: Environment variable selecting the reference (pre-optimization)
#: simulation path.  Any value other than empty/"0" enables it.
ENV_VAR = "REPRO_SIM_REFERENCE"

#: Environment variable arming the engine's invariant oracles.
#: Any value other than empty/"0" enables them.
CHECK_ENV = "REPRO_SIM_CHECK"

#: Environment variable disabling hit-run fast-forwarding in the age
#: loop (:meth:`repro.sim.engine.SimulationEngine._run_events_age`).
#: Any value other than empty/"0" forces scalar replay; results are
#: byte-identical either way -- this is an escape hatch and an A/B
#: switch for the differential tests, not a semantic knob.
NOBATCH_ENV = "REPRO_SIM_NOBATCH"


def reference_mode() -> bool:
    """True when the reference simulation path is requested."""
    return os.environ.get(ENV_VAR, "") not in ("", "0")


def check_mode() -> bool:
    """True when the engine's invariant oracles are armed."""
    return os.environ.get(CHECK_ENV, "") not in ("", "0")


def nobatch_mode() -> bool:
    """True when hit-run fast-forwarding is disabled."""
    return os.environ.get(NOBATCH_ENV, "") not in ("", "0")
