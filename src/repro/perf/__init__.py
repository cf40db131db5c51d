"""Tracked performance benchmarks for the simulation kernel.

``python -m repro perf`` measures the specialized engine loops against
the reference kernel (:mod:`repro.verify.reference`) on identical
traces, verifies the two paths still agree bit-for-bit, and writes the
numbers to ``BENCH_sim.json`` so regressions show up in review.
"""

from repro.perf.bench import (
    append_history,
    check_regression,
    profile_kernel,
    run_bench,
    write_bench,
)

__all__ = [
    "append_history",
    "check_regression",
    "profile_kernel",
    "run_bench",
    "write_bench",
]
