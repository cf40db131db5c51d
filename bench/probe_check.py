"""Check that the host-speed probe ignores the pool's memory load.

    python3 bench/probe_check.py [--seconds 240]

``run.py`` divides every end-to-end time by the slowdown of a small
probe (:class:`run.HostSpeed`) sampled while the pool works.  If a
change made the pool lean harder on shared caches and memory, and that
slowed the probe as well, part of the change's cost would be divided
out.  This script runs two worker processes in alternating 6 s phases:
a register-only loop, then random byte updates over 128 MB each.  It
prints the median probe time of each kind of phase and their ratio.
A ratio of 1 or below means the pool's memory traffic does not slow
the probe; how far it is from 1 bounds how much the character of the
pool's work, rather than the host, moves the probe.
"""

from __future__ import annotations

import argparse
import multiprocessing
import statistics
import time

from run import HostSpeed

PHASE_S = 6.0
#: Left out at the start of a phase, while the loader allocates.
SETTLE_S = 2.0


def load(kind: str, until: float) -> None:
    x = 7
    if kind == "cpu":
        while time.time() < until:
            for i in range(10000):
                x = (x * 31 + i) & 0xFFFF
        return
    table = bytearray(1 << 27)
    while time.time() < until:
        for _ in range(10000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            slot = x & 0x7FFFFFF
            table[slot] = (table[slot] + 1) & 255


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=240.0)
    args = parser.parse_args(argv)
    phases = []
    end = time.time() + args.seconds
    with HostSpeed() as speed:
        kind = "cpu"
        while time.time() < end:
            start = time.time()
            workers = [multiprocessing.Process(
                target=load, args=(kind, start + PHASE_S)) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            phases.append((kind, start + SETTLE_S, start + PHASE_S))
            kind = "mem" if kind == "cpu" else "cpu"
    median = {}
    for kind in ("cpu", "mem"):
        median[kind] = statistics.median(
            statistics.mean(cpu for at, cpu in speed.samples
                            if begin <= at <= end)
            for which, begin, end in phases if which == kind)
        print(f"{kind}: median probe {median[kind] * 1e3:.3f} ms over "
              f"{sum(which == kind for which, _, _ in phases)} phases")
    print(f"memory-heavy / register-only: {median['mem'] / median['cpu']:.3f}")


if __name__ == "__main__":
    main()
