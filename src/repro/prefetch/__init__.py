"""Instruction prefetchers: next-line and idealized PIF."""

from repro.prefetch.base import InstructionPrefetcher, NoPrefetcher
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.pif import PifIdealPrefetcher

__all__ = [
    "InstructionPrefetcher",
    "NoPrefetcher",
    "NextLinePrefetcher",
    "PifIdealPrefetcher",
]
