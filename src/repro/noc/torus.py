"""2D torus interconnect (Table 2: 1-cycle hop latency).

The simulated CMP places one core and one NUCA L2 slice at each node of a
near-square 2D torus.  The only quantity the timing model needs is the
hop distance between a requesting core and the slice holding a block,
which on a torus is the wrap-around Manhattan distance.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.config import NocConfig


def grid_shape(num_nodes: int) -> Tuple[int, int]:
    """Near-square (rows, cols) factorization of ``num_nodes``.

    Prefers the factor pair closest to square, e.g. 16 -> (4, 4),
    8 -> (2, 4), 2 -> (1, 2).
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    best = (1, num_nodes)
    for rows in range(1, int(math.isqrt(num_nodes)) + 1):
        if num_nodes % rows == 0:
            best = (rows, num_nodes // rows)
    return best


class TorusNetwork:
    """Hop-latency model of a 2D torus with ``num_nodes`` nodes."""

    def __init__(self, num_nodes: int, config: NocConfig):
        self.num_nodes = num_nodes
        self.config = config
        self.rows, self.cols = grid_shape(num_nodes)
        self.messages = 0
        self.total_hops = 0
        # The topology is static, so hop distances and latencies are
        # precomputed once for the fast kernel -- the event loops and
        # MemoryHierarchy.access_data -- which index the tables
        # directly.  latency() keeps the arithmetic form: it serves the
        # reference hierarchy, so a wrong table diverges the kernels,
        # and SLICC's migrations, one call per migration.
        self._hops = [
            [self.hop_distance(src, dst) for dst in range(num_nodes)]
            for src in range(num_nodes)
        ]
        self._latency = [
            [hops * config.hop_latency + config.router_latency
             for hops in row]
            for row in self._hops
        ]

    def coordinates(self, node: int) -> Tuple[int, int]:
        """(row, col) of a node."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return divmod(node, self.cols)

    def hop_distance(self, src: int, dst: int) -> int:
        """Wrap-around Manhattan distance between two nodes."""
        r1, c1 = self.coordinates(src)
        r2, c2 = self.coordinates(dst)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        dr = min(dr, self.rows - dr)
        dc = min(dc, self.cols - dc)
        return dr + dc

    def latency(self, src: int, dst: int) -> int:
        """One-way message latency in cycles; records traffic stats."""
        hops = self.hop_distance(src, dst)
        self.messages += 1
        self.total_hops += hops
        return hops * self.config.hop_latency \
            + self.config.router_latency

    @property
    def mean_hops(self) -> float:
        """Average hops per message so far."""
        if not self.messages:
            return 0.0
        return self.total_hops / self.messages
