"""System configuration for the STREX reproduction.

The dataclasses here mirror Table 2 of the paper (the simulated CMP) plus
the knobs that govern STREX, SLICC, the hybrid selector, and the synthetic
workload scale.  Two presets are provided:

* :func:`paper_scale` -- the paper's parameters (32 KiB L1, 1 MiB/core L2).
* :func:`default_scale` -- a proportionally scaled-down system (8 KiB L1)
  used by the test-suite and benchmark harness so that pure-Python runs
  finish in seconds.  All footprints are expressed in *L1-size units*, so
  the miss behaviour that the paper's evaluation depends on is preserved.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


BLOCK_SIZE = 64
"""Cache block size in bytes (fixed; the paper uses 64 B everywhere)."""

BLOCK_SHIFT = 6
"""log2(BLOCK_SIZE); addresses are converted to blocks via ``addr >> 6``."""


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of a single cache.

    Attributes:
        size_bytes: total capacity in bytes.
        assoc: number of ways per set.
        block_bytes: line size in bytes.
        hit_latency: load-to-use latency in cycles.
        replacement: policy name registered in ``repro.cache.replacement``.
    """

    size_bytes: int
    assoc: int = 8
    block_bytes: int = BLOCK_SIZE
    hit_latency: int = 3
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.block_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.assoc * self.block_bytes) != 0:
            raise ValueError(
                "size_bytes must be a multiple of assoc * block_bytes"
            )
        if self.hit_latency < 0:
            raise ValueError("hit_latency must be >= 0")

    @property
    def num_blocks(self) -> int:
        """Total number of blocks the cache can hold."""
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_blocks // self.assoc


@dataclass(frozen=True)
class MemoryConfig:
    """DDR3-lite DRAM timing (Table 2, Memory row).

    The paper lists full DDR3-1600 timing; we keep the parameters that
    matter at block-run granularity: a base access latency plus row-buffer
    effects across a small number of banks.
    """

    base_latency: int = 105  # ~42 ns at 2.5 GHz
    row_hit_latency: int = 55
    num_channels: int = 2
    num_banks: int = 8
    row_bytes: int = 8192
    open_page: bool = True

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.row_hit_latency < 0:
            raise ValueError("DRAM latencies must be >= 0")
        if self.num_channels <= 0 or self.num_banks <= 0 \
                or self.row_bytes <= 0:
            raise ValueError("DRAM geometry must be positive")


@dataclass(frozen=True)
class NocConfig:
    """2D torus interconnect (Table 2, Interconnect row)."""

    hop_latency: int = 1
    router_latency: int = 0

    def __post_init__(self) -> None:
        if self.hop_latency < 0 or self.router_latency < 0:
            raise ValueError("NoC latencies must be >= 0")


@dataclass(frozen=True)
class StrexConfig:
    """STREX mechanism parameters (Sections 4.2--4.3).

    Attributes:
        team_size: maximum transactions per team (thread-queue depth).
        window: team-formation search window (paper: 30 in-flight txns).
        phase_bits: width of the phaseID tag / counter (paper: 8).
        context_switch_cycles: cost of one save+restore via the local L2
            slice.
        min_progress_events: forward-progress floor, in instruction-block
            visits, before a context switch is honoured.  Section 4.4.2:
            "An implementation may choose to enforce a minimum number of
            instructions or cycles that a transaction ought to execute
            before a context switch is allowed."  ``None`` (the default)
            auto-sizes it to one L1-I's worth of block visits, which lets
            followers absorb divergence misses and replay a full phase
            segment per turn; 0 disables the floor.
    """

    team_size: int = 10
    window: int = 30
    phase_bits: int = 8
    context_switch_cycles: int = 120
    min_progress_events: int | None = None

    def __post_init__(self) -> None:
        if self.team_size <= 0 or self.window <= 0:
            raise ValueError("team_size and window must be positive")
        if not 1 <= self.phase_bits <= 30:
            raise ValueError("phase_bits must be in [1, 30]")
        if self.context_switch_cycles < 0:
            raise ValueError("context_switch_cycles must be >= 0")
        if self.min_progress_events is not None \
                and self.min_progress_events < 0:
            raise ValueError("min_progress_events must be >= 0 or None")

    @property
    def phase_modulo(self) -> int:
        """Modulus of the phaseID counter (2**phase_bits)."""
        return 1 << self.phase_bits


@dataclass(frozen=True)
class SliccConfig:
    """SLICC migration parameters (modelled after Atta et al., MICRO'12).

    Attributes:
        miss_window: validated but read by nothing.  The burst window
            is :attr:`repro.sched.slicc.SliccScheduler.SLICE_EVENTS`
            (64 events): a slice ends after that many events or after
            ``miss_threshold`` misses, whichever comes first.  The field
            stays because saved configs (the fuzz corpus) carry it.
        miss_threshold: misses within the window that signal a new segment.
        migration_cycles: cost of migrating a context between cores.
        signature_match: fraction of recent missed blocks that must hit in
            a remote core's signature to justify migrating there.
        team_factor: SLICC forms teams of up to ``team_factor * cores``
            threads (paper: 2N).
        cooldown_events: block visits a thread must execute after a
            migration before the burst detector re-arms (suppresses
            ping-pong between cores holding interleaved region copies).
    """

    miss_window: int = 16
    miss_threshold: int = 4
    migration_cycles: int = 50
    signature_match: float = 0.5
    team_factor: int = 2
    cooldown_events: int = 24

    def __post_init__(self) -> None:
        if self.miss_window <= 0 or self.miss_threshold <= 0 \
                or self.team_factor <= 0:
            raise ValueError(
                "miss_window, miss_threshold and team_factor must be "
                "positive"
            )
        if self.migration_cycles < 0 or self.cooldown_events < 0:
            raise ValueError(
                "migration_cycles and cooldown_events must be >= 0"
            )
        if not 0.0 <= self.signature_match <= 1.0:
            raise ValueError("signature_match must be in [0, 1]")


@dataclass(frozen=True)
class HybridConfig:
    """STREX+SLICC hybrid selector (Section 5.5).

    The FPTable stores the mean instruction footprint of each transaction
    type in L1-I size units.  SLICC is selected when the available core
    count covers the footprint of the scheduled transaction types.
    """

    profile_fraction: float = 0.002
    slack_units: int = 0


@dataclass(frozen=True)
class CoreConfig:
    """Timing model of one core (Table 2, Processing Cores row).

    The paper simulates 6-wide OoO cores; we use a flat base CPI plus
    per-miss stalls (see DESIGN.md, decision 4).

    Attributes:
        base_cpi: cycles per instruction with all caches hitting.
        frequency_ghz: clock (Table 2: 2.5 GHz).
        covered_stall_fraction: fraction of the L2 round trip charged
            for an instruction miss that a prefetcher covered -- the
            paper's PIF model still "generates demand traffic for cache
            blocks that would have otherwise missed, thus partially
            modeling the contention"; this is that contention charge.
    """

    base_cpi: float = 0.3
    frequency_ghz: float = 2.5
    covered_stall_fraction: float = 0.60

    def __post_init__(self) -> None:
        if self.base_cpi <= 0 or self.frequency_ghz <= 0:
            raise ValueError("base_cpi and frequency_ghz must be "
                             "positive")
        if not 0.0 <= self.covered_stall_fraction <= 1.0:
            raise ValueError(
                "covered_stall_fraction must be in [0, 1]"
            )


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated-system description."""

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024))
    l2_slice: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            1024 * 1024, assoc=16, hit_latency=16
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    strex: StrexConfig = field(default_factory=StrexConfig)
    slicc: SliccConfig = field(default_factory=SliccConfig)
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    seed: int = 1013

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")

    def with_cores(self, num_cores: int) -> "SystemConfig":
        """Return a copy of this config with a different core count."""
        return dataclasses.replace(self, num_cores=num_cores)

    def with_strex(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with updated STREX parameters."""
        return dataclasses.replace(
            self, strex=dataclasses.replace(self.strex, **kwargs)
        )

    def with_l1_replacement(self, policy: str) -> "SystemConfig":
        """Return a copy with a different L1 replacement policy."""
        return dataclasses.replace(
            self,
            l1i=dataclasses.replace(self.l1i, replacement=policy),
            l1d=dataclasses.replace(self.l1d, replacement=policy),
        )

    def to_dict(self) -> dict:
        """Plain-dict form (nested, JSON-serializable).

        The dict is the canonical serialized form of a configuration:
        `repro.exp` hashes it (with sorted keys) to derive
        content-addressed cache keys, so equal configs always produce
        equal dicts.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Rebuild a :class:`SystemConfig` from :meth:`to_dict` output.

        Unknown keys are rejected (they would silently change the
        meaning of a cache key); missing keys fall back to defaults.
        """
        nested = {
            "core": CoreConfig,
            "l1i": CacheConfig,
            "l1d": CacheConfig,
            "l2_slice": CacheConfig,
            "memory": MemoryConfig,
            "noc": NocConfig,
            "strex": StrexConfig,
            "slicc": SliccConfig,
            "hybrid": HybridConfig,
        }
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SystemConfig keys: {sorted(unknown)}")
        kwargs = {}
        for name, value in data.items():
            sub = nested.get(name)
            kwargs[name] = sub(**value) if sub is not None else value
        return cls(**kwargs)

    @property
    def l1i_blocks(self) -> int:
        """Blocks per L1-I; one *footprint unit* is this many blocks."""
        return self.l1i.num_blocks


def paper_scale(num_cores: int = 4, **kwargs: object) -> SystemConfig:
    """The paper's Table 2 system: 32 KiB L1s, 1 MiB/core NUCA L2."""
    return SystemConfig(num_cores=num_cores, **kwargs)


def default_scale(num_cores: int = 4, **kwargs: object) -> SystemConfig:
    """Scaled-down system used by tests and benches: 8 KiB L1s.

    Footprints are defined in L1-size units, so miss behaviour relative to
    the cache is the same while traces are 4x shorter.
    """
    return SystemConfig(
        num_cores=num_cores,
        l1i=CacheConfig(8 * 1024),
        l1d=CacheConfig(8 * 1024),
        l2_slice=CacheConfig(256 * 1024, assoc=16, hit_latency=16),
        **kwargs,
    )


def tiny_scale(num_cores: int = 2, **kwargs: object) -> SystemConfig:
    """Very small system for unit tests: 2 KiB L1s (32 blocks)."""
    return SystemConfig(
        num_cores=num_cores,
        l1i=CacheConfig(2 * 1024, assoc=4),
        l1d=CacheConfig(2 * 1024, assoc=4),
        l2_slice=CacheConfig(32 * 1024, assoc=8, hit_latency=16),
        **kwargs,
    )


#: Named scale presets, as selectable from `RunSpec`/CLI (`--scale`).
SCALES = {
    "paper": paper_scale,
    "default": default_scale,
    "tiny": tiny_scale,
}
