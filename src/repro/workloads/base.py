"""Workload framework: transaction types, actions, and trace generation.

A :class:`TransactionType` is a named flow of *actions* (Fig. 1): each
action executes its own small wrapper code region and then calls storage
-manager basic functions.  Wrapper sizes are calibrated so that the
type's total instruction footprint -- shared basic-function code plus all
wrapper code -- matches the paper's Table 3 value in L1-I size units.

A :class:`Workload` owns the database, the code layout, and a set of
transaction types, and generates :class:`TransactionTrace` objects for
randomly parameterized transaction instances.  Traces are produced
serially (the paper likewise replays pre-collected traces) and replayed
concurrently by the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.db.codemap import (
    CodeLayout,
    CodeRegion,
    PrivateContext,
    TraceRecorder,
)
from repro.db.engine import BASIC_FUNCTION_UNITS, Database, StorageManager
from repro.trace.trace import TraceBuilder, TransactionTrace


@dataclass
class TransactionTypeSpec:
    """Static description of one transaction type.

    Attributes:
        name: type name (e.g. ``"NewOrder"``).
        target_units: Table 3 instruction footprint in L1-I units (for
            validation; the design footprint is the shared basic-function
            code this type calls plus its wrapper regions).
        wrappers: action-wrapper label -> size in L1-I units.  Wrapper
            labels are *workload-scoped*: two types listing the same
            label share the same code region -- this is the cross-type
            code overlap of Section 2.1/Fig. 1 ("New Order and Payment
            transactions perform index lookups on the same tables...
            their code paths are similar at first").
        basic_functions: names of shared basic-function regions this type
            exercises (for the design-footprint arithmetic).
        body: ``body(sm, ctx, rng, wrappers)`` runs the transaction logic
            against a :class:`StorageManager`.
    """

    name: str
    target_units: float
    wrappers: Dict[str, float]
    basic_functions: Sequence[str]
    body: Callable[..., None]

    def shared_units(self) -> float:
        """Footprint contributed by shared basic functions."""
        return sum(BASIC_FUNCTION_UNITS[f] for f in self.basic_functions)

    def design_units(self) -> float:
        """Design footprint: basic functions + all wrapper regions."""
        return self.shared_units() + sum(self.wrappers.values())


class TransactionType:
    """A spec bound to a workload's code layout (regions allocated)."""

    def __init__(self, spec: TransactionTypeSpec, workload_name: str,
                 layout: CodeLayout):
        self.spec = spec
        self.name = spec.name
        self.wrappers: Dict[str, CodeRegion] = {
            wrapper: layout.allocate(f"{workload_name}.{wrapper}", units)
            for wrapper, units in spec.wrappers.items()
        }

    def execute(self, sm: StorageManager, ctx: "TxnContext",
                rng: random.Random) -> None:
        """Run the transaction body."""
        self.spec.body(sm, ctx, rng, self.wrappers)


@dataclass
class TxnContext:
    """Per-instance transaction parameters chosen by the workload."""

    txn_id: int
    params: Dict[str, object] = field(default_factory=dict)


class Workload:
    """Base class for TPC-C / TPC-E / MapReduce workload suites.

    Subclasses populate the database in ``_build_schema`` and register
    transaction types in ``_build_types``; they also implement
    ``_make_context`` to draw per-instance parameters.

    Args:
        name: workload label (Table 1).
        blocks_per_unit: L1-I blocks per footprint unit
            (``SystemConfig.l1i_blocks``).
        seed: RNG seed for schema population and instance parameters.
    """

    #: Relative frequency of each transaction type in the default mix.
    MIX: Dict[str, float] = {}

    #: Whether instances run the transactional begin/commit path.
    #: MapReduce tasks are not database transactions and skip it.
    USES_TRANSACTIONS = True

    #: Private stack/buffer blocks per transaction instance.  Small, so
    #: that a whole STREX team's stacks coexist in one L1-D (architectural
    #: state itself is saved to the L2 on a context switch -- Section
    #: 4.4.2 -- so only the hot top-of-stack stays L1-resident).
    STACK_BLOCKS = 2

    #: Per-transaction scratch, as a multiple of the L1-D capacity: the
    #: cycle must exceed the cache at *any* scale so these accesses
    #: stream and miss under every scheduler; they set the baseline
    #: D-MPKI floor.
    SCRATCH_L1D_FACTOR = 1.5

    def __init__(self, name: str, blocks_per_unit: int, seed: int = 1013):
        self.name = name
        self.layout = CodeLayout(blocks_per_unit)
        self.db = Database(name, self.layout)
        self.rng = random.Random(seed)
        self.types: Dict[str, TransactionType] = {}
        self._next_txn_id = 0
        self._build_schema()
        self._build_types()

    # -- subclass hooks -------------------------------------------------
    def _build_schema(self) -> None:
        raise NotImplementedError

    def _build_types(self) -> None:
        raise NotImplementedError

    def _make_context(self, type_name: str, txn_id: int,
                      rng: random.Random) -> TxnContext:
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------
    def register(self, spec: TransactionTypeSpec) -> None:
        """Bind a type spec to this workload's layout."""
        self.types[spec.name] = TransactionType(spec, self.name,
                                                self.layout)

    def type_names(self) -> List[str]:
        """Registered transaction type names."""
        return list(self.types)

    def generate_trace(self, type_name: str,
                       seed: Optional[int] = None) -> TransactionTrace:
        """Generate the trace of one new transaction instance."""
        txn_type = self.types[type_name]
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        rng = random.Random(
            seed if seed is not None else self.rng.randrange(2**31)
        )
        builder = TraceBuilder(txn_id, type_name)
        stack = PrivateContext(
            self.db.space.allocate("stacks", self.STACK_BLOCKS),
            self.STACK_BLOCKS,
        )
        scratch_blocks = int(self.SCRATCH_L1D_FACTOR
                             * self.layout.blocks_per_unit)
        scratch = PrivateContext(
            self.db.space.allocate("scratch", scratch_blocks),
            scratch_blocks,
        )
        recorder = TraceRecorder(builder, rng, context=stack,
                                 scratch=scratch)
        sm = StorageManager(self.db, txn_id, recorder, rng)
        ctx = self._make_context(type_name, txn_id, rng)
        if self.USES_TRANSACTIONS:
            sm.begin()
            txn_type.execute(sm, ctx, rng)
            sm.commit()
        else:
            txn_type.execute(sm, ctx, rng)
        return builder.build()

    def generate_mix(self, count: int,
                     mix: Optional[Dict[str, float]] = None,
                     seed: Optional[int] = None) -> List[TransactionTrace]:
        """Generate ``count`` traces drawn from a type mix."""
        mix = mix or self.MIX
        if not mix:
            raise ValueError("no mix defined for this workload")
        rng = random.Random(seed if seed is not None else
                            self.rng.randrange(2**31))
        names = list(mix)
        weights = [mix[n] for n in names]
        traces = []
        for _ in range(count):
            type_name = rng.choices(names, weights=weights)[0]
            traces.append(self.generate_trace(
                type_name, seed=rng.randrange(2**31)))
        return traces

    def generate_uniform(self, type_name: str, count: int,
                         seed: Optional[int] = None
                         ) -> List[TransactionTrace]:
        """Generate ``count`` instances of one type."""
        rng = random.Random(seed if seed is not None else
                            self.rng.randrange(2**31))
        return [
            self.generate_trace(type_name, seed=rng.randrange(2**31))
            for _ in range(count)
        ]
