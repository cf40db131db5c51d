"""Block-run execution traces."""

from repro.trace.trace import TraceBuilder, TransactionTrace

__all__ = ["TraceBuilder", "TransactionTrace"]
