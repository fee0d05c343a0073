"""Message-traffic accounting from simulation traces.

Counts network messages attributable to client operations, giving the
messages-per-operation figures used by the partial-write experiment (E7):
our protocol's quorum-sized writes plus delta propagation versus the
write-all and voting alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.history import History
from repro.sim.trace import TraceLog


@dataclass
class TrafficReport:
    """Messages, bytes, and operation counts for one workload run."""

    total_messages: int
    delivered: int
    dropped: int
    reads: int
    writes: int
    propagation_messages: int
    total_bytes: int = 0

    @property
    def operations(self) -> int:
        """Total number of operations."""
        return self.reads + self.writes

    @property
    def messages_per_operation(self) -> float:
        """Average network messages per operation."""
        return self.total_messages / self.operations if self.operations \
            else 0.0

    @property
    def bytes_per_operation(self) -> float:
        """Average wire bytes per operation."""
        return self.total_bytes / self.operations if self.operations \
            else 0.0

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.total_messages} msgs / {self.operations} ops "
                f"= {self.messages_per_operation:.1f} per op, "
                f"{self.bytes_per_operation:.0f} B per op "
                f"({self.propagation_messages} for propagation)")


def message_traffic(trace: TraceLog, history: History) -> TrafficReport:
    """Aggregate a trace + history into a :class:`TrafficReport`.

    Requires the store to have been built with ``trace_enabled=True``:
    byte counts exist only in stored ``send`` records, so a disabled
    trace raises :class:`ValueError` rather than report 0 bytes.
    """
    if not trace.enabled:
        raise ValueError("message_traffic needs an enabled trace: build the "
                         "store with trace_enabled=True (byte counts exist "
                         "only in stored send records)")
    propagation = (trace.count("propagation-shipped")
                   + trace.count("propagation-gave-up"))
    reads = sum(1 for op in history.operations
                if op.kind == "read" and op.completed)
    writes = sum(1 for op in history.operations
                 if op.kind == "write" and op.completed)
    total_bytes = sum(rec.detail.get("bytes", 0)
                      for rec in trace.iter_select(kind="send"))
    return TrafficReport(
        total_messages=trace.count("send"),
        delivered=trace.count("deliver"),
        dropped=trace.count("drop"),
        reads=reads,
        writes=writes,
        propagation_messages=propagation,
        total_bytes=total_bytes,
    )
