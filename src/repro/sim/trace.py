"""Structured tracing and message accounting for simulations.

Every network send, RPC call, protocol decision, and fault event can be
recorded in a :class:`TraceLog`.  The analysis modules
(:mod:`repro.analysis.traffic`, :mod:`repro.analysis.load`) consume these
records to compute message-traffic and load-sharing statistics, and the
consistency checker replays recorded operation histories.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """A single trace entry.

    Attributes
    ----------
    time:
        Simulation time of the event.
    kind:
        A short category string, e.g. ``"send"``, ``"rpc-call"``,
        ``"node-crash"``, ``"write-commit"``.
    node:
        The node the event is attributed to (may be ``None`` for global
        events such as partition changes).
    detail:
        Free-form payload describing the event.
    """

    time: float
    kind: str
    node: Optional[str]
    detail: dict = field(default_factory=dict)


class TraceLog:
    """An append-only event log with simple query helpers.

    Besides storage, the log acts as an event bus: observers registered
    with :meth:`subscribe` see every record *synchronously, at the instant
    it is recorded* -- even while ``enabled`` is False and nothing is
    stored.  The chaos nemesis uses this to crash nodes at adversarial
    protocol instants (e.g. between a coordinator's decision record and
    its commit wave) without the protocol code knowing it is observed.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[TraceRecord] = []
        self._counters: Counter = Counter()
        self._observers: list[Callable[[TraceRecord], None]] = []

    def subscribe(self, observer: Callable[[TraceRecord], None]) -> None:
        """Call *observer* with every future record, synchronously."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[TraceRecord], None]) -> None:
        """Stop notifying *observer*; unknown observers are a no-op."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    @property
    def active(self) -> bool:
        """True iff a record would be stored or shown to an observer.

        Producers check this before computing costly record fields (the
        network's message sizes) that nobody would otherwise see.
        """
        return self.enabled or bool(self._observers)

    def record(self, time: float, kind: str, node: Optional[str] = None,
               **detail: Any) -> None:
        """Append one record (cheap no-op when tracing is disabled)."""
        self._counters[kind] += 1
        if not self.active:
            return
        rec = TraceRecord(time, kind, node, detail)
        if self.enabled:
            self.records.append(rec)
        for observer in tuple(self._observers):
            observer(rec)

    def tally(self, kind: str) -> None:
        """Count one record of *kind* without building it: the cheap
        path for producers that found the log not :attr:`active`."""
        self._counters[kind] += 1

    def count(self, kind: str) -> int:
        """Number of records of the given kind (counted even if disabled)."""
        return self._counters[kind]

    def counts(self) -> dict[str, int]:
        """All per-kind counters."""
        return dict(self._counters)

    def select(self, kind: Optional[str] = None,
               node: Optional[str] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None,
               ) -> list[TraceRecord]:
        """Records matching all the given filters."""
        return list(self.iter_select(kind=kind, node=node, predicate=predicate))

    def iter_select(self, kind: Optional[str] = None,
                    node: Optional[str] = None,
                    predicate: Optional[Callable[[TraceRecord], bool]] = None,
                    ) -> Iterator[TraceRecord]:
        """Lazily iterate records matching the filters."""
        for rec in self.records:
            if kind is not None and rec.kind != kind:
                continue
            if node is not None and rec.node != node:
                continue
            if predicate is not None and not predicate(rec):
                continue
            yield rec

    def clear(self) -> None:
        """Drop all records and counters."""
        self.records.clear()
        self._counters.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def format(self, records: Optional[Iterable[TraceRecord]] = None) -> str:
        """Human-readable rendering, mainly for debugging failed tests."""
        lines = []
        for rec in (self.records if records is None else records):
            where = f" @{rec.node}" if rec.node else ""
            detail = " ".join(f"{k}={v!r}" for k, v in rec.detail.items())
            lines.append(f"[{rec.time:12.6f}] {rec.kind:<20}{where:<12} {detail}")
        return "\n".join(lines)
