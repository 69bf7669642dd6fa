"""Protocol tracing: structured per-delivery records of what moved where.

Attach a :class:`Tracer` to a :class:`~repro.congest.network.CongestClique`
and every delivery/broadcast appends a :class:`TraceEvent` — message count,
word volume, the max per-node source/destination loads the router charged
for, and the resulting rounds; an analytic ``charge_local`` appends a
``"local"`` event with rounds only, so the events' rounds add up to the
ledger total.  The trace is how experiments answer "where
did the congestion come from": load histograms per phase, imbalance
factors, and cumulative round curves.

Tracing is strictly observational: it never changes round charges or
delivery semantics, and the default (no tracer) costs one attribute check
per delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One routed batch, broadcast, or analytic local charge."""

    phase: str
    kind: str                 # "deliver", "broadcast" or "local"
    num_messages: int
    total_words: int
    max_src_load: int
    max_dst_load: int
    rounds: float


class Tracer:
    """Collects :class:`TraceEvent` records for one network."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.events: list[TraceEvent] = []

    def record(
        self,
        phase: str,
        kind: str,
        num_messages: int,
        total_words: int,
        max_src_load: int,
        max_dst_load: int,
        rounds: float,
    ) -> None:
        self.events.append(
            TraceEvent(
                phase=phase,
                kind=kind,
                num_messages=num_messages,
                total_words=total_words,
                max_src_load=max_src_load,
                max_dst_load=max_dst_load,
                rounds=rounds,
            )
        )

    # -- queries ---------------------------------------------------------

    def phases(self) -> list[str]:
        """Distinct phases in first-seen order."""
        seen: list[str] = []
        for event in self.events:
            if event.phase not in seen:
                seen.append(event.phase)
        return seen

    def events_for(self, phase: str) -> list[TraceEvent]:
        return [event for event in self.events if event.phase == phase]

    def total_words(self, phase: Optional[str] = None) -> int:
        events = self.events if phase is None else self.events_for(phase)
        return sum(event.total_words for event in events)

    def total_rounds(self, phase: Optional[str] = None) -> float:
        events = self.events if phase is None else self.events_for(phase)
        return sum(event.rounds for event in events)

    def imbalance(self, phase: str) -> float:
        """Hot-spot factor of a phase: max per-node load over the balanced
        load ``total_words / n`` (≥ 1 up to rounding; the router's round
        charge is proportional to this)."""
        events = self.events_for(phase)
        total = sum(event.total_words for event in events)
        if total == 0:
            return 1.0
        worst = max(
            max(event.max_src_load, event.max_dst_load) for event in events
        )
        balanced = total / self.num_nodes
        return worst / max(balanced, 1e-12)

    def summary_rows(self) -> list[list[object]]:
        """Per-phase rows: phase, batches, messages, words, max load, rounds."""
        rows: list[list[object]] = []
        for phase in self.phases():
            events = self.events_for(phase)
            rows.append(
                [
                    phase,
                    len(events),
                    sum(event.num_messages for event in events),
                    sum(event.total_words for event in events),
                    max(
                        max(event.max_src_load, event.max_dst_load)
                        for event in events
                    ),
                    sum(event.rounds for event in events),
                ]
            )
        return rows

    def summary(self) -> str:
        """Human-readable per-phase traffic table."""
        from repro.analysis.report import format_table

        return format_table(
            ["phase", "batches", "messages", "words", "max load", "rounds"],
            self.summary_rows(),
            title=f"traffic trace (n={self.num_nodes})",
        )

    def __len__(self) -> int:
        return len(self.events)
