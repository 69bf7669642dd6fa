"""The telemetry collector: one object owning spans, metrics, and ledgers.

A :class:`TelemetryCollector` is what :func:`repro.telemetry.install` puts
in the process-wide slot.  It owns

* the closed-span list and the per-thread open-span stacks
  (:mod:`repro.telemetry.spans`);
* a :class:`~repro.telemetry.metrics.MetricsRegistry`;
* the RNG-draw totals fed by :class:`~repro.telemetry.rngcount.CountingGenerator`
  instances it hands out;
* the per-phase CONGEST ledger (batches / messages / words / rounds),
  written by :meth:`TelemetryCollector.record_congest` from the one charge
  site of every :class:`~repro.congest.network.CongestClique` built while
  this collector is installed.

``snapshot()`` renders everything as plain dicts under the versioned
``repro.telemetry/v1`` schema; nothing in the snapshot references live
objects, so it can be json-dumped verbatim (the CLI's ``--trace``).
"""

from __future__ import annotations

import threading
import time
from typing import Hashable, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.rngcount import CountingGenerator, counting_generator
from repro.telemetry.spans import Span, SpanRecord, new_id_counter

#: Snapshot schema identifier and version — bump together when the shape
#: of ``snapshot()`` changes incompatibly.
SCHEMA = "repro.telemetry/v1"
TELEMETRY_VERSION = 1


class TelemetryCollector:
    """Process-local telemetry sink (spans + metrics + RNG + congest)."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.records: list[SpanRecord] = []
        self.rng_calls = 0
        self.rng_draws = 0
        self.unattributed_rng_calls = 0
        self.unattributed_rng_draws = 0
        self.congest: dict[str, dict] = {}
        self.worker_summaries: list[dict] = []
        self._ids = new_id_counter(1)
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record_span(self, record: SpanRecord) -> None:
        self.records.append(record)  # list.append is GIL-atomic

    def span(self, name: str, attrs: Optional[dict] = None) -> Span:
        """A new (unopened) span; use as a context manager."""
        return Span(self, name, attrs)

    def current_span(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def open_spans(self) -> int:
        """Open spans on the *calling* thread (snapshot diagnostics)."""
        return len(self._stack())

    # -- RNG accounting ----------------------------------------------------

    def record_draws(self, calls: int, draws: int) -> None:
        """Charge ``calls`` generator calls / ``draws`` variates to the
        calling thread's innermost open span (or the unattributed bucket)."""
        self.rng_calls += calls
        self.rng_draws += draws
        stack = self._stack()
        if stack:
            span = stack[-1]
            span.rng_calls += calls
            span.rng_draws += draws
        else:
            self.unattributed_rng_calls += calls
            self.unattributed_rng_draws += draws

    def counting_generator(self, seed: Optional[int] = None) -> CountingGenerator:
        """A stream-identical counting generator reporting to this collector."""
        return counting_generator(seed, self)

    # -- CONGEST ledger ----------------------------------------------------

    def record_congest(
        self, phase: Hashable, num_messages: int, total_words: int, rounds: float,
    ) -> None:
        """Add one charge to ``phase``'s congest entry (one batch)."""
        entry = self.congest.get(phase)
        if entry is None:
            entry = {"batches": 0, "messages": 0, "words": 0, "rounds": 0.0}
            self.congest[phase] = entry
        entry["batches"] += 1
        entry["messages"] += num_messages
        entry["words"] += total_words
        entry["rounds"] += rounds

    # -- worker merge ------------------------------------------------------

    def merge_worker(self, summary: dict) -> None:
        """Fold one worker-process telemetry summary into this collector.

        Mirrors the PR-9 fault-count merge: workers run under their own
        collector, ship a compact summary (``pid``, rolled-up ``phases``,
        ``rng`` totals, ``congest`` ledger) back with their result payload,
        and the parent appends it here.  Summaries are kept separate from
        the parent's own spans — :func:`repro.telemetry.report.phase_breakdown`
        folds them in, while the span/RNG consistency checks keep operating
        on parent-process data only.
        """
        self.worker_summaries.append(dict(summary))

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The whole collector as plain dicts (versioned, json-safe)."""
        return {
            "schema": SCHEMA,
            "version": TELEMETRY_VERSION,
            "spans": [record.as_dict() for record in self.records],
            "open_spans": self.open_spans,
            "metrics": self.metrics.snapshot(),
            "rng": {
                "calls": self.rng_calls,
                "draws": self.rng_draws,
                "unattributed_calls": self.unattributed_rng_calls,
                "unattributed_draws": self.unattributed_rng_draws,
            },
            "congest": {
                str(phase): dict(entry) for phase, entry in self.congest.items()
            },
            "workers": [dict(summary) for summary in self.worker_summaries],
        }
