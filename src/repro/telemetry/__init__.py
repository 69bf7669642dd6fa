"""Unified telemetry plane: spans, metrics, and RNG-draw accounting.

One process-wide slot holds at most one
:class:`~repro.telemetry.collector.TelemetryCollector`.  When the slot is
empty (the default), every instrumented site costs exactly one attribute
check — :func:`span` returns the shared no-op span and :func:`active`
returns ``None`` — and nothing else in this package runs.  When a
collector is installed (CLI ``--trace``/``--verbose``, the benchmark
conftest, or :func:`collect` in tests), the same sites record a nested
wall-time span tree, dotted-name metrics, per-phase CONGEST round/word
ledgers, and RNG draw counts.

Instrumentation is strictly observational: attaching a collector never
changes RNG streams (counting generators forward to the identical base
implementation) or round charges (a network reports each charge to the
collector after writing it to its own ledger).  The e17 benchmark and the
telemetry integration tests enforce both properties.

Typical use::

    with telemetry.collect() as col:
        solver.solve(graph)
    data = col.snapshot()          # plain dicts, json-safe, versioned

and at an instrumented site::

    with telemetry.span("compute_pairs.step2", n=n):
        ...
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import TelemetryError
from repro.telemetry.collector import SCHEMA, TELEMETRY_VERSION, TelemetryCollector
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.rngcount import CountingGenerator, counting_generator
from repro.telemetry.spans import NOOP_SPAN, NoopSpan, Span, SpanRecord

__all__ = [
    "SCHEMA",
    "TELEMETRY_VERSION",
    "DEFAULT_LATENCY_BUCKETS",
    "TelemetryCollector",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "CountingGenerator",
    "counting_generator",
    "Span",
    "SpanRecord",
    "NoopSpan",
    "NOOP_SPAN",
    "install",
    "uninstall",
    "active",
    "collect",
    "span",
    "snapshot",
]


class _Runtime:
    """The process-wide collector slot (install/uninstall under a lock;
    reads are a single attribute load on the hot path)."""

    __slots__ = ("collector", "lock")

    def __init__(self) -> None:
        self.collector: Optional[TelemetryCollector] = None
        self.lock = threading.Lock()


_RUNTIME = _Runtime()


def install(collector: Optional[TelemetryCollector] = None) -> TelemetryCollector:
    """Install ``collector`` (a fresh one if ``None``) as the process
    collector and return it.  Installing over an existing collector is an
    error — uninstall first (nested collection would silently split data).
    """
    with _RUNTIME.lock:
        if _RUNTIME.collector is not None:
            raise TelemetryError("a telemetry collector is already installed")
        if collector is None:
            collector = TelemetryCollector()
        _RUNTIME.collector = collector
        return collector


def uninstall() -> Optional[TelemetryCollector]:
    """Remove and return the installed collector (``None`` if absent)."""
    with _RUNTIME.lock:
        collector = _RUNTIME.collector
        _RUNTIME.collector = None
        return collector


def active() -> Optional[TelemetryCollector]:
    """The installed collector, or ``None`` — the one-attribute-check gate
    every instrumented site starts from."""
    return _RUNTIME.collector


@contextmanager
def collect(
    collector: Optional[TelemetryCollector] = None,
) -> Iterator[TelemetryCollector]:
    """Install a collector for the duration of the ``with`` block."""
    installed = install(collector)
    try:
        yield installed
    finally:
        with _RUNTIME.lock:
            if _RUNTIME.collector is installed:
                _RUNTIME.collector = None


def span(name: str, **attrs):
    """A span under the installed collector, or the shared no-op span.

    The disabled path is one attribute check plus this call; instrumented
    sites therefore read ``with telemetry.span("..."): ...`` with no
    branching of their own.
    """
    collector = _RUNTIME.collector
    if collector is None:
        return NOOP_SPAN
    return collector.span(name, attrs if attrs else None)


def snapshot() -> dict:
    """The installed collector's snapshot (plain dicts, json-safe)."""
    collector = _RUNTIME.collector
    if collector is None:
        raise TelemetryError("no telemetry collector installed")
    return collector.snapshot()
