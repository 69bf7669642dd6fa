"""Persistent worker pool dispatching columnar tasks against a shared arena.

A :class:`ClassDispatcher` owns one ``ProcessPoolExecutor`` for the
lifetime of a batch sweep and farms contiguous chunks of the sweep's graph
range to it (:func:`repro.parallel.sweeps.solve_weights_batch`).  A
``compute_pairs`` solve runs in-process: only its batched search loop
(about 6% of an ``n = 1024`` solve) could move to workers, and packing the
arena and starting the pool cost more than that loop.

Workers attach each arena once (a cached attach keyed by block name) and
read the columns zero-copy.  When the parent has a telemetry collector
installed, each task runs under its own worker-side collector and ships a
compact summary back with its result; the parent folds those in via
:meth:`TelemetryCollector.merge_worker`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.parallel.arena import ArenaManifest, LocalArena, ShmArena, shm_available

#: Hard cap on auto-derived worker counts.
MAX_AUTO_WORKERS = 8

#: Result-payload key carrying the worker telemetry summary.
TELEMETRY_KEY = "__telemetry__"


def default_workers(cap: int = MAX_AUTO_WORKERS) -> int:
    """Worker count derived from ``os.cpu_count()``, capped at ``cap``."""

    cores = os.cpu_count() or 1
    return max(1, min(cores, cap))


# -- worker-side state -----------------------------------------------------

#: The one arena this worker process keeps attached.  Arenas rotate between
#: batches; attaching a new one drops the previous mapping.
_WORKER_ARENA: Optional[ShmArena] = None


def _attach_worker_arena(manifest: ArenaManifest) -> ShmArena:
    global _WORKER_ARENA
    if _WORKER_ARENA is not None:
        if _WORKER_ARENA.manifest.name == manifest.name:
            return _WORKER_ARENA
        _WORKER_ARENA.close()
        _WORKER_ARENA = None
    _WORKER_ARENA = ShmArena.attach(manifest)
    return _WORKER_ARENA


def _init_worker() -> None:
    """Pool initializer: drop any telemetry collector inherited through
    ``fork`` — the worker installs its own per-task collector when the
    parent is tracing, and an inherited slot would make that install fail.
    """

    telemetry.uninstall()


def worker_summary(collector: telemetry.TelemetryCollector) -> dict:
    """Compact telemetry summary a worker ships back with its result."""

    from repro.telemetry import report as telemetry_report

    snapshot = collector.snapshot()
    return {
        "pid": os.getpid(),
        "phases": telemetry_report.rollup(snapshot),
        "rng": {
            "calls": snapshot["rng"]["calls"],
            "draws": snapshot["rng"]["draws"],
        },
        "congest": {
            phase: {"rounds": entry["rounds"], "words": entry["words"]}
            for phase, entry in snapshot["congest"].items()
        },
    }


def _run_task(
    fn: Callable[[object, object], dict],
    manifest: ArenaManifest,
    spec: object,
    collect: bool,
) -> dict:
    arena = _attach_worker_arena(manifest)
    if not collect:
        return fn(arena, spec)
    with telemetry.collect() as collector:
        result = fn(arena, spec)
    result = dict(result)
    result[TELEMETRY_KEY] = worker_summary(collector)
    return result


class ClassDispatcher:
    """Farm independent columnar tasks to a persistent worker pool.

    With ``max_workers == 1`` (or when named shared memory is unavailable)
    no pool is created and :meth:`map_arena` runs every task inline against
    the caller's arena — same code path, zero process overhead, and the
    graceful-degradation story for platforms without ``shared_memory``.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        requested = default_workers() if max_workers is None else int(max_workers)
        if requested < 1:
            raise ValueError(f"max_workers must be >= 1, got {requested}")
        if requested > 1 and not shm_available():
            requested = 1  # degrade to inline rather than pickling columns
        self.max_workers = requested
        self._pool: Optional[ProcessPoolExecutor] = None
        if self.max_workers > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_init_worker
            )

    @property
    def parallel(self) -> bool:
        """Whether tasks actually cross a process boundary."""

        return self._pool is not None

    def make_arena(self, arrays) -> ShmArena | LocalArena:
        """An arena suited to this dispatcher: shared when parallel, local
        (wrapping the caller's arrays directly) when inline."""

        if self.parallel:
            return ShmArena.create(arrays)
        return LocalArena(arrays)

    def map_arena(
        self,
        fn: Callable[[object, object], dict],
        arena: ShmArena | LocalArena,
        specs: Sequence[object],
    ) -> list[dict]:
        """Run ``fn(arena, spec)`` for every spec; results in spec order.

        ``fn`` must be a module-level (picklable) callable returning a dict.
        Worker telemetry summaries are stripped from the payloads and merged
        into the parent's active collector before returning.
        """

        collector = telemetry.active()
        if not self.parallel:
            # Inline: the parent collector (if any) sees the spans directly.
            return [fn(arena, spec) for spec in specs]
        manifest = arena.manifest
        collect = collector is not None
        futures = [
            self._pool.submit(_run_task, fn, manifest, spec, collect)
            for spec in specs
        ]
        results = []
        for future in futures:
            payload = future.result()
            summary = payload.pop(TELEMETRY_KEY, None) if collect else None
            if summary is not None and collector is not None:
                collector.merge_worker(summary)
            results.append(payload)
        return results

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ClassDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
