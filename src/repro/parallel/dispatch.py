"""Worker pool running columnar tasks over a batch's read-only inputs.

:class:`ClassDispatcher` is the library's one process pool, serving batch
sweeps and the job engine: a per-graph sweep farms contiguous chunks of its
graph range to it (:func:`repro.parallel.sweeps.solve_weights_batch`), and
:meth:`repro.service.jobs.JobEngine.run_pending_parallel` runs each attempt
round as one call.  The batch's input columns — its *arena* — reach every
worker once, as the pool initializer's argument: under ``fork`` the workers
inherit them without a copy, otherwise they are pickled once per worker.
Tasks return their outputs; a task lost to a dying worker or a deadline
comes back as an error value.

A ``compute_pairs`` solve runs in-process, and so does a seed-free stacked
sweep: neither gains from the pool.  When the parent has a telemetry
collector installed, each task runs under its own worker-side collector and
ships a compact summary back with its result; the parent folds those in via
:meth:`TelemetryCollector.merge_worker`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.errors import JobTimeoutError, WorkerCrashError

#: Hard cap on auto-derived worker counts.
MAX_AUTO_WORKERS = 8

#: Result-payload key carrying the worker telemetry summary.
TELEMETRY_KEY = "__telemetry__"

Arena = Mapping[str, np.ndarray]


def default_workers(cap: int = MAX_AUTO_WORKERS) -> int:
    """Worker count derived from ``os.cpu_count()``, capped at ``cap``."""

    cores = os.cpu_count() or 1
    return max(1, min(cores, cap))


def _read_only(arrays: Arena) -> dict[str, np.ndarray]:
    views = {}
    for key, array in arrays.items():
        view = np.asarray(array).view()
        view.flags.writeable = False
        views[key] = view
    return views


# -- worker-side state -----------------------------------------------------

#: The arena this worker process was started with.
_ARENA: Optional[Arena] = None


def _init_worker(arena: Arena) -> None:
    """Pool initializer: keep the batch's arena, read-only (a pickled copy
    arrives writable), and drop any telemetry collector inherited through
    ``fork`` — the worker installs its own per-task collector when the
    parent is tracing, and an inherited slot would make that install fail.
    """

    global _ARENA
    _ARENA = _read_only(arena)
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


def _run_task(fn: Callable[[Arena, object], dict], spec: object, collect: bool) -> dict:
    if not collect:
        return fn(_ARENA, spec)
    with telemetry.collect() as collector:
        result = fn(_ARENA, spec)
    result = dict(result)
    result[TELEMETRY_KEY] = worker_summary(collector)
    return result


class ClassDispatcher:
    """Run independent columnar tasks on a pool of ``max_workers`` processes.

    With ``max_workers == 1`` no pool is started and :meth:`map_arena` runs
    every task inline on the same read-only arena.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        requested = default_workers() if max_workers is None else int(max_workers)
        if requested < 1:
            raise ValueError(f"max_workers must be >= 1, got {requested}")
        self.max_workers = requested
        self._pool: Optional[ProcessPoolExecutor] = None

    def make_arena(self, arrays: Arena) -> dict[str, np.ndarray]:
        """Read-only views of a batch's input columns, keyed as given."""

        return _read_only(arrays)

    def map_arena(
        self,
        fn: Callable[[Arena, object], dict],
        arena: Arena,
        specs: Sequence[object],
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> list[Union[dict, WorkerCrashError, JobTimeoutError]]:
        """Run ``fn(arena, spec)`` for every spec; results in spec order.

        A pooled call starts a fresh pool whose workers receive ``arena``
        at start.  ``fn`` must be a module-level (picklable) callable
        returning a dict.  Worker telemetry summaries are stripped from the
        payloads and merged into the parent's active collector.

        ``deadlines[i]`` is a :func:`time.perf_counter` instant (or
        ``None``) past which spec ``i`` is no longer waited for.  A pooled
        task whose worker died comes back as a :class:`WorkerCrashError`
        value, and one still unfinished at its deadline as a
        :class:`JobTimeoutError` value; the other results still arrive.
        After a lost task the pool is abandoned without waiting for its
        workers.  Inline calls ignore ``deadlines``: a synchronous call
        cannot be preempted.
        """

        if self.max_workers == 1:
            # Inline: the parent collector (if any) sees the spans directly.
            return [fn(arena, spec) for spec in specs]
        self.shutdown()  # a pool's workers hold the arena they started with
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_init_worker, initargs=(arena,)
        )
        collector = telemetry.active()
        collect = collector is not None
        futures = [self._pool.submit(_run_task, fn, spec, collect) for spec in specs]
        results: list = []
        for future, deadline in zip(futures, deadlines or [None] * len(futures)):
            timeout = None if deadline is None else max(0.0, deadline - time.perf_counter())
            try:
                payload = future.result(timeout)
            except FutureTimeout:
                payload = JobTimeoutError("task still running at its deadline")
            except BrokenProcessPool as error:
                payload = WorkerCrashError(f"worker process died mid-task ({error})")
            else:
                summary = payload.pop(TELEMETRY_KEY, None)
                if summary is not None:
                    collector.merge_worker(summary)
            results.append(payload)
        if any(isinstance(result, Exception) for result in results):
            # A lost task's worker may still be busy: abandon the pool.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        return results

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ClassDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
