"""Scale-out plane for batch sweeps and the job engine.

A batch sweep is thousands of independent solves over one ``(G, n, n)``
weight stack.  :func:`solve_weights_batch` solves a seed-free stacked
solver's sweep in one in-process call; for a per-graph solver, a
:class:`ClassDispatcher` farms contiguous graph chunks to a worker pool
whose workers receive the weight stack once, at pool start.  The same
dispatcher runs each attempt round of
:meth:`repro.service.jobs.JobEngine.run_pending_parallel`.

A single ``compute_pairs`` solve does not use this plane: it runs
in-process.  Per-graph seeds are ``seed + i`` whatever the chunking, so a
batch's outputs are byte-identical at any worker count.
"""

from __future__ import annotations

from repro.parallel.dispatch import ClassDispatcher, default_workers
from repro.parallel.sweeps import BatchSolveResult, solve_weights_batch

__all__ = [
    "BatchSolveResult",
    "ClassDispatcher",
    "default_workers",
    "solve_weights_batch",
]
