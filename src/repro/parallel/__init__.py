"""Shared-memory columnar scale-out plane for batch sweeps.

A batch sweep is thousands of independent solves over one ``(G, n, n)``
weight stack.  :func:`solve_weights_batch` publishes the stack and the
output columns in a :class:`ShmArena` — named ``multiprocessing.shared_memory``
blocks described by a picklable manifest — and a :class:`ClassDispatcher`
farms contiguous graph chunks to a persistent worker pool whose workers
attach the arena once and read and write the columns zero-copy.

A single ``compute_pairs`` solve does not use this plane: it runs
in-process.  Per-graph seeds are ``seed + i`` whatever the chunking, so a
batch's outputs are byte-identical at any worker count.
"""

from __future__ import annotations

from repro.parallel.arena import ArenaEntry, ArenaManifest, LocalArena, ShmArena, shm_available
from repro.parallel.dispatch import ClassDispatcher, default_workers
from repro.parallel.sweeps import BatchSolveResult, solve_weights_batch

__all__ = [
    "ArenaEntry",
    "ArenaManifest",
    "BatchSolveResult",
    "ClassDispatcher",
    "LocalArena",
    "ShmArena",
    "default_workers",
    "shm_available",
    "solve_weights_batch",
]
