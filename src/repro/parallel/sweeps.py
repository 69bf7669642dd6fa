"""Sweep-level scale-out: batch per-graph solves over a shared weight arena.

A sweep is the embarrassingly-parallel axis the worker pool serves: a
10k-graph sweep is 10k independent solves.  :func:`solve_weights_batch` stacks all
weight matrices into one arena column, splits the graph index range into
contiguous chunks, and has each worker solve its chunk writing distances and
round counts into writable output columns in disjoint slices — no result
pickling either direction.

A chunk takes one of two paths, chosen by the solver named in the call:

* **stacked** — a solver with a ``solve_stack`` method (the Floyd–Warshall
  oracle, :meth:`repro.service.solvers.FloydWarshallSolver.solve_stack`)
  solves the chunk's ``(graphs, n, n)`` slice in one relaxation over
  :func:`repro.matrix.apsp.apsp_distances_stack`;
* **per graph** — every other solver is built once per graph, seeded
  ``seed + i``, because the distributed pipelines draw randomness per solve.

Either way the output is invariant to chunking and worker count.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro import telemetry
from repro.graphs.digraph import WeightedDigraph
from repro.parallel.dispatch import ClassDispatcher

#: Chunks per worker: enough that a slow chunk does not idle the others.
_CHUNKS_PER_WORKER = 4

_WEIGHTS = "sweep.weights"
_DISTANCES = "sweep.distances"
_ROUNDS = "sweep.rounds"


@dataclass
class BatchSolveResult:
    """Stacked outputs of a batch solve: one slab per graph."""

    distances: np.ndarray  # (num_graphs, n, n) float64
    rounds: np.ndarray  # (num_graphs,) float64
    solver: str
    workers: int


def _solve_chunk_task(arena, spec: dict) -> dict:
    """Solve graphs ``[lo, hi)`` from the arena into its output columns."""

    from repro.service.solvers import make_solver

    lo, hi = spec["lo"], spec["hi"]
    weights = arena[_WEIGHTS]
    distances = arena.writable(_DISTANCES)
    rounds = arena.writable(_ROUNDS)
    options = spec["options"]
    solver = make_solver(spec["solver"], options)
    if hasattr(solver, "solve_stack"):
        outcome = solver.solve_stack(weights[lo:hi])
        distances[lo:hi] = outcome.distances
        rounds[lo:hi] = outcome.rounds
    else:
        for index in range(lo, hi):
            solver = make_solver(spec["solver"], replace(options, seed=options.seed + index))
            outcome = solver.solve(WeightedDigraph(weights[index]))
            distances[index] = outcome.distances
            rounds[index] = outcome.rounds
    return {"lo": lo, "hi": hi}


def solve_weights_batch(
    weights: np.ndarray,
    *,
    solver: str = "floyd-warshall",
    options=None,
    workers: Optional[int] = None,
) -> BatchSolveResult:
    """Solve every graph in the ``(G, n, n)`` weight stack, in parallel.

    A pool of ``workers`` processes (``None`` →
    :func:`~repro.parallel.dispatch.default_workers`) is created for the
    batch and shut down before returning.  Graphs must be free of negative cycles
    (use ``random_digraph_no_negative_cycle``-style generators); a solver
    raising propagates out of the batch.
    """

    from repro.service.solvers import SolveOptions

    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.ndim != 3 or weights.shape[1] != weights.shape[2]:
        raise ValueError(f"weights must be (num_graphs, n, n), got {weights.shape}")
    num_graphs, n, _ = weights.shape
    if options is None:
        options = SolveOptions()
    with contextlib.ExitStack() as stack:
        # One span over the whole driver, so the parent's own work (output
        # columns, the copy out, arena disposal) is attributed too.
        stack.enter_context(
            telemetry.span(
                "parallel.solve_weights_batch", solver=solver, graphs=num_graphs, n=n
            )
        )
        dispatcher = stack.enter_context(ClassDispatcher(workers))
        arena = dispatcher.make_arena(
            {
                _WEIGHTS: weights,
                _DISTANCES: np.zeros((num_graphs, n, n), dtype=np.float64),
                _ROUNDS: np.zeros(num_graphs, dtype=np.float64),
            }
        )
        stack.callback(arena.dispose)
        num_chunks = max(
            1, min(num_graphs, dispatcher.max_workers * _CHUNKS_PER_WORKER)
        )
        bounds = np.linspace(0, num_graphs, num_chunks + 1).astype(np.int64)
        specs = [
            {"lo": int(lo), "hi": int(hi), "solver": solver, "options": options}
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        dispatcher.map_arena(_solve_chunk_task, arena, specs)
        distances = np.array(arena[_DISTANCES], copy=True)
        rounds = np.array(arena[_ROUNDS], copy=True)
    return BatchSolveResult(
        distances=distances,
        rounds=rounds,
        solver=solver,
        workers=dispatcher.max_workers,
    )
