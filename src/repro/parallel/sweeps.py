"""Sweep-level scale-out: batch solves over a ``(G, n, n)`` weight stack.

A sweep is the embarrassingly-parallel axis: a 10k-graph sweep is 10k
independent solves.  :func:`solve_weights_batch` takes one of two paths,
chosen by the solver named in the call:

* **stacked** — a seed-free solver with a ``solve_stack`` method (the
  Floyd–Warshall oracle,
  :meth:`repro.service.solvers.FloydWarshallSolver.solve_stack`) solves the
  whole stack in one in-process relaxation over
  :func:`repro.matrix.apsp.apsp_distances_stack`; a worker pool costs more
  than it saves there;
* **per graph** — every other solver is built once per graph, seeded
  ``seed + i``, because the distributed pipelines draw randomness per solve.
  Contiguous graph chunks go to a :class:`ClassDispatcher` pool (the one
  the job engine also runs on) whose workers receive the weight stack at
  start and return each chunk's distances and round counts.  A chunk lost
  to a dying worker raises :class:`~repro.errors.WorkerCrashError`.

Either way the output is invariant to chunking and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro import telemetry
from repro.errors import WorkerCrashError
from repro.graphs.digraph import WeightedDigraph
from repro.parallel.dispatch import ClassDispatcher

#: Chunks per worker: enough that a slow chunk does not idle the others.
_CHUNKS_PER_WORKER = 4

_WEIGHTS = "sweep.weights"


@dataclass
class BatchSolveResult:
    """Stacked outputs of a batch solve: one slab per graph."""

    distances: np.ndarray  # (num_graphs, n, n) float64
    rounds: np.ndarray  # (num_graphs,) float64
    solver: str
    workers: int


def _solve_chunk_task(arena, spec: dict) -> dict:
    """Solve graphs ``[lo, hi)`` of the arena's weight stack, one seeded
    solver per graph."""

    from repro.service.solvers import make_solver

    lo, hi, options = spec["lo"], spec["hi"], spec["options"]
    weights = arena[_WEIGHTS][lo:hi]
    distances = np.empty_like(weights)
    rounds = np.empty(hi - lo, dtype=np.float64)
    for row, graph_weights in enumerate(weights):
        solver = make_solver(spec["solver"], replace(options, seed=options.seed + lo + row))
        outcome = solver.solve(WeightedDigraph(graph_weights))
        distances[row] = outcome.distances
        rounds[row] = outcome.rounds
    return {"lo": lo, "hi": hi, "distances": distances, "rounds": rounds}


def solve_weights_batch(
    weights: np.ndarray,
    *,
    solver: str = "floyd-warshall",
    options=None,
    workers: Optional[int] = None,
) -> BatchSolveResult:
    """Solve every graph in the ``(G, n, n)`` weight stack.

    A solver with ``solve_stack`` solves the whole stack in this process,
    and the result reports one worker.  For a per-graph solver, ``workers``
    sizes the pool (``None`` →
    :func:`~repro.parallel.dispatch.default_workers`) that is started for
    the batch and shut down before returning.  Graphs must be free of
    negative cycles (use ``random_digraph_no_negative_cycle``-style
    generators); a solver raising propagates out of the batch, and a worker
    dying mid-chunk raises :class:`~repro.errors.WorkerCrashError`.
    """

    from repro.service.solvers import SolveOptions, make_solver

    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.ndim != 3 or weights.shape[1] != weights.shape[2]:
        raise ValueError(f"weights must be (num_graphs, n, n), got {weights.shape}")
    num_graphs, n, _ = weights.shape
    if options is None:
        options = SolveOptions()
    # One span over the whole driver, so the parent's own work (chunking,
    # gathering the chunk outputs) is attributed too.
    with telemetry.span(
        "parallel.solve_weights_batch", solver=solver, graphs=num_graphs, n=n
    ):
        batch_solver = make_solver(solver, options)
        if hasattr(batch_solver, "solve_stack"):
            outcome = batch_solver.solve_stack(weights)
            return BatchSolveResult(
                distances=outcome.distances,
                rounds=np.full(num_graphs, outcome.rounds, dtype=np.float64),
                solver=solver,
                workers=1,
            )
        distances = np.empty_like(weights)
        rounds = np.empty(num_graphs, dtype=np.float64)
        with ClassDispatcher(workers) as dispatcher:
            arena = dispatcher.make_arena({_WEIGHTS: weights})
            num_chunks = max(
                1, min(num_graphs, dispatcher.max_workers * _CHUNKS_PER_WORKER)
            )
            bounds = np.linspace(0, num_graphs, num_chunks + 1).astype(np.int64)
            specs = [
                {"lo": int(lo), "hi": int(hi), "solver": solver, "options": options}
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for chunk in dispatcher.map_arena(_solve_chunk_task, arena, specs):
                if isinstance(chunk, WorkerCrashError):
                    raise chunk
                distances[chunk["lo"] : chunk["hi"]] = chunk["distances"]
                rounds[chunk["lo"] : chunk["hi"]] = chunk["rounds"]
    return BatchSolveResult(
        distances=distances,
        rounds=rounds,
        solver=solver,
        workers=dispatcher.max_workers,
    )
