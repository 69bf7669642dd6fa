"""Programmatic experiment sweeps.

The benchmark files under ``benchmarks/`` are the canonical experiment
definitions; this module provides the reusable sweep drivers behind them so
users can regenerate (or extend) the measurements from Python without going
through pytest — e.g. to add sizes, change constants, or sweep their own
workloads.

Each driver returns a list of :class:`SweepPoint` carrying the measured
quantities plus the instance's ground-truth error profile; ``fit`` runs the
log–log exponent fit over any numeric field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analysis.complexity import fit_exponent
from repro.baselines.floyd_warshall import floyd_warshall
from repro.core.compute_pairs import compute_pairs
from repro.core.constants import SIMULATION, PaperConstants
from repro.core.problems import FindEdgesInstance
from repro.graphs.generators import (
    random_digraph_no_negative_cycle,
    random_undirected_graph,
)
from repro.graphs.workloads import make_workload
from repro.service.jobs import JobEngine
from repro.service.solvers import SolveOptions
from repro.service.store import ResultStore
from repro.util.rng import RngLike, ensure_rng, spawn_rng


@dataclass
class SweepPoint:
    """One measurement of a sweep."""

    size: int
    rounds: float
    truth_size: int
    false_positives: int
    false_negatives: int
    details: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.false_positives == 0 and self.false_negatives == 0


def sweep_compute_pairs(
    sizes: Sequence[int],
    *,
    constants: PaperConstants = SIMULATION,
    workload: str | None = None,
    density: float = 0.3,
    max_weight: int = 6,
    search_mode: str = "quantum",
    rng: RngLike = None,
) -> list[SweepPoint]:
    """Run ComputePairs over an ``n`` sweep and collect round/error data.

    ``workload`` selects a named family from
    :mod:`repro.graphs.workloads`; ``None`` uses a plain random graph with
    the given density.
    """
    generator = ensure_rng(rng)
    points: list[SweepPoint] = []
    for size in sizes:
        child = spawn_rng(generator)
        if workload is None:
            graph = random_undirected_graph(
                size, density=density, max_weight=max_weight, rng=child
            )
        else:
            graph = make_workload(workload, size, rng=child)
        instance = FindEdgesInstance(graph)
        solution = compute_pairs(
            instance,
            constants=constants,
            rng=spawn_rng(generator),
            search_mode=search_mode,
        )
        truth = instance.reference_solution()
        points.append(
            SweepPoint(
                size=size,
                rounds=solution.rounds,
                truth_size=len(truth),
                false_positives=len(solution.pairs - truth),
                false_negatives=len(truth - solution.pairs),
                details=dict(solution.details),
            )
        )
    return points


@dataclass
class EngineSweepPoint:
    """One APSP solve of an engine-backed sweep."""

    size: int
    seed: int
    rounds: float
    exact: bool
    digest: str
    cache_hit: bool
    worker_pid: Optional[int] = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.size, self.seed)


def sweep_apsp_engine(
    sizes: Sequence[int],
    *,
    seeds: Sequence[int] = (0,),
    solver: str = "reference",
    options: Optional[SolveOptions] = None,
    workers: Optional[int] = 1,
    store: Optional[ResultStore] = None,
    density: float = 0.4,
    max_weight: int = 8,
) -> list[EngineSweepPoint]:
    """Run a ``sizes × seeds`` APSP sweep through the job engine.

    Unlike :func:`sweep_compute_pairs`, which measures one protocol call at
    a time in-process, this driver submits every ``(size, seed)`` instance
    as a job and drains them through :class:`~repro.service.jobs.JobEngine`'s
    one attempt loop — ``workers=1`` runs inline, more workers run across a
    process pool (``None`` derives the count from ``os.cpu_count()``, see
    :func:`repro.parallel.default_workers`; below 1 is a ``ValueError``) —
    so a sweep's points run in parallel and repeated sweeps over the same
    ``store`` are answered from cache.  Each point is verified against
    Floyd–Warshall (``exact``).
    """
    engine = JobEngine(
        store=store if store is not None else ResultStore(),
        solver=solver,
        options=options if options is not None else SolveOptions(),
    )
    submissions = []
    for size in sizes:
        for seed in seeds:
            graph = random_digraph_no_negative_cycle(
                size, density=density, max_weight=max_weight, rng=seed
            )
            submissions.append((size, seed, graph, engine.submit(graph)))
    engine.run_pending_parallel(max_workers=workers)
    points = []
    for size, seed, graph, job in submissions:
        artifact = job.artifact if job.artifact is not None else engine.result(job.job_id)
        points.append(
            EngineSweepPoint(
                size=size,
                seed=seed,
                rounds=artifact.rounds,
                exact=bool(
                    np.array_equal(artifact.distances, floyd_warshall(graph))
                ),
                digest=job.digest,
                cache_hit=job.cache_hit,
                worker_pid=job.worker_pid,
            )
        )
    return points


def sweep_apsp_batch(
    num_graphs: int,
    size: int,
    *,
    solver: str = "floyd-warshall",
    options: Optional[SolveOptions] = None,
    workers: Optional[int] = None,
    density: float = 0.4,
    max_weight: int = 8,
    base_seed: int = 0,
):
    """Columnar batch sweep: many graphs of one size through the scale-out
    plane.

    Where :func:`sweep_apsp_engine` pays per-job submission, hashing, and
    result pickling, this driver stacks every instance's weight matrix
    into one ``(G, n, n)`` array.  The Floyd–Warshall oracle solves it in
    one in-process relaxation
    (:meth:`repro.service.solvers.FloydWarshallSolver.solve_stack`), so it
    pays no per-graph solver cost at all; every other solver is built once
    per graph, and ``workers`` sizes the :mod:`repro.parallel` pool that
    solves contiguous graph chunks.  Graph ``i`` is generated with seed
    ``base_seed + i`` and a per-graph solver is seeded the same way, so
    the result is independent of chunking and worker count.  Returns a
    :class:`repro.parallel.BatchSolveResult`.
    """
    from repro.parallel import solve_weights_batch

    weights = np.stack(
        [
            random_digraph_no_negative_cycle(
                size, density=density, max_weight=max_weight, rng=base_seed + i
            ).weights
            for i in range(num_graphs)
        ]
    )
    if options is None:
        options = SolveOptions(seed=base_seed)
    return solve_weights_batch(
        weights, solver=solver, options=options, workers=workers
    )


def sweep_phase_rounds(
    points: Sequence[SweepPoint], phase_key: str
) -> list[float]:
    """Extract a per-phase series recorded in the sweep details
    (e.g. ``"eval_rounds_per_alpha"`` sums, ``"coverage"``)."""
    values = []
    for point in points:
        value = point.details.get(phase_key)
        if isinstance(value, dict):
            value = float(sum(value.values()))
        values.append(float(value))
    return values


def fit(
    points: Sequence[SweepPoint],
    value: Callable[[SweepPoint], float] = lambda p: p.rounds,
) -> tuple[float, float, float]:
    """Log–log power-law fit ``(exponent, coefficient, r²)`` over a sweep."""
    sizes = [point.size for point in points]
    values = [value(point) for point in points]
    return fit_exponent(sizes, values)
