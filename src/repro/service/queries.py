"""The query engine: one solve amortized over arbitrarily many queries.

:class:`QueryEngine` is the serving facade.  ``ensure_solved`` resolves a
graph to its :class:`~repro.service.store.ClosureArtifact` — through the
result store when possible, through a job otherwise — and the point-query
methods (``dist``, ``path``, ``diameter``, ``has_negative_cycle``) plus the
batched :meth:`QueryEngine.query_batch` answer everything from the cached
closure and successor matrix.  A million ``dist(u, v)`` calls cost one
solve; the engine's ``solver_invocations`` counter proves it.

Batch requests are plain :class:`QueryRequest` records so they can be
read from files, built by the CLI, or constructed programmatically; batched
``dist`` lookups are answered with one vectorized gather
(:func:`repro.matrix.apsp.batch_distance_lookup`).

Graceful degradation: the engine accepts an ordered ``fallback`` chain of
solver names (e.g. ``("classical", "floyd-warshall")``) and hands it to
its :class:`~repro.service.jobs.JobEngine`, which walks it once the
primary solver's retries are exhausted (``NegativeCycleError`` bypasses
it — an answer about the input, on which every solver would agree).
Each resolve is one job; results served from a fallback carry
``degraded=True`` / ``fallback_solver`` so callers can see the answer is
authoritative (distances are solver-independent) but its round
accounting belongs to a different solver.  ``query_batch`` additionally
takes a ``timeout_s`` budget, submitted as the job's ``deadline_s``: one
deadline over every solve the batch triggers, fallbacks included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.errors import JobFailedError, ServiceError
from repro.graphs.digraph import WeightedDigraph
from repro.matrix.apsp import batch_distance_lookup
from repro.matrix.witness import reconstruct_path
from repro.service.jobs import JobEngine, RetryPolicy
from repro.service.solvers import SolveOptions
from repro.service.store import ClosureArtifact, ResultStore

#: Request kinds understood by :meth:`QueryEngine.query_batch`.
QUERY_KINDS = ("dist", "path", "diameter", "negative-cycle")

QueryValue = Union[float, bool, None, "list[int]"]


def _observe_query(kind: str, started: float) -> None:
    """Record one answered query in the metrics registry when enabled."""
    collector = telemetry.active()
    if collector is not None:
        metrics = collector.metrics
        metrics.inc("queries.total")
        metrics.inc(f"queries.{kind}")
        metrics.observe("queries.latency_seconds", time.perf_counter() - started)


@dataclass(frozen=True)
class QueryRequest:
    """One point query.  ``u``/``v`` are only meaningful for ``dist``/``path``."""

    kind: str
    u: int = -1
    v: int = -1

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ServiceError(
                f"unknown query kind {self.kind!r}; supported: {', '.join(QUERY_KINDS)}"
            )


@dataclass
class QueryResult:
    """The answer to one :class:`QueryRequest`.

    ``degraded`` is set when the answer was served by a fallback solver
    (named in ``fallback_solver``) after the primary solver's retries were
    exhausted — the distances are still exact, but round accounting is the
    fallback's.
    """

    request: QueryRequest
    value: QueryValue
    degraded: bool = False
    fallback_solver: Optional[str] = None


class QueryEngine:
    """Answer distance/path/diameter queries from cached closures.

    Parameters
    ----------
    solver / options:
        Which registered solver computes closures on cache misses.
    store:
        Shared :class:`ResultStore`; pass one with a ``cache_dir`` for
        cross-process persistence.
    fallback / retry_policy / timeout_s:
        Passed through to the underlying :class:`JobEngine`, which walks
        the ``fallback`` chain when the primary solver fails for a
        non-semantic reason.
    """

    def __init__(
        self,
        *,
        solver: str = "reference",
        options: Optional[SolveOptions] = None,
        store: Optional[ResultStore] = None,
        fallback: Optional[Sequence[str]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.engine = JobEngine(
            store=store,
            solver=solver,
            options=options,
            retry_policy=retry_policy,
            timeout_s=timeout_s,
            fallback=fallback,
        )
        self.degraded_solves = 0

    @property
    def store(self) -> ResultStore:
        return self.engine.store

    @property
    def solver_invocations(self) -> int:
        """How many times a solver actually ran (cache hits excluded)."""
        return self.engine.solver_invocations

    # -- resolution ----------------------------------------------------------

    def ensure_solved(self, graph: WeightedDigraph) -> ClosureArtifact:
        """The graph's closure artifact, solving at most once per content."""
        return self._resolve(graph)[0]

    def _resolve(
        self, graph: WeightedDigraph, deadline_s: Optional[float] = None
    ) -> tuple[ClosureArtifact, Optional[str]]:
        """Resolve a closure with one job; returns ``(artifact, fallback
        solver used or None)``.

        The job engine walks the fallback chain; a job that still fails
        raises its last failure as :class:`JobFailedError`.
        """
        with telemetry.span("queries.ensure_solved") as span:
            job = self.engine.submit(graph, deadline_s=deadline_s)
            if job.artifact is not None:  # cache hit: complete, not in the ledger
                return job.artifact, None
            artifact = self.engine.result(job.job_id)
            if job.degraded_from is None:
                return artifact, None
            self.degraded_solves += 1
            span.set("degraded", True)
            span.set("fallback_solver", job.solver)
            collector = telemetry.active()
            if collector is not None:
                collector.metrics.inc("queries.degraded")
            return artifact, job.solver

    # -- point queries -------------------------------------------------------

    def dist(self, graph: WeightedDigraph, u: int, v: int) -> float:
        """Shortest-path distance ``u → v`` (``inf`` when unreachable)."""
        started = time.perf_counter()
        artifact = self.ensure_solved(graph)
        self._check_endpoint(artifact, u)
        self._check_endpoint(artifact, v)
        _observe_query("dist", started)
        return float(artifact.distances[u, v])

    def path(self, graph: WeightedDigraph, u: int, v: int) -> Optional[list[int]]:
        """Vertex sequence of a shortest ``u → v`` path (``None`` when
        unreachable)."""
        started = time.perf_counter()
        artifact = self.ensure_solved(graph)
        result = reconstruct_path(artifact.successors, u, v)
        _observe_query("path", started)
        return result

    def diameter(self, graph: WeightedDigraph) -> float:
        """Largest pairwise distance (``inf`` when not strongly connected)."""
        started = time.perf_counter()
        artifact = self.ensure_solved(graph)
        _observe_query("diameter", started)
        return float(artifact.distances.max())

    def has_negative_cycle(
        self, graph: WeightedDigraph, *, timeout_s: Optional[float] = None
    ) -> bool:
        """Whether the graph contains a negative cycle.

        A graph with a negative cycle has no distance closure, so nothing
        is cached for it; the answer comes from the solver's
        ``NegativeCycleError`` failure.
        """
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        try:
            self._resolve(graph, deadline)
        except JobFailedError as error:
            if error.error_type == "NegativeCycleError":
                return True
            raise
        return False

    # -- batched queries -----------------------------------------------------

    def query_batch(
        self,
        graph: WeightedDigraph,
        requests: Sequence[QueryRequest],
        *,
        timeout_s: Optional[float] = None,
    ) -> list[QueryResult]:
        """Answer a batch of requests against one resolved closure.

        ``dist`` requests are gathered with a single vectorized lookup;
        every request is answered in input order.  ``timeout_s`` is a
        wall-clock budget for the whole batch: one deadline over every
        solve the batch triggers, fallback attempts included.
        """
        if not requests:
            return []
        started = time.perf_counter()
        deadline = None if timeout_s is None else started + timeout_s
        with telemetry.span("queries.batch", requests=len(requests)):
            results = self._query_batch(graph, requests, deadline)
        collector = telemetry.active()
        if collector is not None:
            elapsed = time.perf_counter() - started
            metrics = collector.metrics
            metrics.inc("queries.total", len(requests))
            metrics.inc("queries.batches")
            # Per-query latency inside a batch is the amortized share.
            for _ in range(len(requests)):
                metrics.observe("queries.latency_seconds", elapsed / len(requests))
        return results

    def _query_batch(
        self,
        graph: WeightedDigraph,
        requests: Sequence[QueryRequest],
        deadline: Optional[float] = None,
    ) -> list[QueryResult]:
        try:
            artifact, fallback_solver = self._resolve(graph, deadline)
        except JobFailedError as error:
            if error.error_type != "NegativeCycleError" or not any(
                req.kind == "negative-cycle" for req in requests
            ):
                raise
            return [
                QueryResult(req, True if req.kind == "negative-cycle" else None)
                for req in requests
            ]
        degraded = fallback_solver is not None
        dist_indices = [i for i, req in enumerate(requests) if req.kind == "dist"]
        dist_values: np.ndarray = np.empty(0)
        if dist_indices:
            pairs = [(requests[i].u, requests[i].v) for i in dist_indices]
            dist_values = batch_distance_lookup(artifact.distances, pairs)
        dist_cursor = 0
        results: list[QueryResult] = []
        for req in requests:
            if req.kind == "dist":
                value: QueryValue = float(dist_values[dist_cursor])
                dist_cursor += 1
            elif req.kind == "path":
                value = reconstruct_path(artifact.successors, req.u, req.v)
            elif req.kind == "diameter":
                value = float(artifact.distances.max())
            else:  # negative-cycle, and the solve succeeded
                value = False
            results.append(
                QueryResult(
                    req, value, degraded=degraded, fallback_solver=fallback_solver
                )
            )
        return results

    @staticmethod
    def _check_endpoint(artifact: ClosureArtifact, vertex: int) -> None:
        if not 0 <= vertex < artifact.num_vertices:
            raise ServiceError(
                f"vertex {vertex} out of range for n={artifact.num_vertices}"
            )
