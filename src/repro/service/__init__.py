"""repro.service — the job-oriented APSP serving layer.

The reproduction's solvers compute a full distance closure per call; this
package amortizes those expensive solves across unbounded query traffic:

* :mod:`~repro.service.solvers` — a registry putting the quantum pipeline,
  the Grover-free classical pipeline, the reference reduction, and the
  Floyd–Warshall oracle behind one :class:`Solver` protocol with declared
  capabilities;
* :mod:`~repro.service.hashing` — content addresses for graphs (SHA-256 of
  the canonical weight-matrix bytes);
* :mod:`~repro.service.store` — an LRU result cache of closure + successor
  artifacts with optional versioned ``.npz`` persistence;
* :mod:`~repro.service.jobs` — submit/poll/await jobs through a
  ``PENDING → RUNNING → DONE/FAILED`` state machine, through one attempt
  loop (``max_workers=1`` runs inline) that also walks the ordered solver
  fallback chain for graceful degradation;
* :mod:`~repro.service.queries` — batched ``dist``/``path``/``diameter``/
  ``negative-cycle`` queries served from cached closures, one job per
  resolve;
* :mod:`~repro.service.faults` — a deterministic, seeded fault-injection
  plane (worker crashes, latency, transient ``OSError``, artifact
  corruption) for exercising the engine's retry/timeout/quarantine paths.

Quickstart::

    import repro
    from repro.service import QueryEngine

    engine = QueryEngine(solver="reference")
    graph = repro.random_digraph_no_negative_cycle(32, rng=7)
    engine.dist(graph, 0, 9)        # first call: one solve
    engine.path(graph, 0, 9)        # every later call: cache hit
    assert engine.solver_invocations == 1
"""

from repro.service.faults import FaultConfig, FaultPlane, FlakyFindEdges
from repro.service.hashing import DIGEST_SCHEME, graph_digest
from repro.service.jobs import Job, JobEngine, JobState, RetryPolicy
from repro.service.queries import QUERY_KINDS, QueryEngine, QueryRequest, QueryResult
from repro.service.solvers import (
    SolveOptions,
    SolveOutcome,
    Solver,
    SolverCapabilities,
    available_solvers,
    distributed_solvers,
    make_solver,
    register_solver,
    solver_capabilities,
)
from repro.service.store import (
    ClosureArtifact,
    ResultStore,
    StoreStats,
    artifact_checksum,
    artifact_key,
)

__all__ = [
    "DIGEST_SCHEME",
    "FaultConfig",
    "FaultPlane",
    "FlakyFindEdges",
    "RetryPolicy",
    "graph_digest",
    "Job",
    "JobEngine",
    "JobState",
    "QUERY_KINDS",
    "QueryEngine",
    "QueryRequest",
    "QueryResult",
    "SolveOptions",
    "SolveOutcome",
    "Solver",
    "SolverCapabilities",
    "available_solvers",
    "distributed_solvers",
    "make_solver",
    "register_solver",
    "solver_capabilities",
    "ClosureArtifact",
    "ResultStore",
    "StoreStats",
    "artifact_checksum",
    "artifact_key",
]
