"""The solver registry: every APSP implementation behind one protocol.

The library grew three ways to compute a distance closure — the full
quantum pipeline (:class:`~repro.core.apsp_solver.QuantumAPSP` over
:class:`~repro.core.find_edges.QuantumFindEdges`), the Grover-free
classical pipeline, and the centralized Floyd–Warshall oracle — each with
its own constructor signature.  The service layer needs to pick one by
name, in-process or inside a worker process, so this module flattens them
behind a single :class:`Solver` protocol with declared
:class:`SolverCapabilities` and a string-keyed registry.

Registering a new solver is one call::

    register_solver(
        "my-solver",
        lambda options: MySolver(...),
        capabilities=SolverCapabilities(rounds_accounted=False),
    )

after which ``make_solver("my-solver")`` works everywhere the built-ins do
(CLI ``--solver`` flags, job submission, sweep drivers).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro import telemetry
from repro.baselines.bellman_ford_distributed import bellman_ford_distributed
from repro.baselines.censor_hillel import CensorHillelAPSP
from repro.baselines.classical_search import GroverFreeFindEdges
from repro.baselines.floyd_warshall import floyd_warshall
from repro.core.apsp_solver import QuantumAPSP
from repro.core.constants import PaperConstants
from repro.core.find_edges import QuantumFindEdges, ReferenceFindEdges
from repro.graphs.digraph import WeightedDigraph
from repro.matrix.apsp import apsp_distances_stack


@dataclass(frozen=True)
class SolverCapabilities:
    """What a registered solver supports / reports.

    ``rounds_accounted`` is True when ``SolveOutcome.rounds`` carries a
    meaningful CONGEST-CLIQUE charge rather than 0;
    ``distributed`` is True when the solve actually runs on the
    :class:`~repro.congest.network.CongestClique` simulator (message-
    accurate traffic, per-phase ledger) rather than as a centralized
    computation.
    """

    rounds_accounted: bool = True
    distributed: bool = False
    description: str = ""


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by every registered solver.

    ``scale`` feeds :class:`PaperConstants` for the pipeline solvers and is
    ignored by centralized ones; ``seed`` seeds the randomized solvers and
    is ignored by the deterministic ones (the distributed baselines).
    """

    scale: float = 0.5
    seed: int = 0


@dataclass
class SolveOutcome:
    """What a solver returns: the closure plus accounting."""

    distances: np.ndarray
    rounds: float
    solver: str
    squarings: int = 0
    find_edges_calls: int = 0
    details: dict = field(default_factory=dict)


@runtime_checkable
class Solver(Protocol):
    """Anything that maps a :class:`WeightedDigraph` to its distance closure.

    A seed-free solver may also offer ``solve_stack(weights)`` over a
    ``(G, n, n)`` weight stack; batch sweeps then solve the whole stack in
    one call (:func:`repro.parallel.solve_weights_batch`).
    """

    name: str
    capabilities: SolverCapabilities

    def solve(self, graph: WeightedDigraph) -> SolveOutcome:  # pragma: no cover
        ...


def _observe_solve(
    name: str, started: float, outcome: SolveOutcome, graphs: int = 1
) -> None:
    """Record solve latency/round metrics when telemetry is enabled.

    A stacked call counts ``graphs`` solves and one latency observation.
    """
    collector = telemetry.active()
    if collector is not None:
        metrics = collector.metrics
        metrics.inc("solver.solves", graphs)
        metrics.inc(f"solver.{name}.solves", graphs)
        metrics.observe("solver.solve_seconds", time.perf_counter() - started)
        metrics.inc("solver.total_rounds", outcome.rounds * graphs)


class PipelineSolver:
    """The Theorem-1 reduction pipeline with a chosen FindEdges backend."""

    def __init__(
        self,
        name: str,
        backend_factory: Callable[[SolveOptions], object],
        capabilities: SolverCapabilities,
        options: SolveOptions,
    ) -> None:
        self.name = name
        self.capabilities = capabilities
        self.options = options
        self._backend_factory = backend_factory

    def solve(self, graph: WeightedDigraph) -> SolveOutcome:
        started = time.perf_counter()
        with telemetry.span(
            "solver.solve", solver=self.name, n=graph.num_vertices
        ) as span:
            backend = self._backend_factory(self.options)
            report = QuantumAPSP(backend=backend).solve(graph)
            span.set("rounds", report.rounds)
        outcome = SolveOutcome(
            distances=report.distances,
            rounds=report.rounds,
            solver=self.name,
            squarings=report.squarings,
            find_edges_calls=report.find_edges_calls,
            details={"aborts": report.aborts, "aborted_rounds": report.aborted_rounds},
        )
        _observe_solve(self.name, started, outcome)
        return outcome


class BellmanFordSolver:
    """Distributed APSP by ``n`` synchronous Bellman–Ford SSSP runs.

    The textbook ``O(n)``-rounds-per-source comparator: every source's run
    is message-accurate on its own :class:`CongestClique` and the outcome's
    ``rounds`` is the total charge across sources, with per-source rounds
    and iteration counts in ``details`` — the round metadata the service
    layer surfaces for distributed solvers.
    """

    name = "bellman-ford"
    capabilities = SolverCapabilities(
        distributed=True,
        description="n × synchronous distributed Bellman–Ford SSSP (O(n²) rounds)",
    )

    def __init__(self, options: SolveOptions) -> None:
        self.options = options

    def solve(self, graph: WeightedDigraph) -> SolveOutcome:
        started = time.perf_counter()
        with telemetry.span(
            "solver.solve", solver=self.name, n=graph.num_vertices
        ):
            distances = np.empty((graph.num_vertices, graph.num_vertices))
            rounds_per_source: list[float] = []
            iterations = 0
            for source in range(graph.num_vertices):
                report = bellman_ford_distributed(graph, source)
                distances[source] = report.distances
                rounds_per_source.append(report.rounds)
                iterations += report.iterations
        outcome = SolveOutcome(
            distances=distances,
            rounds=float(sum(rounds_per_source)),
            solver=self.name,
            details={
                "sources": graph.num_vertices,
                "relaxation_iterations": iterations,
                "rounds_per_source": rounds_per_source,
            },
        )
        _observe_solve(self.name, started, outcome)
        return outcome


class CensorHillelSolver:
    """The classical ``Õ(n^{1/3})``-round distributed APSP baseline.

    Repeated distributed min-plus squaring over the cube partition
    (Censor-Hillel et al.), message-accurate on the simulator; ``details``
    carries the squaring count and the per-phase round breakdown.
    """

    name = "censor-hillel"
    capabilities = SolverCapabilities(
        distributed=True,
        description="Censor-Hillel Õ(n^{1/3})-round distributed squaring APSP",
    )

    def __init__(self, options: SolveOptions) -> None:
        self.options = options

    def solve(self, graph: WeightedDigraph) -> SolveOutcome:
        started = time.perf_counter()
        with telemetry.span(
            "solver.solve", solver=self.name, n=graph.num_vertices
        ) as span:
            report = CensorHillelAPSP().solve(graph)
            span.set("rounds", report.rounds)
        outcome = SolveOutcome(
            distances=report.distances,
            rounds=report.rounds,
            solver=self.name,
            squarings=report.squarings,
            details={"rounds_by_phase": report.ledger.snapshot()},
        )
        _observe_solve(self.name, started, outcome)
        return outcome


class FloydWarshallSolver:
    """The centralized ``O(n³)`` oracle — fastest wall clock, zero rounds."""

    name = "floyd-warshall"
    capabilities = SolverCapabilities(
        rounds_accounted=False,
        description="centralized numpy Floyd–Warshall oracle",
    )

    def __init__(self, options: SolveOptions) -> None:
        self.options = options

    def solve(self, graph: WeightedDigraph) -> SolveOutcome:
        started = time.perf_counter()
        with telemetry.span(
            "solver.solve", solver=self.name, n=graph.num_vertices
        ):
            distances = floyd_warshall(graph)
        outcome = SolveOutcome(distances=distances, rounds=0.0, solver=self.name)
        _observe_solve(self.name, started, outcome)
        return outcome

    def solve_stack(self, weights: np.ndarray) -> SolveOutcome:
        """Solve a ``(G, n, n)`` weight stack in one stacked relaxation.

        Byte-identical to :meth:`solve` on ``WeightedDigraph(weights[i])``
        for every ``i``; the outcome's ``distances`` is the ``(G, n, n)``
        closure stack and ``rounds`` the per-graph charge (0).  The oracle
        is seed-free, so one solver serves the whole stack; telemetry counts
        ``G`` solves.
        """
        started = time.perf_counter()
        graphs, n = weights.shape[0], weights.shape[-1]
        with telemetry.span("solver.solve", solver=self.name, n=n, graphs=graphs):
            distances = apsp_distances_stack(weights)
        outcome = SolveOutcome(
            distances=distances, rounds=0.0, solver=self.name, details={"graphs": graphs}
        )
        _observe_solve(self.name, started, outcome, graphs)
        return outcome


@dataclass(frozen=True)
class SolverSpec:
    """A registry entry: how to build a solver and what it can do."""

    name: str
    factory: Callable[[SolveOptions], Solver]
    capabilities: SolverCapabilities


_REGISTRY: dict[str, SolverSpec] = {}


def register_solver(
    name: str,
    factory: Callable[[SolveOptions], Solver],
    *,
    capabilities: SolverCapabilities | None = None,
    replace: bool = False,
) -> None:
    """Add a solver to the registry under ``name``.

    ``factory`` takes a :class:`SolveOptions` and returns a
    :class:`Solver`.  Re-registering an existing name requires
    ``replace=True`` so typos cannot silently shadow built-ins.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(f"solver {name!r} is already registered")
    _REGISTRY[name] = SolverSpec(
        name=name,
        factory=factory,
        capabilities=capabilities if capabilities is not None else SolverCapabilities(),
    )


def available_solvers() -> list[str]:
    """Sorted names of every registered solver."""
    return sorted(_REGISTRY)


def distributed_solvers() -> list[str]:
    """Sorted names of the solvers that run on the CONGEST-CLIQUE
    simulator (``capabilities.distributed``)."""
    return sorted(
        name for name, spec in _REGISTRY.items() if spec.capabilities.distributed
    )


def solver_capabilities(name: str) -> SolverCapabilities:
    """Declared capabilities of a registered solver."""
    return _require(name).capabilities


def make_solver(name: str, options: SolveOptions | None = None) -> Solver:
    """Instantiate a registered solver."""
    spec = _require(name)
    return spec.factory(options if options is not None else SolveOptions())


def _require(name: str) -> SolverSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_solvers())
        raise ValueError(f"unknown solver {name!r}; registered: {known}") from None


def _quantum_factory(options: SolveOptions) -> Solver:
    return PipelineSolver(
        "quantum",
        lambda opts: QuantumFindEdges(
            constants=PaperConstants(scale=opts.scale), rng=opts.seed,
        ),
        SolverCapabilities(
            distributed=True,
            description="Õ(n^{1/4})-round quantum pipeline (Theorem 1)",
        ),
        options,
    )


def _classical_factory(options: SolveOptions) -> Solver:
    return PipelineSolver(
        "classical",
        lambda opts: GroverFreeFindEdges(
            constants=PaperConstants(scale=opts.scale), rng=opts.seed,
        ),
        SolverCapabilities(
            distributed=True,
            description="Grover-free classical pipeline",
        ),
        options,
    )


def _reference_factory(options: SolveOptions) -> Solver:
    return PipelineSolver(
        "reference",
        lambda opts: ReferenceFindEdges(),
        SolverCapabilities(
            rounds_accounted=False,
            description="reduction pipeline over the centralized FindEdges reference",
        ),
        options,
    )


register_solver("quantum", _quantum_factory,
                capabilities=_quantum_factory(SolveOptions()).capabilities)
register_solver("classical", _classical_factory,
                capabilities=_classical_factory(SolveOptions()).capabilities)
register_solver("reference", _reference_factory,
                capabilities=_reference_factory(SolveOptions()).capabilities)
register_solver("floyd-warshall", FloydWarshallSolver,
                capabilities=FloydWarshallSolver.capabilities)
register_solver("bellman-ford", BellmanFordSolver,
                capabilities=BellmanFordSolver.capabilities)
register_solver("censor-hillel", CensorHillelSolver,
                capabilities=CensorHillelSolver.capabilities)
