"""Theorem 1: the end-to-end quantum APSP solver.

Composes the three reductions:

* Proposition 3 — APSP by ``⌈log2 n⌉`` squarings of ``A_G`` under the
  distance product;
* Proposition 2 — each distance product by ``O(log M)`` FindEdges calls on
  tripartite graphs (``M ≤ nW`` during the squaring schedule);
* Proposition 1 + Theorem 2 — each FindEdges by ``O(log n)`` runs of the
  ``Õ(n^{1/4})``-round quantum Algorithm ComputePairs.

The ``backend`` is pluggable so the identical driver measures the quantum
solver, the classical Dolev-style baseline, or the centralized reference —
experiment E1's comparison swaps only this argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.congest.accounting import RoundLedger
from repro.core.constants import SIMULATION, PaperConstants
from repro.core.find_edges import QuantumFindEdges, ReferenceFindEdges
from repro.core.problems import FindEdgesBackend
from repro.core.reductions import DistanceProductReport, distance_product_via_find_edges
from repro.graphs.digraph import WeightedDigraph
from repro.matrix.apsp import apsp_via_product
from repro.util.rng import RngLike, ensure_rng


@dataclass
class APSPReport:
    """Result of an end-to-end APSP run.

    ``distances[i, j]`` is the shortest-path distance (``+∞`` when ``j`` is
    unreachable from ``i``); ``rounds`` the total CONGEST-CLIQUE charge;
    ``squarings``/``find_edges_calls`` count the reduction's invocations.
    """

    distances: np.ndarray
    rounds: float
    squarings: int
    find_edges_calls: int
    ledger: RoundLedger = field(default_factory=RoundLedger)
    aborts: int = 0


class QuantumAPSP:
    """The paper's APSP solver (Theorem 1) with a pluggable FindEdges core.

    Parameters
    ----------
    backend:
        Any :class:`~repro.core.problems.FindEdgesBackend`.  Defaults to the
        full quantum stack (:class:`QuantumFindEdges` with the given
        constants); pass :class:`ReferenceFindEdges` to exercise only the
        reduction logic, or a baseline backend for comparisons.
    """

    def __init__(
        self,
        backend: FindEdgesBackend | None = None,
        *,
        constants: PaperConstants = SIMULATION,
        rng: RngLike = None,
    ) -> None:
        self.rng = ensure_rng(rng)
        self.constants = constants
        self.backend = backend if backend is not None else QuantumFindEdges(
            constants=constants, rng=self.rng
        )

    def solve(self, graph: WeightedDigraph) -> APSPReport:
        """Compute all-pairs shortest distances of a digraph with integer
        weights and no negative cycle.

        Raises :class:`NegativeCycleError` if the closure certifies a
        negative cycle (negative diagonal entry).  The squaring schedule is
        Proposition 3's :func:`~repro.matrix.apsp.apsp_via_product`.
        """
        ledger = RoundLedger()
        reports: list[DistanceProductReport] = []

        def square(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            report = distance_product_via_find_edges(a, b, self.backend)
            ledger.merge(report.ledger, prefix=f"squaring{len(reports)}.")
            reports.append(report)
            return report.product

        distances = apsp_via_product(graph, square)
        total_rounds = 0.0
        for report in reports:  # left to right, as the squarings ran
            total_rounds += report.rounds
        return APSPReport(
            distances=distances,
            rounds=total_rounds,
            squarings=len(reports),
            find_edges_calls=sum(report.find_edges_calls for report in reports),
            ledger=ledger,
            aborts=sum(report.aborts for report in reports),
        )


def solve_apsp_reference_pipeline(graph: WeightedDigraph) -> APSPReport:
    """Run the full reduction pipeline with the centralized reference
    backend — validates the reductions' logic at zero round cost."""
    solver = QuantumAPSP(backend=ReferenceFindEdges())
    return solver.solve(graph)
