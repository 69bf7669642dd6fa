"""Distributed Bellman–Ford SSSP — the textbook ``O(n)``-round baseline.

The paper observes that its APSP algorithm is also the best known *SSSP*
algorithm in the CONGEST-CLIQUE model.  This module provides the naive
comparator: synchronous Bellman–Ford, where in each round every node
broadcasts its tentative distance (one word) and relaxes over its incoming
edges — ``n − 1`` rounds worst case, message-accurate on the simulator.
Together with :class:`~repro.baselines.censor_hillel.CensorHillelAPSP`
(``Õ(n^{1/3})`` for *all* sources at once) and the quantum solver, it
completes the SSSP round-cost spectrum the benchmarks compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.congest.accounting import RoundLedger
from repro.congest.network import CongestClique
from repro.errors import NegativeCycleError
from repro.graphs.digraph import WeightedDigraph


@dataclass
class SSSPReport:
    """Distances from one source plus the round charge."""

    source: int
    distances: np.ndarray
    rounds: float
    iterations: int
    ledger: RoundLedger = field(default_factory=RoundLedger)


def bellman_ford_distributed(graph: WeightedDigraph, source: int) -> SSSPReport:
    """Synchronous distributed Bellman–Ford from ``source``.

    Each iteration: every node with a finite tentative distance broadcasts
    it (one word, so all concurrent broadcasts fit in one round); every
    node relaxes over its in-edges locally.  Terminates early when no
    distance changed (the termination itself is detectable with a
    constant-round converge-cast, charged as part of the iteration).
    Raises :class:`NegativeCycleError` if relaxation still succeeds after
    ``n − 1`` iterations.  Deterministic: it takes no generator.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for n={n}")
    with telemetry.span("baseline.bellman_ford_sssp", n=n, source=source):
        return _bellman_ford(graph, source)


def _bellman_ford(graph: WeightedDigraph, source: int) -> SSSPReport:
    n = graph.num_vertices
    network = CongestClique(n)
    collector = telemetry.active()
    if collector is not None:
        collector.attach(network)
    weights = graph.weights

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    iterations = 0
    for _ in range(n - 1):
        iterations += 1
        # Every node with a finite tentative distance broadcasts it (one
        # word each); the relaxation below computes the receiver-side state
        # directly, so the broadcast is payload-elided and columnar.
        broadcasters = np.nonzero(np.isfinite(dist))[0]
        network.broadcast_volume(
            broadcasters,
            np.ones(broadcasters.size, dtype=np.int64),
            f"bellman_ford.iter{iterations}",
        )
        # Local relaxation at every node over its in-edges.
        candidate = (dist[:, None] + weights).min(axis=0)
        updated = np.minimum(dist, candidate)
        if np.array_equal(
            np.nan_to_num(updated, posinf=1e300),
            np.nan_to_num(dist, posinf=1e300),
        ):
            dist = updated
            break
        dist = updated
    # One more relaxation detects negative cycles reachable from source.
    candidate = (dist[:, None] + weights).min(axis=0)
    if (candidate < dist).any():
        raise NegativeCycleError(f"negative cycle reachable from source {source}")
    return SSSPReport(
        source=source,
        distances=dist,
        rounds=network.ledger.total,
        iterations=iterations,
        ledger=network.ledger,
    )
