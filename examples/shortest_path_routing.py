#!/usr/bin/env python
"""Domain scenario: route tables and network radius from one APSP run.

Shows the two extensions the paper mentions in passing:

* **paths, not just lengths** (footnote 1): `APSPWithPaths` runs the solver
  on hop-augmented weights and extracts first-hop successor tables — i.e.
  per-node routing tables — via one extra witnessed distance product;
* **the diameter algorithm** (§4.1's framework example): binary search over
  a threshold with one distributed quantum search per level.

Run:  python examples/shortest_path_routing.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core.apsp_solver import QuantumAPSP
from repro.core.paths import APSPWithPaths
from repro.matrix.witness import path_weight


def main() -> None:
    seed = 5
    n = 10
    # A strongly connected overlay: random edges plus a covering ring.
    base = repro.random_digraph_no_negative_cycle(
        n, density=0.35, max_weight=9, rng=seed
    ).weights.copy()
    for i in range(n):
        j = (i + 1) % n
        if not np.isfinite(base[i, j]):
            base[i, j] = 9.0
    graph = repro.WeightedDigraph(base)
    print(f"overlay: {graph}")

    solver = APSPWithPaths(
        QuantumAPSP(backend=repro.DolevFindEdges()),
        witness_backend=repro.DolevFindEdges(),
    )
    report = solver.solve(graph)
    truth = repro.floyd_warshall(graph)
    assert np.array_equal(report.distances, truth)
    assert repro.validate_apsp(graph, report.distances).valid
    print(f"distances + successor tables in {report.rounds:,.0f} rounds ✓")

    # Node 0's routing table: first hop toward every destination.
    print("\nnode 0 routing table (dst: first-hop, distance, hops):")
    for dst in range(1, n):
        hop = int(report.successors[0, dst])
        print(
            f"  → {dst}: via {hop}, distance {report.distances[0, dst]:.0f}, "
            f"{report.hops[0, dst]} hops"
        )

    # Spot-check a full path.
    far = int(np.argmax(report.distances[0]))
    path = report.path(0, far)
    assert path is not None
    assert path_weight(graph.apsp_matrix(), path) == truth[0, far]
    print(f"\nfull path 0 → {far}: {' → '.join(map(str, path))}")

    # Diameter via the §4.1 quantum search example.
    diameter = repro.quantum_diameter(graph, rng=seed)
    exact = float(repro.eccentricities(graph).max())
    assert diameter.diameter == exact
    print(
        f"\ndiameter = {diameter.diameter:.0f} "
        f"({diameter.search_calls} quantum searches, "
        f"{diameter.binary_steps} binary-search levels, "
        f"{diameter.rounds:,.0f} rounds) ✓"
    )


if __name__ == "__main__":
    main()
