#!/usr/bin/env python
"""Quickstart: solve APSP with the quantum CONGEST-CLIQUE algorithm.

Builds a small random directed graph (negative edges, no negative cycle),
runs the full Theorem-1 stack — repeated squaring → distance products via
negative-triangle detection → Algorithm ComputePairs with distributed
Grover searches — and verifies the distances against Floyd–Warshall.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro


def main() -> None:
    seed = 7
    graph = repro.random_digraph_no_negative_cycle(
        10, density=0.5, max_weight=8, rng=seed
    )
    print(f"input: {graph}")

    # The scale knob keeps the paper's constants' ratios while letting the
    # probabilistic machinery engage at demo sizes (see repro.core.constants).
    constants = repro.PaperConstants(scale=0.5)
    backend = repro.QuantumFindEdges(constants=constants, rng=seed)
    solver = repro.QuantumAPSP(backend=backend)

    report = solver.solve(graph)
    truth = repro.floyd_warshall(graph)
    assert np.array_equal(report.distances, truth), "distances mismatch!"

    print(f"distances verified against Floyd–Warshall ✓")
    print(
        f"simulated CONGEST-CLIQUE rounds: {report.rounds:,.0f} "
        f"({report.squarings} squarings, {report.find_edges_calls} FindEdges calls)"
    )

    # Where did the rounds go?  Show the five most expensive phases.
    phases = sorted(report.ledger.phases(), key=lambda kv: -kv[1])[:5]
    print("top phases:")
    for name, rounds in phases:
        print(f"  {name:<60} {rounds:>12,.0f}")

    # Compare with the classical baseline on the same instance.
    classical = repro.CensorHillelAPSP().solve(graph)
    assert np.array_equal(classical.distances, truth)
    print(
        f"classical Censor-Hillel baseline: {classical.rounds:,.0f} rounds "
        "(at demo sizes the classical constants win; the quantum advantage "
        "is asymptotic — see benchmarks/test_e9_crossover.py)"
    )


if __name__ == "__main__":
    main()
