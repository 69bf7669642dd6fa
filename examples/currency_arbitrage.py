#!/usr/bin/env python
"""Domain scenario: triangular-arbitrage detection as FindEdges.

A classic use of negative-triangle detection: take a currency market with
exchange rates ``r(u, v)``; using weights ``f(u, v) = −log r(u, v)``
(scaled to integers), a *negative triangle* is exactly a triple of
currencies whose cyclic conversion multiplies to more than 1 — a
triangular arbitrage opportunity.  The FindEdges output is the set of
currency *pairs* involved in at least one such opportunity.

The example runs all three backends of this library on the same market —
the centralized reference, the classical Dolev–Lenzen–Peled listing, and
the paper's quantum ComputePairs — and shows they agree while charging very
different CONGEST-CLIQUE round budgets.

Run:  python examples/currency_arbitrage.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core.problems import FindEdgesInstance


def synthetic_market(num_currencies: int, num_arbitrages: int, rng) -> np.ndarray:
    """Integer-scaled −log exchange-rate weights with planted arbitrage
    triangles (mirrors how a real pipeline would quantize log-rates)."""
    graph, planted = repro.planted_negative_triangle_graph(
        num_currencies,
        num_planted=num_arbitrages,
        triangles_per_pair=2,
        base_weight=12,
        rng=rng,
    )
    return graph, planted


def main() -> None:
    rng = 2024
    num_currencies = 20
    graph, planted = synthetic_market(num_currencies, num_arbitrages=4, rng=rng)
    instance = FindEdgesInstance(graph)
    truth = instance.reference_solution()
    print(
        f"market: {num_currencies} currencies, {graph.num_edges} quoted pairs, "
        f"{len(truth)} pairs involved in arbitrage triangles "
        f"({len(planted)} planted seeds)"
    )

    constants = repro.PaperConstants(scale=0.5)
    backends = {
        "reference (centralized)": repro.ReferenceFindEdges(),
        "Dolev et al. (classical n^{1/3})": repro.DolevFindEdges(),
        "quantum ComputePairs (n^{1/4})": repro.QuantumFindEdges(
            constants=constants, rng=rng
        ),
    }
    for name, backend in backends.items():
        solution = backend.find_edges(instance)
        status = "exact" if solution.pairs == truth else (
            f"{len(truth - solution.pairs)} missed"
        )
        print(f"  {name:<36} rounds={solution.rounds:>12,.0f}  [{status}]")

    # Drill into one arbitrage pair: enumerate its witnesses.
    some_pair = sorted(planted)[0]
    counts = repro.negative_triangle_counts(graph)
    print(
        f"pair {some_pair} participates in {counts[some_pair]} arbitrage "
        "triangles; witnesses:"
    )
    u, v = some_pair
    for (a, b, c) in repro.negative_triangles(graph):
        if {u, v} <= {a, b, c}:
            w = ({a, b, c} - {u, v}).pop()
            total = (
                graph.weight(u, v) + graph.weight(u, w) + graph.weight(v, w)
            )
            print(f"  via currency {w}: cycle log-weight {total:+.0f} (< 0 ⇒ profit)")


if __name__ == "__main__":
    main()
