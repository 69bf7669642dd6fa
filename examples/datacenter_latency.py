#!/usr/bin/env python
"""Domain scenario: all-pairs latency maps for a datacenter overlay.

The CONGEST-CLIQUE model is the natural abstraction for rack-scale
all-to-all fabrics: every node can talk to every node each round, but each
link carries only a header-sized message.  Computing the all-pairs
shortest-path (APSP) map of a *logical* overlay network (whose weighted
edges encode measured one-way latencies, possibly with negative clock-skew
corrections) is then exactly the paper's problem.

This example builds a synthetic overlay with skew-corrected latencies,
solves the APSP map with the quantum algorithm and the classical baseline,
verifies both, and prints the per-phase round budget — the quantity a
deployment would care about.

Run:  python examples/datacenter_latency.py
"""

from __future__ import annotations

import numpy as np

import repro


def overlay_with_clock_skew(num_nodes: int, rng) -> repro.WeightedDigraph:
    """Latencies in microseconds plus per-node clock-skew potentials.

    One-way delay measurements between imperfectly synchronized hosts are
    true latency ± (skew_src − skew_dst): exactly the potential-shifted
    weights of ``random_digraph_no_negative_cycle`` — individual edges can
    go negative while every cycle stays non-negative (physics is safe).
    """
    return repro.random_digraph_no_negative_cycle(
        num_nodes,
        density=0.4,
        max_weight=50,
        negative_fraction=0.4,
        rng=rng,
    )


def main() -> None:
    seed = 11
    overlay = overlay_with_clock_skew(9, rng=seed)
    print(f"overlay: {overlay} (weights = skew-corrected latencies, µs)")

    truth = repro.floyd_warshall(overlay)

    constants = repro.PaperConstants(scale=0.5)
    quantum = repro.QuantumAPSP(
        backend=repro.QuantumFindEdges(constants=constants, rng=seed)
    ).solve(overlay)
    classical = repro.CensorHillelAPSP().solve(overlay)
    assert np.array_equal(quantum.distances, truth)
    assert np.array_equal(classical.distances, truth)
    print("both solvers verified against Floyd–Warshall ✓")

    reachable = np.isfinite(truth) & (truth > 0)
    print(
        f"latency map: {int(reachable.sum())} reachable ordered pairs, "
        f"worst path {truth[reachable].max():.0f}µs, "
        f"best negative correction {truth[reachable].min():.0f}µs"
    )

    print(f"\nround budgets  quantum={quantum.rounds:,.0f}  classical={classical.rounds:,.0f}")
    print("quantum per-phase breakdown (top 8):")
    for name, rounds in sorted(quantum.ledger.phases(), key=lambda kv: -kv[1])[:8]:
        print(f"  {name:<64} {rounds:>12,.0f}")

    # What the analytic model says happens at scale.
    model = repro.RoundModel()
    print("\nanalytic model at datacenter scales (leading terms):")
    for k in (10, 16, 20):
        n = 2 ** k
        print(
            f"  n=2^{k}: quantum ≈ {model.quantum_apsp_leading(n):,.0f}, "
            f"classical ≈ {model.classical_apsp_leading(n):,.0f} rounds"
        )


if __name__ == "__main__":
    main()
