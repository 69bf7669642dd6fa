"""E10 — Lemma 1 (Dolev–Lenzen–Peled routing).

Paper claim: a message set in which no node sources or sinks more than
``n`` messages is deliverable in 2 rounds; the standard generalization
schedules an arbitrary batch in ``2·⌈L/n⌉`` rounds for max load ``L``.

What this regenerates: the router's charge across balanced, skewed and
adversarial message sets, plus the Step-1 load pattern of ComputePairs
whose ``Θ(n^{5/4})`` per-node volume yields the ``O(n^{1/4})`` charge the
paper's analysis quotes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.analysis import fit_exponent, format_table
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.compute_pairs import _step1_load

from benchmarks.conftest import write_metrics, write_result


def synthetic_batches(n: int):
    """(name, src_load, dst_load) triples with known expected charges."""
    rng = np.random.default_rng(0)
    uniform = [n] * n
    one_hot = [0] * n
    one_hot[0] = n * n  # single node sinks everything
    random_perm = rng.integers(0, 2 * n, size=n).tolist()
    return [
        ("balanced (Lemma 1 premise)", uniform, uniform, 2.0),
        ("single hot sink", [n] * n, one_hot, 2.0 * n),
        ("random ≤2n loads", random_perm, random_perm, None),
        ("empty", [0] * n, [0] * n, 0.0),
    ]


def step1_rounds(n: int) -> float:
    network = CongestClique(n)
    partitions = CliquePartitions(n)
    network.register_scheme("triple", int(np.prod(partitions.grid_shape)))
    _step1_load(network, partitions)
    return network.ledger.rounds("compute_pairs.step1_load")


def test_e10_routing(benchmark):
    from repro.congest.router import route_rounds

    n = 64
    rows = []
    for name, src, dst, expected in synthetic_batches(n):
        got = route_rounds(n, src, dst)
        if expected is not None:
            assert got == expected
        max_load = max(max(src), max(dst))
        rows.append([name, max_load, got, 2 * np.ceil(max_load / n)])
    table = format_table(
        ["batch", "max load L", "rounds", "2·⌈L/n⌉"],
        rows,
        title="E10a  Lemma 1 router charges on synthetic batches (n=64)",
    )
    write_result("e10a_routing", table)

    # Step-1 gather: per-node Θ(n^{5/4}) words ⇒ ~n^{1/4} rounds.
    sizes = [16, 81, 256, 625]
    rounds = []
    metrics = []
    for n in sizes:
        start = time.perf_counter()
        charged = step1_rounds(n)
        wall = time.perf_counter() - start
        rounds.append(charged)
        metrics.append(
            {"n": n, "wall_seconds": round(wall, 4), "rounds": charged}
        )
    exponent, _, r2 = fit_exponent(sizes, rounds)
    rows = [[n, r, 4 * n ** 0.25] for n, r in zip(sizes, rounds)]
    table = format_table(
        ["n", "step-1 rounds", "≈4·n^{1/4}"],
        rows,
        title=f"E10b  ComputePairs Step-1 gather (fitted exponent {exponent:.2f}, paper: 1/4)",
    )
    write_result("e10b_step1_gather", table)
    write_metrics("e10b_step1_gather", metrics)
    assert 0.1 < exponent < 0.4
    assert r2 > 0.9

    benchmark.pedantic(step1_rounds, args=(81,), rounds=1, iterations=1)
