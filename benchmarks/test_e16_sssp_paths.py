"""E16 — the extensions: SSSP round spectrum and path reconstruction.

Two paper remarks get their numbers here:

* "the above Õ(n^{1/3})-round [algorithm] is … also the best known exact
  algorithm for SSSP in the CONGEST-CLIQUE model" — we measure the SSSP
  spectrum: naive distributed Bellman–Ford (``O(n)`` rounds), the
  Censor-Hillel APSP (``Õ(n^{1/3})``, all sources at once), and the
  analytic quantum bound (``Õ(n^{1/4})``).
* footnote 1: paths, not just lengths, at a polylog overhead — we measure
  the overhead of the hop-augmented + witnessed-product construction and
  verify every reconstructed path realizes its distance.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis import RoundModel, fit_exponent, format_table
from repro.core.apsp_solver import QuantumAPSP
from repro.core.paths import APSPWithPaths
from repro.matrix.witness import path_weight

from benchmarks.conftest import write_result


def test_e16a_sssp_spectrum(benchmark):
    model = RoundModel()
    rows = []
    bf_rounds = []
    sizes = [27, 64, 125, 216]
    for n in sizes:
        graph = repro.random_digraph_no_negative_cycle(n, density=0.4, rng=3)
        truth = repro.floyd_warshall(graph)
        bf = repro.bellman_ford_distributed(graph, 0)
        assert np.array_equal(bf.distances, truth[0])
        assert repro.validate_sssp(graph, 0, bf.distances)
        ch = repro.CensorHillelAPSP().solve(graph)
        assert np.array_equal(ch.distances, truth)
        bf_rounds.append(bf.rounds)
        rows.append(
            [n, bf.rounds, ch.rounds, model.quantum_apsp_leading(n)]
        )
    exponent, _, _ = fit_exponent(sizes, bf_rounds)
    table = format_table(
        ["n", "bellman-ford (1 src)", "censor-hillel (all src)", "quantum leading"],
        rows,
        title=(
            "E16a  SSSP round spectrum "
            f"(Bellman–Ford fitted exponent {exponent:.2f}; "
            "O(n) vs Õ(n^{1/3}) vs Õ(n^{1/4}))"
        ),
    )
    write_result("e16a_sssp_spectrum", table)
    # Bellman–Ford's iteration count tracks the graph's hop diameter; on
    # dense random digraphs that is O(log n), so the interesting check is
    # absolute: BF is cheap per source but cannot batch all sources.
    assert all(row[1] > 0 for row in rows)

    benchmark.pedantic(
        repro.bellman_ford_distributed,
        args=(repro.random_digraph_no_negative_cycle(64, density=0.4, rng=5), 0),
        rounds=1,
        iterations=1,
    )


def test_e16b_path_reconstruction_overhead(benchmark):
    rows = []
    for n in [8, 12, 16]:
        graph = repro.random_digraph_no_negative_cycle(n, density=0.5, rng=7)
        truth = repro.floyd_warshall(graph)
        base = QuantumAPSP(backend=repro.ReferenceFindEdges())

        plain = base.solve(graph)
        with_paths = APSPWithPaths(
            QuantumAPSP(backend=repro.DolevFindEdges()),
            witness_backend=repro.DolevFindEdges(),
        ).solve(graph)
        distance_only = QuantumAPSP(backend=repro.DolevFindEdges()).solve(graph)

        assert np.array_equal(plain.distances, truth)
        assert np.array_equal(with_paths.distances, truth)
        # Every path realizes its distance.
        weights = graph.apsp_matrix()
        checked = 0
        for i in range(n):
            for j in range(n):
                path = with_paths.path(i, j)
                if path is None:
                    assert not np.isfinite(truth[i, j])
                else:
                    assert path_weight(weights, path) == truth[i, j]
                    checked += 1
        overhead = with_paths.rounds / distance_only.rounds
        rows.append([n, distance_only.rounds, with_paths.rounds, overhead, checked])
    table = format_table(
        ["n", "distances only", "with paths", "overhead ×", "paths verified"],
        rows,
        title=(
            "E16b  path reconstruction overhead (footnote 1)\n"
            "hop augmentation + witnessed product: a small constant/log factor"
        ),
    )
    write_result("e16b_path_overhead", table)
    # Footnote's claim: polylog, i.e. a small multiplicative factor here.
    assert all(1.0 <= row[3] < 6.0 for row in rows)

    benchmark.pedantic(
        lambda: APSPWithPaths(QuantumAPSP(backend=repro.ReferenceFindEdges())).solve(
            repro.random_digraph_no_negative_cycle(10, density=0.5, rng=9)
        ),
        rounds=1,
        iterations=1,
    )
