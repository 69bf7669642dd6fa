"""Smoke benchmarks — one small, fast unit per experiment family.

CI's ``bench-smoke`` job runs ``pytest benchmarks -k smoke`` so that builder
or solver regressions surface on every push without paying for the full
experiment sweeps.  Each test exercises the same code path as its family's
full experiment (E-file of the same number) at the smallest meaningful
size, asserting correctness, not performance.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis import RoundModel
from repro.baselines.censor_hillel import distributed_minplus_product
from repro.congest.partitions import CliquePartitions
from repro.core.constants import PaperConstants
from repro.core.problems import FindEdgesInstance
from repro.matrix.semiring import distance_product
from repro.quantum import GroverAmplitudeTracker, MultiSearch, optimal_iterations


def smoke_instance(n=16, seed=3):
    graph = repro.random_undirected_graph(n, density=0.4, max_weight=5, rng=seed)
    return FindEdgesInstance(graph)


def test_smoke_e1_quantum_apsp():
    graph = repro.random_digraph_no_negative_cycle(8, density=0.5, max_weight=5, rng=3)
    backend = repro.QuantumFindEdges(constants=PaperConstants(scale=0.5), rng=3)
    report = repro.QuantumAPSP(backend=backend).solve(graph)
    assert np.array_equal(report.distances, repro.floyd_warshall(graph))
    assert report.rounds > 0


def test_smoke_e2_e3_find_edges():
    instance = smoke_instance()
    solution = repro.compute_pairs(instance, constants=PaperConstants(scale=0.5), rng=5)
    truth = instance.reference_solution()
    assert solution.pairs <= truth  # verification forbids false positives
    assert solution.rounds > 0


def test_smoke_e4_distance_product():
    rng = np.random.default_rng(2)
    a = rng.integers(-3, 8, size=(24, 24)).astype(float)
    product, ledger = distributed_minplus_product(a, a)
    assert np.array_equal(product, distance_product(a, a))
    assert ledger.total > 0


def test_smoke_e5_grover():
    tracker = GroverAmplitudeTracker(64, 1)
    assert tracker.success_probability(optimal_iterations(64)) > 0.9


def test_smoke_e6_multisearch():
    rng = np.random.default_rng(7)
    table = rng.random((6, 5)) < 0.5
    table[0] = True  # at least one fully solvable search
    report = MultiSearch(5, [np.flatnonzero(row) for row in table], rng=7).run()
    solvable = table.any(axis=1)
    assert (report.found_mask() <= solvable).all()
    assert report.rounds > 0


def test_smoke_e7_e8_partitions_and_classes():
    partitions = CliquePartitions(81)
    assert partitions.num_coarse == 3 and partitions.num_fine == 9
    total = sum(len(block) for block in partitions.coarse.blocks())
    assert total == 81
    solution = repro.compute_pairs(
        smoke_instance(), constants=PaperConstants(scale=0.5), rng=1
    )
    assert max(solution.details["classes"]) >= 0


def test_smoke_e9_round_model():
    # The leading-term crossover E9 locates: C_q·n^{1/4} beats C_c·n^{1/3}
    # at some finite n (the polylog-laden full model never crosses — that
    # asymmetry is E9's headline finding, re-checked here in miniature).
    model = RoundModel()
    crossover = model.leading_crossover_n()
    assert np.isfinite(crossover)
    big = 4.0 * crossover
    assert model.quantum_apsp_leading(big) < model.classical_apsp_leading(big)


def test_smoke_e10_routing_and_step1():
    from repro.congest.network import CongestClique
    from repro.congest.router import route_rounds
    from repro.core.compute_pairs import _step1_load

    assert route_rounds(8, [8] * 8, [8] * 8) == 2.0
    network = CongestClique(16)
    partitions = CliquePartitions(16)
    network.register_scheme("triple", int(np.prod(partitions.grid_shape)))
    _step1_load(network, partitions)
    assert network.ledger.rounds("compute_pairs.step1_load") == 8.0


def test_smoke_e11_scale_knob():
    solution = repro.compute_pairs(
        smoke_instance(), constants=PaperConstants(scale=0.2), rng=9
    )
    truth = smoke_instance().reference_solution()
    assert len(solution.pairs - truth) == 0


def test_smoke_e16_sssp():
    graph = repro.random_digraph_no_negative_cycle(12, density=0.5, max_weight=5, rng=4)
    report = repro.bellman_ford_distributed(graph, source=0)
    assert np.array_equal(report.distances, repro.floyd_warshall(graph)[0])


def test_smoke_e13_e14_workload_and_step3():
    solution = repro.compute_pairs(
        smoke_instance(seed=11), constants=PaperConstants(scale=0.5), rng=11
    )
    assert solution.details["total_searches"] >= 0
    assert all(r >= 0 for r in solution.details["search_rounds_per_alpha"].values())


def test_smoke_a3_amplification():
    instance = smoke_instance(seed=6)
    truth = instance.reference_solution()
    solution = repro.compute_pairs(
        instance, constants=PaperConstants(scale=0.5), rng=6, amplification=12.0
    )
    assert solution.pairs <= truth
