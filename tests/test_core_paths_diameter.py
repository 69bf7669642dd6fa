"""Tests for APSPWithPaths (footnote 1) and the quantum diameter (§4.1)."""

import numpy as np
import pytest

import repro
from repro.core.apsp_solver import QuantumAPSP
from repro.core.diameter import eccentricities, quantum_diameter
from repro.core.paths import APSPWithPaths
from repro.errors import GraphError
from repro.matrix.witness import path_weight

from tests.conftest import TEST_CONSTANTS


class TestAPSPWithPaths:
    def test_reference_pipeline_paths(self, small_digraph):
        solver = APSPWithPaths(QuantumAPSP(backend=repro.ReferenceFindEdges()))
        report = solver.solve(small_digraph)
        truth = repro.floyd_warshall(small_digraph)
        assert np.array_equal(report.distances, truth)
        weights = small_digraph.apsp_matrix()
        n = small_digraph.num_vertices
        for i in range(n):
            for j in range(n):
                path = report.path(i, j)
                if path is None:
                    assert not np.isfinite(truth[i, j])
                else:
                    assert path_weight(weights, path) == truth[i, j]

    def test_distributed_witness_backend_charges_rounds(self, small_digraph):
        base = QuantumAPSP(backend=repro.ReferenceFindEdges())
        plain = APSPWithPaths(base).solve(small_digraph)
        with_backend = APSPWithPaths(
            QuantumAPSP(backend=repro.ReferenceFindEdges()),
            witness_backend=repro.DolevFindEdges(),
        ).solve(small_digraph)
        assert with_backend.rounds > plain.rounds
        assert any(
            name.startswith("witness.") for name, _ in with_backend.ledger.phases()
        )
        # Both successor matrices yield shortest paths (they may differ in
        # tie-breaking only; weights must agree).
        truth = repro.floyd_warshall(small_digraph)
        weights = small_digraph.apsp_matrix()
        for i in range(small_digraph.num_vertices):
            for j in range(small_digraph.num_vertices):
                p1 = plain.path(i, j)
                p2 = with_backend.path(i, j)
                assert (p1 is None) == (p2 is None)
                if p1 is not None:
                    assert path_weight(weights, p1) == path_weight(weights, p2)

    def test_full_quantum_stack_with_paths(self):
        graph = repro.random_digraph_no_negative_cycle(8, density=0.5, rng=6)
        backend = repro.QuantumFindEdges(constants=TEST_CONSTANTS, rng=6)
        solver = APSPWithPaths(QuantumAPSP(backend=backend))
        report = solver.solve(graph)
        truth = repro.floyd_warshall(graph)
        assert np.array_equal(report.distances, truth)
        path = report.path(0, int(np.argmax(np.where(np.isfinite(truth[0]), truth[0], -1))))
        assert path is not None


class TestEccentricities:
    def test_matches_distance_rows(self, small_digraph):
        distances = repro.floyd_warshall(small_digraph)
        assert np.array_equal(eccentricities(small_digraph), distances.max(axis=1))

    def test_disconnected_is_inf(self):
        graph = repro.WeightedDigraph.from_edges(3, [(0, 1, 1)])
        assert np.isinf(eccentricities(graph)).all() or np.isinf(
            eccentricities(graph)[0]
        )


class TestQuantumDiameter:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_on_random_strongly_connected(self, seed):
        # Build a strongly connected digraph: random + a covering cycle.
        n = 9
        rng = np.random.default_rng(seed)
        base = repro.random_digraph_no_negative_cycle(
            n, density=0.4, max_weight=6, rng=seed
        ).weights.copy()
        for i in range(n):
            j = (i + 1) % n
            if not np.isfinite(base[i, j]):
                base[i, j] = 5.0
        graph = repro.WeightedDigraph(base)
        expected = float(eccentricities(graph).max())
        report = quantum_diameter(graph, rng=seed)
        assert report.diameter == expected
        assert report.rounds > 0
        assert report.search_calls >= report.binary_steps

    def test_disconnected_reports_inf(self):
        graph = repro.WeightedDigraph.from_edges(4, [(0, 1, 2), (1, 0, 2)])
        report = quantum_diameter(graph, rng=1)
        assert report.diameter == float("inf")
        assert report.binary_steps == 0  # short-circuit, no bisection

    def test_single_vertex(self):
        graph = repro.WeightedDigraph(np.full((1, 1), np.inf))
        report = quantum_diameter(graph, rng=0)
        assert report.diameter == 0.0

    def test_two_cycle(self):
        graph = repro.WeightedDigraph.from_edges(2, [(0, 1, 3), (1, 0, 7)])
        report = quantum_diameter(graph, rng=0)
        assert report.diameter == 7.0

    def test_eval_rounds_scale_total(self):
        graph = repro.WeightedDigraph.from_edges(2, [(0, 1, 3), (1, 0, 7)])
        cheap = quantum_diameter(graph, eval_rounds=1.0, rng=3)
        pricey = quantum_diameter(graph, eval_rounds=50.0, rng=3)
        assert pricey.rounds > cheap.rounds
        assert pricey.diameter == cheap.diameter == 7.0

    def test_empty_graph_rejected(self):
        with pytest.raises(Exception):
            quantum_diameter(repro.WeightedDigraph(np.empty((0, 0))), rng=0)
