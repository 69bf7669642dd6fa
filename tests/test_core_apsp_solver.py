"""Tests for the Theorem 1 end-to-end solver."""

import numpy as np
import pytest

import repro
from repro.errors import NegativeCycleError
from repro.graphs.digraph import WeightedDigraph

from tests.conftest import TEST_CONSTANTS


class TestReferencePipeline:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_floyd_warshall(self, seed):
        graph = repro.random_digraph_no_negative_cycle(9, density=0.5, rng=seed)
        report = repro.solve_apsp_reference_pipeline(graph)
        assert np.array_equal(report.distances, repro.floyd_warshall(graph))

    def test_squaring_count(self):
        graph = repro.random_digraph_no_negative_cycle(9, density=0.5, rng=0)
        report = repro.solve_apsp_reference_pipeline(graph)
        assert report.squarings == int(np.ceil(np.log2(9)))

    def test_negative_cycle_raises(self):
        graph = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, -5), (2, 0, 1)])
        with pytest.raises(NegativeCycleError):
            repro.solve_apsp_reference_pipeline(graph)

    def test_disconnected_graph(self):
        graph = WeightedDigraph.from_edges(6, [(0, 1, 2), (2, 3, 1)])
        report = repro.solve_apsp_reference_pipeline(graph)
        fw = repro.floyd_warshall(graph)
        assert np.array_equal(report.distances, fw)
        assert np.isinf(report.distances[0, 3])


class TestQuantumSolver:
    def test_end_to_end_exact(self, small_digraph):
        backend = repro.QuantumFindEdges(constants=TEST_CONSTANTS, rng=2)
        solver = repro.QuantumAPSP(backend=backend)
        report = solver.solve(small_digraph)
        assert np.array_equal(report.distances, repro.floyd_warshall(small_digraph))
        assert report.rounds > 0
        assert report.find_edges_calls >= report.squarings

    def test_negative_weights_no_cycle(self):
        graph = WeightedDigraph.from_edges(
            6, [(0, 1, -3), (1, 2, 5), (2, 3, -1), (0, 3, 10), (3, 4, 2), (4, 5, -2)]
        )
        backend = repro.QuantumFindEdges(constants=TEST_CONSTANTS, rng=4)
        report = repro.QuantumAPSP(backend=backend).solve(graph)
        assert np.array_equal(report.distances, repro.floyd_warshall(graph))

    def test_default_backend_is_quantum(self):
        solver = repro.QuantumAPSP(constants=TEST_CONSTANTS, rng=0)
        assert isinstance(solver.backend, repro.QuantumFindEdges)

    def test_ledger_merged_per_squaring(self, small_digraph):
        backend = repro.QuantumFindEdges(constants=TEST_CONSTANTS, rng=2)
        report = repro.QuantumAPSP(backend=backend).solve(small_digraph)
        phases = report.ledger.snapshot()
        assert any(name.startswith("squaring0.") for name in phases)
        assert report.rounds == pytest.approx(report.ledger.total)


class TestDolevBackedSolver:
    @pytest.mark.parametrize("seed", range(3))
    def test_exact(self, seed):
        graph = repro.random_digraph_no_negative_cycle(8, density=0.5, rng=seed)
        solver = repro.QuantumAPSP(backend=repro.DolevFindEdges())
        report = solver.solve(graph)
        assert np.array_equal(report.distances, repro.floyd_warshall(graph))
