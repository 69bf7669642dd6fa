"""Tests for distributed Bellman–Ford SSSP, the certificate validators, and
the Dolev triangle listing extension."""

import numpy as np
import pytest

import repro
from repro.analysis.validation import validate_apsp, validate_sssp
from repro.baselines.bellman_ford_distributed import bellman_ford_distributed
from repro.core.problems import FindEdgesInstance
from repro.errors import NegativeCycleError


class TestBellmanFordDistributed:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ground_truth(self, seed):
        graph = repro.random_digraph_no_negative_cycle(12, density=0.5, rng=seed)
        truth = repro.floyd_warshall(graph)
        for source in (0, 7):
            report = bellman_ford_distributed(graph, source)
            assert np.array_equal(report.distances, truth[source])

    def test_rounds_charged_per_iteration(self):
        # A weighted path graph forces n − 1 iterations from the head but
        # converges in ~k iterations from near the tail.
        n = 10
        graph = repro.WeightedDigraph.from_edges(
            n, [(i, i + 1, 1) for i in range(n - 1)]
        )
        from_head = bellman_ford_distributed(graph, 0)
        from_tail = bellman_ford_distributed(graph, n - 2)
        assert from_head.iterations > from_tail.iterations
        assert from_head.rounds >= from_head.iterations  # ≥1 round each

    def test_negative_cycle_detected(self):
        graph = repro.WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, -5), (2, 1, 1)])
        with pytest.raises(NegativeCycleError):
            bellman_ford_distributed(graph, 0)

    def test_unreachable_vertices_inf(self):
        graph = repro.WeightedDigraph.from_edges(4, [(0, 1, 2)])
        report = bellman_ford_distributed(graph, 0)
        assert np.isinf(report.distances[2])

    def test_bad_source_rejected(self):
        graph = repro.WeightedDigraph.from_edges(3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            bellman_ford_distributed(graph, 5)

    def test_cheaper_than_apsp_but_slower_asymptotics(self):
        # The point of the baseline: O(n) rounds vs Õ(n^{1/3}) for all
        # sources at once — per-source it wins at small n.
        graph = repro.random_digraph_no_negative_cycle(12, density=0.5, rng=2)
        sssp = bellman_ford_distributed(graph, 0)
        apsp = repro.CensorHillelAPSP().solve(graph)
        assert sssp.rounds < apsp.rounds


class TestValidateApsp:
    def test_accepts_floyd_warshall(self, small_digraph):
        truth = repro.floyd_warshall(small_digraph)
        assert validate_apsp(small_digraph, truth).valid

    def test_accepts_quantum_output(self, small_digraph):
        from tests.conftest import TEST_CONSTANTS

        backend = repro.QuantumFindEdges(constants=TEST_CONSTANTS, rng=2)
        report = repro.QuantumAPSP(backend=backend).solve(small_digraph)
        assert validate_apsp(small_digraph, report.distances).valid

    def test_rejects_underestimate(self, small_digraph):
        truth = repro.floyd_warshall(small_digraph)
        bad = truth.copy()
        finite = np.isfinite(bad) & ~np.eye(len(bad), dtype=bool)
        index = tuple(np.argwhere(finite)[0])
        bad[index] -= 1
        validation = validate_apsp(small_digraph, bad)
        assert not validation.valid
        assert not validation.tight  # underestimates break tightness

    def test_rejects_overestimate(self, small_digraph):
        truth = repro.floyd_warshall(small_digraph)
        bad = truth.copy()
        finite = np.isfinite(bad) & ~np.eye(len(bad), dtype=bool)
        index = tuple(np.argwhere(finite)[0])
        bad[index] += 1
        validation = validate_apsp(small_digraph, bad)
        assert not validation.valid

    def test_rejects_dirty_diagonal(self, small_digraph):
        truth = repro.floyd_warshall(small_digraph)
        bad = truth.copy()
        bad[0, 0] = -1
        assert not validate_apsp(small_digraph, bad).zero_diagonal

    def test_rejects_fake_reachability(self):
        graph = repro.WeightedDigraph.from_edges(3, [(0, 1, 2)])
        truth = repro.floyd_warshall(graph)
        bad = truth.copy()
        bad[0, 2] = 100.0  # claims a path that does not exist
        assert not validate_apsp(graph, bad).valid

    def test_shape_mismatch(self, small_digraph):
        with pytest.raises(ValueError):
            validate_apsp(small_digraph, np.zeros((2, 2)))


class TestValidateSssp:
    def test_accepts_bellman_ford(self, small_digraph):
        dist = repro.bellman_ford(small_digraph, 0)
        assert validate_sssp(small_digraph, 0, dist)

    def test_rejects_wrong_source_distance(self, small_digraph):
        dist = repro.bellman_ford(small_digraph, 0).copy()
        dist[0] = 5
        assert not validate_sssp(small_digraph, 0, dist)

    def test_rejects_perturbation(self, small_digraph):
        dist = repro.bellman_ford(small_digraph, 0).copy()
        finite = np.isfinite(dist)
        finite[0] = False
        if finite.any():
            dist[np.nonzero(finite)[0][0]] += 1
            assert not validate_sssp(small_digraph, 0, dist)


class TestDolevTriangleListing:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_enumeration(self, seed):
        graph = repro.random_undirected_graph(15, density=0.6, max_weight=6, rng=seed)
        instance = FindEdgesInstance(graph)
        triangles, rounds = repro.DolevFindEdges().list_negative_triangles(
            instance
        )
        assert sorted(triangles) == sorted(repro.negative_triangles(graph))
        assert rounds > 0

    def test_scope_filters_pair_edges(self):
        graph = repro.random_undirected_graph(12, density=0.8, max_weight=5, rng=1)
        all_triangles = repro.negative_triangles(graph)
        if not all_triangles:
            pytest.skip("no negative triangles in this instance")
        u, v, w = all_triangles[0]
        instance = FindEdgesInstance(graph, scope={(u, v)})
        triangles, _ = repro.DolevFindEdges().list_negative_triangles(instance)
        # Every listed triangle must use the scoped pair as its pair edge.
        assert all((u, v) <= (min(t), max(t)) or (u in t and v in t) for t in triangles)
        assert all(u in t and v in t for t in triangles)

    def test_empty_graph(self):
        graph = repro.UndirectedWeightedGraph(np.full((9, 9), np.inf))
        instance = FindEdgesInstance(graph)
        triangles, _ = repro.DolevFindEdges().list_negative_triangles(instance)
        assert triangles == []
