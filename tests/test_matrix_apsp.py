"""Tests for APSP drivers and centralized references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import NegativeCycleError
from repro.graphs.digraph import WeightedDigraph
from repro.matrix.apsp import apsp_distances, apsp_via_product, detect_negative_cycle
from repro.matrix.semiring import distance_product

INF = float("inf")


def chain_graph():
    return WeightedDigraph.from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, -1)])


class TestFloydWarshall:
    def test_chain_distances(self):
        dist = apsp_distances(chain_graph())
        assert dist[0, 3] == 4.0
        assert dist[0, 2] == 5.0
        assert np.isinf(dist[3, 0])
        assert (np.diag(dist) == 0).all()

    def test_shortcut_beats_direct(self):
        g = WeightedDigraph.from_edges(3, [(0, 2, 10), (0, 1, 2), (1, 2, 3)])
        assert apsp_distances(g)[0, 2] == 5.0

    def test_negative_edges_no_cycle(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, -5), (1, 2, -3)])
        assert apsp_distances(g)[0, 2] == -8.0

    def test_negative_cycle_raises(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1), (1, 0, -2)])
        with pytest.raises(NegativeCycleError):
            apsp_distances(g)

    def test_single_vertex(self):
        g = WeightedDigraph(np.full((1, 1), INF))
        assert apsp_distances(g)[0, 0] == 0.0


class TestApspViaProduct:
    def test_matches_floyd_warshall(self):
        for seed in range(5):
            g = repro.random_digraph_no_negative_cycle(10, density=0.5, rng=seed)
            assert np.array_equal(
                apsp_via_product(g, distance_product), apsp_distances(g)
            )

    def test_counts_product_calls(self):
        calls = []

        def counting_product(a, b):
            calls.append(1)
            return distance_product(a, b)

        g = repro.random_digraph_no_negative_cycle(9, density=0.6, rng=1)
        apsp_via_product(g, counting_product)
        assert len(calls) == int(np.ceil(np.log2(9)))

    def test_negative_cycle_detected(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, -4), (2, 0, 1)])
        with pytest.raises(NegativeCycleError):
            apsp_via_product(g, distance_product)

    def test_single_vertex_squares_zero_times(self):
        # A_G of one vertex is already its closure: ⌈log2 1⌉ = 0 products,
        # and both distributed solvers inherit the schedule from this one
        # driver, so neither charges a round.
        calls = []

        def counting_product(a, b):
            calls.append(1)
            return distance_product(a, b)

        g = WeightedDigraph(np.full((1, 1), INF))
        assert apsp_via_product(g, counting_product).tolist() == [[0.0]]
        assert calls == []
        censor_hillel = repro.CensorHillelAPSP().solve(g)
        assert censor_hillel.squarings == 0 and censor_hillel.rounds == 0.0
        assert censor_hillel.distances.tolist() == [[0.0]]
        for backend in (repro.ReferenceFindEdges(), repro.DolevFindEdges()):
            report = repro.QuantumAPSP(backend=backend).solve(g)
            assert report.squarings == 0 and report.find_edges_calls == 0
            assert report.rounds == 0.0 and report.ledger.snapshot() == {}
            assert report.distances.tolist() == [[0.0]]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 31, 32, 33, 1023, 1024, 1025])
    def test_squarings_are_ceil_log2_n(self, n):
        calls = []

        def counting_product(a, b):
            calls.append(1)
            return a

        apsp_via_product(WeightedDigraph(np.full((n, n), INF)), counting_product)
        assert len(calls) == int(np.ceil(np.log2(n)))


class TestBellmanFordCrossCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_match_bellman_ford(self, seed):
        g = repro.random_digraph_no_negative_cycle(12, density=0.5, rng=seed)
        dist = apsp_distances(g)
        for source in (0, 5, 11):
            assert np.array_equal(dist[source], repro.bellman_ford(g, source))

    def test_bellman_ford_detects_negative_cycle(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, -4), (2, 1, 1)])
        with pytest.raises(NegativeCycleError):
            repro.bellman_ford(g, 0)

    def test_bellman_ford_unreachable(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1)])
        dist = repro.bellman_ford(g, 0)
        assert np.isinf(dist[2])

    def test_bellman_ford_rejects_bad_source(self):
        with pytest.raises(ValueError):
            repro.bellman_ford(chain_graph(), 9)


class TestNegativeCycleDetection:
    def test_clean_matrix(self):
        assert not detect_negative_cycle(np.zeros((3, 3)))

    def test_dirty_matrix(self):
        m = np.zeros((3, 3))
        m[1, 1] = -2.0
        assert detect_negative_cycle(m)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_triangle_inequality(seed):
    """d(i, k) ≤ d(i, j) + d(j, k) for all triples — the defining property."""
    g = repro.random_digraph_no_negative_cycle(8, density=0.6, rng=seed)
    dist = apsp_distances(g)
    n = g.num_vertices
    for j in range(n):
        through = dist[:, j][:, None] + dist[j, :][None, :]
        assert (dist <= through + 1e-9).all()
