"""Unit + property tests for the negative-triangle reference routines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.digraph import UndirectedWeightedGraph
from repro.graphs.generators import random_undirected_graph
from repro.graphs.triangles import (
    max_triangle_count,
    negative_triangle_counts,
    negative_triangle_edges,
    negative_triangles,
    two_hop_minplus,
    witnessed_negative_pair_counts,
)


def triangle_graph(weight_uv, weight_uw, weight_vw):
    """A single triangle on vertices 0, 1, 2."""
    return UndirectedWeightedGraph.from_edges(
        3, [(0, 1, weight_uv), (0, 2, weight_uw), (1, 2, weight_vw)]
    )


class TestSingleTriangle:
    def test_negative_triangle_detected(self):
        g = triangle_graph(-5, 1, 2)  # sum = -2 < 0
        assert negative_triangle_edges(g) == {(0, 1), (0, 2), (1, 2)}
        assert negative_triangles(g) == [(0, 1, 2)]

    def test_zero_sum_is_not_negative(self):
        g = triangle_graph(-3, 1, 2)  # sum = 0
        assert negative_triangle_edges(g) == set()
        assert negative_triangles(g) == []

    def test_positive_triangle_ignored(self):
        g = triangle_graph(1, 1, 1)
        assert negative_triangle_edges(g) == set()

    def test_counts_symmetric_zero_diagonal(self):
        g = triangle_graph(-5, 1, 2)
        counts = negative_triangle_counts(g)
        assert np.array_equal(counts, counts.T)
        assert np.array_equal(np.diag(counts), np.zeros(3, dtype=np.int64))
        assert counts[0, 1] == 1

    def test_missing_edge_breaks_triangle(self):
        g = UndirectedWeightedGraph.from_edges(3, [(0, 1, -5), (0, 2, 1)])
        assert negative_triangle_edges(g) == set()


class TestCountsAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_enumeration(self, seed):
        g = random_undirected_graph(10, density=0.7, max_weight=5, rng=seed)
        counts = negative_triangle_counts(g)
        triangles = negative_triangles(g)
        brute = np.zeros((10, 10), dtype=np.int64)
        for u, v, w in triangles:
            for a, b in [(u, v), (u, w), (v, w)]:
                brute[a, b] += 1
                brute[b, a] += 1
        assert np.array_equal(counts, brute)

    @pytest.mark.parametrize("seed", range(3))
    def test_edges_are_counts_support(self, seed):
        g = random_undirected_graph(12, density=0.5, max_weight=6, rng=seed)
        counts = negative_triangle_counts(g)
        edges = negative_triangle_edges(g)
        support = {
            (int(u), int(v)) for u, v in zip(*np.nonzero(np.triu(counts, k=1)))
        }
        assert edges == support

    def test_max_triangle_count(self):
        g = triangle_graph(-10, 1, 1)
        assert max_triangle_count(g) == 1


class TestTwoHopMinplus:
    def test_simple_path(self):
        w = np.full((3, 3), np.inf)
        w[0, 1] = w[1, 0] = 2.0
        w[1, 2] = w[2, 1] = 3.0
        h = two_hop_minplus(w)
        assert h[0, 2] == 5.0

    def test_disconnected_is_inf(self):
        w = np.full((3, 3), np.inf)
        h = two_hop_minplus(w)
        assert np.isinf(h).all()


class TestWitnessedCounts:
    def test_pair_weights_separate_from_witnesses(self):
        g = triangle_graph(1, 1, 1)  # positive triangle
        # Pretend the pair edge {0,1} weighs -5: the triangle turns negative.
        pair = g.weights.copy()
        pair[0, 1] = pair[1, 0] = -5.0
        counts = witnessed_negative_pair_counts(g.weights, pair)
        assert counts[0, 1] == 1
        # ... but the witness edges keep their old weights, so {0,2} stays
        # out of any negative triangle.
        assert counts[0, 2] == 0

    def test_missing_pair_edge_never_counts(self):
        g = triangle_graph(-5, 1, 2)
        pair = g.weights.copy()
        pair[0, 1] = pair[1, 0] = np.inf
        counts = witnessed_negative_pair_counts(g.weights, pair)
        assert counts[0, 1] == 0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            witnessed_negative_pair_counts(np.zeros((2, 2)), np.zeros((3, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_property_triangle_edges_consistent(seed):
    """For random graphs, every edge reported by negative_triangle_edges
    really closes a negative triangle (and enumeration agrees)."""
    g = random_undirected_graph(8, density=0.7, max_weight=4, rng=seed)
    edges = negative_triangle_edges(g)
    triangles = negative_triangles(g)
    from_triangles = set()
    for u, v, w in triangles:
        weights = g.weights
        assert weights[u, v] + weights[u, w] + weights[v, w] < 0
        from_triangles |= {(u, v), (u, w), (v, w)}
    assert edges == from_triangles
