"""Tests for witnessed distance products and path reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import GraphError
from repro.matrix.semiring import distance_product
from repro.matrix.witness import (
    decode_witness_product,
    path_weight,
    reconstruct_path,
    scale_for_witness,
    successor_matrix,
    witnessed_distance_product,
)

INF = float("inf")


def random_operands(seed, n=6, max_abs=5, inf_frac=0.25):
    rng = np.random.default_rng(seed)
    a = rng.integers(-max_abs, max_abs + 1, size=(n, n)).astype(float)
    b = rng.integers(-max_abs, max_abs + 1, size=(n, n)).astype(float)
    a[rng.random((n, n)) < inf_frac] = INF
    b[rng.random((n, n)) < inf_frac] = INF
    return a, b


class TestScaling:
    def test_scale_preserves_inf(self):
        a = np.array([[1.0, INF], [0.0, -2.0]])
        b = np.array([[INF, 3.0], [1.0, 0.0]])
        a_s, b_s, factor = scale_for_witness(a, b)
        assert factor == 3
        assert np.isinf(a_s[0, 1]) and np.isinf(b_s[0, 0])
        assert a_s[1, 1] == -6.0
        assert b_s[1, 0] == 1 * 3 + 1  # value·factor + row tag

    def test_decode_negative_values(self):
        # C̃ = v·factor + k must decode for negative v (floor semantics).
        factor = 5
        scaled = np.array([[-7.0]])  # v = −2, k = 3  (−2·5 + 3 = −7)
        values, witnesses = decode_witness_product(scaled, factor)
        assert values[0, 0] == -2.0
        assert witnesses[0, 0] == 3

    def test_decode_inf(self):
        values, witnesses = decode_witness_product(np.array([[INF]]), 4)
        assert np.isinf(values[0, 0])
        assert witnesses[0, 0] == -1

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphError):
            scale_for_witness(np.zeros((2, 2)), np.zeros((3, 3)))


class TestWitnessedProduct:
    @pytest.mark.parametrize("seed", range(6))
    def test_values_match_plain_product(self, seed):
        a, b = random_operands(seed)
        values, witnesses = witnessed_distance_product(a, b)
        assert np.array_equal(values, distance_product(a, b))

    @pytest.mark.parametrize("seed", range(6))
    def test_witnesses_achieve_the_min(self, seed):
        a, b = random_operands(seed)
        values, witnesses = witnessed_distance_product(a, b)
        n = a.shape[0]
        for i in range(n):
            for j in range(n):
                k = witnesses[i, j]
                if k < 0:
                    assert np.isinf(values[i, j])
                else:
                    assert a[i, k] + b[k, j] == values[i, j]

    def test_witness_is_smallest_minimizer(self):
        # Two equal minimizers: the scaled tag must pick the smaller k.
        a = np.array([[0.0, 0.0, INF]] * 3)
        b = np.array([[5.0] * 3, [5.0] * 3, [INF] * 3])
        values, witnesses = witnessed_distance_product(a, b)
        assert values[0, 0] == 5.0
        assert witnesses[0, 0] == 0

    def test_pluggable_product_fn(self):
        calls = []

        def spy(a, b):
            calls.append(1)
            return distance_product(a, b)

        a, b = random_operands(1)
        witnessed_distance_product(a, b, product=spy)
        assert calls == [1]


class TestSuccessorMatrix:
    def test_first_hops_are_neighbors(self, small_digraph):
        distances = repro.floyd_warshall(small_digraph)
        successors = successor_matrix(small_digraph.apsp_matrix(), distances)
        n = small_digraph.num_vertices
        for i in range(n):
            assert successors[i, i] == i
            for j in range(n):
                if i == j:
                    continue
                hop = successors[i, j]
                if not np.isfinite(distances[i, j]):
                    assert hop == -1
                else:
                    assert small_digraph.has_edge(i, int(hop))

    def test_rejects_inconsistent_distances(self, small_digraph):
        distances = repro.floyd_warshall(small_digraph)
        corrupted = distances.copy()
        finite = np.isfinite(corrupted) & ~np.eye(len(corrupted), dtype=bool)
        index = tuple(np.argwhere(finite)[0])
        corrupted[index] -= 1
        with pytest.raises(GraphError):
            successor_matrix(small_digraph.apsp_matrix(), corrupted)

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_graphs_need_no_squaring(self, n):
        # The closure of an n ≤ 1 matrix is the matrix itself, so the only
        # product is the one witnessed product that picks the first hops.
        calls = []

        def counting_product(a, b):
            calls.append(1)
            return distance_product(a, b)

        weights = np.zeros((n, n))
        successors = successor_matrix(weights, weights, product=counting_product)
        assert successors.tolist() == [[0]] * n
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_closure_squares_ceil_log2_n_times(self, n):
        calls = []

        def counting_product(a, b):
            calls.append(1)
            return distance_product(a, b)

        graph = repro.random_digraph_no_negative_cycle(n, density=0.6, rng=n)
        distances = repro.floyd_warshall(graph)
        successor_matrix(graph.apsp_matrix(), distances, product=counting_product)
        # ⌈log2 n⌉ squarings plus the one witnessed product.
        assert len(calls) == int(np.ceil(np.log2(n))) + 1


class TestReconstruction:
    def test_paths_realize_distances(self, small_digraph):
        distances = repro.floyd_warshall(small_digraph)
        successors = successor_matrix(small_digraph.apsp_matrix(), distances)
        weights = small_digraph.apsp_matrix()
        n = small_digraph.num_vertices
        for i in range(n):
            for j in range(n):
                path = reconstruct_path(successors, i, j)
                if path is None:
                    assert not np.isfinite(distances[i, j])
                    continue
                assert path[0] == i and path[-1] == j
                assert path_weight(weights, path) == distances[i, j]

    def test_trivial_path(self):
        successors = np.array([[0]])
        assert reconstruct_path(successors, 0, 0) == [0]

    def test_unreachable_returns_none(self):
        successors = np.array([[0, -1], [-1, 1]])
        assert reconstruct_path(successors, 0, 1) is None

    def test_cycle_detected(self):
        successors = np.array([[0, 1, 2], [2, 1, 2], [1, 1, 2]])
        # 0 → 1 → 2 → 1 → ... never reaches... craft: path(0,1): hop 1 = 1?
        successors = np.array([[0, 2, 0], [0, 1, 0], [0, 1, 2]])
        successors[0, 1] = 2
        successors[2, 1] = 0
        successors[0, 1] = 2  # 0→2→0→2... cycle
        with pytest.raises(GraphError):
            reconstruct_path(successors, 0, 1)

    def test_out_of_range_endpoints(self):
        with pytest.raises(GraphError):
            reconstruct_path(np.array([[0]]), 0, 5)

    def test_path_weight_rejects_missing_edge(self):
        weights = np.full((2, 2), INF)
        with pytest.raises(GraphError):
            path_weight(weights, [0, 1])

    def test_path_weight_empty(self):
        assert path_weight(np.zeros((2, 2)), [0]) == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_every_path_is_shortest(seed):
    """Reconstructed paths are valid edge walks with exactly the computed
    shortest-path weight, on random negative-cycle-free digraphs."""
    graph = repro.random_digraph_no_negative_cycle(7, density=0.5, rng=seed)
    distances = repro.floyd_warshall(graph)
    successors = successor_matrix(graph.apsp_matrix(), distances)
    weights = graph.apsp_matrix()
    for i in range(7):
        for j in range(7):
            path = reconstruct_path(successors, i, j)
            if path is not None:
                assert path_weight(weights, path) == distances[i, j]
