"""Tests for the named workload families."""

import numpy as np
import pytest

import repro
from repro.errors import GraphError
from repro.graphs.triangles import max_triangle_count, negative_triangle_counts
from repro.graphs.workloads import (
    WORKLOADS,
    bipartite_like,
    clustered,
    dense_negative,
    hub,
    make_workload,
    sparse,
    uniform,
)


class TestRegistry:
    def test_all_names_instantiable(self):
        for name in WORKLOADS:
            graph = make_workload(name, 12, rng=1)
            assert graph.num_vertices == 12

    def test_unknown_name_rejected(self):
        with pytest.raises(GraphError):
            make_workload("quantum_foam", 12)

    def test_deterministic_per_seed(self):
        for name in WORKLOADS:
            assert make_workload(name, 10, rng=3) == make_workload(name, 10, rng=3)


class TestShapes:
    def test_dense_negative_every_triple_is_triangle(self):
        graph = dense_negative(10, rng=0)
        counts = negative_triangle_counts(graph)
        off_diag = ~np.eye(10, dtype=bool)
        assert (counts[off_diag] == 8).all()  # every pair: n − 2 witnesses

    def test_bipartite_like_has_no_negative_triangles(self):
        graph = bipartite_like(14, rng=2)
        assert max_triangle_count(graph) == 0

    def test_sparse_sparser_than_uniform(self):
        assert sparse(20, rng=1).num_edges < uniform(20, rng=1).num_edges

    def test_hub_triangles_concentrate_on_hub(self):
        graph = hub(15, rng=4)
        counts = negative_triangle_counts(graph)
        hub_involvement = counts[0].sum()
        others = counts.sum() - 2 * hub_involvement
        assert hub_involvement > 0
        # Most triangle incidences touch the hub.
        assert hub_involvement >= others

    def test_clustered_intra_cluster_negativity(self):
        graph = clustered(18, rng=5)
        assert max_triangle_count(graph) > 0

    def test_clustered_minimum_size(self):
        with pytest.raises(GraphError):
            clustered(4, rng=0)

    def test_hub_minimum_size(self):
        with pytest.raises(GraphError):
            hub(2, rng=0)


class TestWorkloadsThroughSolver:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_dolev_exact_on_every_shape(self, name):
        graph = make_workload(name, 14, rng=6)
        instance = repro.FindEdgesInstance(graph)
        solution = repro.DolevFindEdges().find_edges(instance)
        assert solution.pairs == instance.reference_solution()
