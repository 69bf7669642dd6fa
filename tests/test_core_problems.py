"""Tests for the FindEdges problem definitions and ground-truth helpers."""

import numpy as np
import pytest

import repro
from repro.core.problems import FindEdgesInstance, FindEdgesSolution
from repro.errors import GraphError, PromiseViolationError
from repro.graphs.digraph import UndirectedWeightedGraph


def one_triangle():
    return UndirectedWeightedGraph.from_edges(
        4, [(0, 1, -9), (0, 2, 2), (1, 2, 3), (2, 3, 1)]
    )


class TestInstance:
    def test_default_scope_is_all_edges(self):
        inst = FindEdgesInstance(one_triangle())
        assert inst.effective_scope() == {(0, 1), (0, 2), (1, 2), (2, 3)}

    def test_scope_normalized_to_canonical(self):
        inst = FindEdgesInstance(one_triangle(), scope={(1, 0), (3, 2)})
        assert inst.scope == {(0, 1), (2, 3)}

    @pytest.mark.parametrize(
        "scope, pair_graph",
        [(None, None), (None, "other"), ({(3, 1), (0, 2)}, None), (set(), None)],
    )
    def test_scope_mask_matches_effective_scope(self, scope, pair_graph):
        graph = repro.random_undirected_graph(12, density=0.5, max_weight=5, rng=1)
        other = repro.random_undirected_graph(12, density=0.3, max_weight=5, rng=2)
        inst = FindEdgesInstance(
            graph, scope=scope, pair_graph=other if pair_graph else None
        )
        mask = inst.scope_mask()
        assert mask.dtype == bool and mask.shape == (12, 12)
        assert not np.tril(mask).any()
        rows, cols = np.nonzero(mask)
        assert set(zip(rows.tolist(), cols.tolist())) == inst.effective_scope()

    def test_scope_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            FindEdgesInstance(one_triangle(), scope={(0, 9)})

    def test_pair_graph_must_match_vertices(self):
        other = UndirectedWeightedGraph.from_edges(3, [(0, 1, 1)])
        with pytest.raises(GraphError):
            FindEdgesInstance(one_triangle(), pair_graph=other)

    def test_reference_solution(self):
        inst = FindEdgesInstance(one_triangle())
        assert inst.reference_solution() == {(0, 1), (0, 2), (1, 2)}

    def test_reference_solution_respects_scope(self):
        inst = FindEdgesInstance(one_triangle(), scope={(0, 1), (2, 3)})
        assert inst.reference_solution() == {(0, 1)}

    def test_max_scope_triangle_count(self):
        inst = FindEdgesInstance(one_triangle())
        assert inst.max_scope_triangle_count() == 1
        empty_scope = FindEdgesInstance(one_triangle(), scope=set())
        assert empty_scope.max_scope_triangle_count() == 0

    def test_check_promise(self):
        inst = FindEdgesInstance(one_triangle())
        inst.check_promise(1.0)  # fine
        with pytest.raises(PromiseViolationError):
            inst.check_promise(0.5)

    def test_asymmetric_instance(self):
        # Witness graph without the pair edge still detects the pair when
        # the pair graph supplies its weight.
        witness = UndirectedWeightedGraph.from_edges(
            4, [(0, 2, 2), (1, 2, 3)]
        )
        inst = FindEdgesInstance(
            witness, scope={(0, 1)}, pair_graph=one_triangle()
        )
        assert inst.reference_solution() == {(0, 1)}


class TestSolution:
    def test_errors_against(self):
        inst = FindEdgesInstance(one_triangle())
        sol = FindEdgesSolution(pairs={(0, 1), (2, 3)}, rounds=1.0)
        false_pos, false_neg = sol.errors_against(inst)
        assert false_pos == {(2, 3)}
        assert false_neg == {(0, 2), (1, 2)}
        assert not sol.is_correct_for(inst)

    def test_correct_solution(self):
        inst = FindEdgesInstance(one_triangle())
        sol = FindEdgesSolution(pairs=inst.reference_solution(), rounds=0.0)
        assert sol.is_correct_for(inst)


class TestBackendProtocol:
    def test_reference_backend_satisfies_protocol(self):
        from repro.core.problems import FindEdgesBackend

        assert isinstance(repro.ReferenceFindEdges(), FindEdgesBackend)
        assert isinstance(repro.DolevFindEdges(), FindEdgesBackend)
        assert isinstance(repro.QuantumFindEdges(), FindEdgesBackend)
