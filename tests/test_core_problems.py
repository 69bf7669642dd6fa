"""Tests for the FindEdges problem definitions and ground-truth helpers."""

import numpy as np
import pytest

import repro
from repro.core import evaluation
from repro.core.evaluation import CodedWeights, witnessed_two_hop
from repro.core.problems import FindEdgesInstance, FindEdgesSolution
from repro.errors import GraphError, PromiseViolationError
from repro.graphs.digraph import UndirectedWeightedGraph

from tests.conftest import prop1_sub_instance
from tests.reference import reference_solution_float, witnessed_two_hop_min

INF = float("inf")


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


class RawGraph:
    """A graph whose weights skip :class:`UndirectedWeightedGraph`'s entry
    rules, so ground truth meets weights outside the integer code."""

    def __init__(self, weights):
        self.weights = weights
        self.num_vertices = weights.shape[0]


def all_pairs(n):
    return {(u, v) for u in range(n) for v in range(u + 1, n)}


def assert_kernel_matches_loop(weights, dtype, rows=None, cols=None):
    n = weights.shape[0]
    rows = np.arange(n) if rows is None else rows
    cols = np.arange(n) if cols is None else cols
    coded = CodedWeights.encode(weights)
    assert coded.dtype == np.dtype(dtype)
    with np.errstate(invalid="ignore"):  # −∞ + ∞ is NaN in both forms
        got = coded.decode(witnessed_two_hop(coded, rows, cols))
        expected = witnessed_two_hop_min(weights, rows, cols)
    assert np.array_equal(got, expected, equal_nan=True)


class TestCodedGroundTruth:
    """``reference_solution()`` runs the coded min-plus and returns the
    pair set of the float64 loop, on every weight class."""

    @pytest.mark.parametrize(
        "max_weight, dtype", [(1, np.int8), (7, np.int8), (20, np.int8), (300, np.int16)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_integer_codes(self, max_weight, dtype, seed):
        graph = repro.random_undirected_graph(40, density=0.5, max_weight=max_weight, rng=seed)
        instance = FindEdgesInstance(graph)
        truth = instance.reference_solution()
        assert truth and truth == reference_solution_float(instance)
        assert_kernel_matches_loop(graph.weights, dtype)

    def test_rows_and_cols_restrict_the_output(self):
        graph = repro.random_undirected_graph(30, density=0.6, max_weight=7, rng=3)
        assert_kernel_matches_loop(
            graph.weights, np.int8, rows=np.array([1, 4, 5, 20]), cols=np.array([0, 7, 29])
        )
        scope = {(1, 7), (4, 29), (5, 20), (0, 20)}
        instance = FindEdgesInstance(graph, scope=scope)
        assert instance.reference_solution() == reference_solution_float(instance)

    def test_row_chunks_agree(self, monkeypatch):
        # A tiny chunk budget splits the (rows, n, cols) temporary per row.
        graph = repro.random_undirected_graph(24, density=0.6, max_weight=7, rng=4)
        instance = FindEdgesInstance(graph)
        whole = instance.reference_solution()
        monkeypatch.setattr(evaluation, "_MIN_PLUS_BYTES", 64)
        assert instance.reference_solution() == whole == reference_solution_float(instance)
        assert_kernel_matches_loop(graph.weights, np.int8)

    def test_non_integral_weights_stay_float(self):
        gen = np.random.default_rng(5)
        weights = gen.integers(-6, 7, size=(24, 24)) + 0.5
        weights = np.triu(weights, 1) + np.triu(weights, 1).T
        weights[gen.random((24, 24)) < 0.3] = INF
        weights = np.minimum(weights, weights.T)
        np.fill_diagonal(weights, INF)
        instance = FindEdgesInstance(RawGraph(weights), scope=all_pairs(24))
        truth = instance.reference_solution()
        assert truth and truth == reference_solution_float(instance)
        assert_kernel_matches_loop(weights, np.float64)

    def test_negative_zero_stays_float(self):
        graph = repro.random_undirected_graph(24, density=0.6, max_weight=4, rng=6)
        weights = graph.weights.copy()
        weights[weights == 0] = -0.0
        weights[2, 3] = weights[3, 2] = -0.0
        graph = UndirectedWeightedGraph(weights)
        instance = FindEdgesInstance(graph)
        assert instance.reference_solution() == reference_solution_float(instance)
        assert_kernel_matches_loop(graph.weights, np.float64)

    def test_negative_infinity_stays_float(self):
        graph = repro.random_undirected_graph(24, density=0.6, max_weight=4, rng=7)
        weights = graph.weights.copy()
        weights[2, 9] = weights[9, 2] = -INF
        instance = FindEdgesInstance(RawGraph(weights), scope=all_pairs(24))
        with np.errstate(invalid="ignore"):
            truth = instance.reference_solution()
            assert truth == reference_solution_float(instance)
        assert_kernel_matches_loop(weights, np.float64)

    @pytest.mark.parametrize("witness_weight", [INF, 0.0])
    def test_zero_witness_bound(self, witness_weight):
        # M = 0: no witness edges at all, or only zero-weight ones.
        pair_graph = repro.random_undirected_graph(20, density=0.6, max_weight=5, rng=8)
        weights = np.full((20, 20), witness_weight)
        np.fill_diagonal(weights, INF)
        witness = UndirectedWeightedGraph(weights)
        instance = FindEdgesInstance(witness, pair_graph=pair_graph)
        assert CodedWeights.encode(witness.weights).bound == 0
        truth = instance.reference_solution()
        assert truth == reference_solution_float(instance)
        assert bool(truth) == (witness_weight == 0.0)
        assert_kernel_matches_loop(witness.weights, np.int8)

    def test_non_integral_pair_weights_over_integral_witnesses(self):
        # The ceiling of the coded threshold: −f = 2.5 admits a coded 2.
        graph = repro.random_undirected_graph(24, density=0.7, max_weight=5, rng=9)
        gen = np.random.default_rng(9)
        pair = np.round(gen.uniform(-8, 8, size=(24, 24)) * 4) / 4
        pair = np.triu(pair, 1) + np.triu(pair, 1).T
        np.fill_diagonal(pair, INF)
        instance = FindEdgesInstance(graph, scope=all_pairs(24), pair_graph=RawGraph(pair))
        assert CodedWeights.encode(graph.weights).dtype == np.int8
        truth = instance.reference_solution()
        assert truth and truth == reference_solution_float(instance)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_weights_beyond_the_witness_bound(self, seed):
        # Proposition 1's sub-instances: without the threshold's clamp at
        # sentinel − bound, a coded +∞ would read as a hit.
        instance = prop1_sub_instance(40, seed)
        coded = CodedWeights.encode(instance.graph.weights)
        pair = instance.pair_graph.weights
        assert pair[np.isfinite(pair)].min() < -(coded.sentinel - coded.bound)
        truth = instance.reference_solution()
        assert truth and truth == reference_solution_float(instance)


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
