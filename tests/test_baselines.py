"""Tests for the classical baselines."""

import numpy as np
import pytest

import repro
from repro.baselines.censor_hillel import distributed_minplus_product
from repro.core.problems import FindEdgesInstance
from repro.matrix.semiring import distance_product


class TestDolevFindEdges:
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_on_random_graphs(self, seed):
        graph = repro.random_undirected_graph(18, density=0.6, max_weight=8, rng=seed)
        instance = FindEdgesInstance(graph)
        solution = repro.DolevFindEdges().find_edges(instance)
        assert solution.pairs == instance.reference_solution()

    def test_deterministic_output(self):
        graph = repro.random_undirected_graph(15, density=0.6, max_weight=8, rng=1)
        instance = FindEdgesInstance(graph)
        a = repro.DolevFindEdges().find_edges(instance)
        b = repro.DolevFindEdges().find_edges(instance)
        assert a.pairs == b.pairs  # listing is deterministic

    def test_scope_respected(self):
        graph = repro.random_undirected_graph(15, density=0.7, max_weight=8, rng=2)
        truth = FindEdgesInstance(graph).reference_solution()
        scope = set(list(truth)[:2]) | {(0, 1)}
        instance = FindEdgesInstance(graph, scope=scope)
        solution = repro.DolevFindEdges().find_edges(instance)
        assert solution.pairs == truth & scope

    def test_rounds_scale_as_n_third(self):
        rounds = {}
        for n in (27, 64, 125, 216):
            graph = repro.random_undirected_graph(n, density=0.3, max_weight=4, rng=1)
            instance = FindEdgesInstance(graph)
            rounds[n] = repro.DolevFindEdges().find_edges(instance).rounds
        exponent, _, r2 = repro.fit_exponent(list(rounds), list(rounds.values()))
        assert 0.2 < exponent < 0.55
        assert r2 > 0.8

    def test_asymmetric_instance(self):
        # Witness graph lacks the pair edge; pair graph supplies the weight.
        witness = repro.UndirectedWeightedGraph.from_edges(
            4, [(0, 2, 2), (1, 2, 3)]
        )
        pair = repro.UndirectedWeightedGraph.from_edges(4, [(0, 1, -9)])
        instance = FindEdgesInstance(witness, scope={(0, 1)}, pair_graph=pair)
        solution = repro.DolevFindEdges().find_edges(instance)
        assert solution.pairs == {(0, 1)}


class TestCensorHillel:
    @pytest.mark.parametrize("seed", range(3))
    def test_product_exact(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 6, size=(9, 9)).astype(float)
        b = rng.integers(-5, 6, size=(9, 9)).astype(float)
        product, ledger = distributed_minplus_product(a, b)
        assert np.array_equal(product, distance_product(a, b))
        assert ledger.total > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_apsp_exact(self, seed):
        graph = repro.random_digraph_no_negative_cycle(12, density=0.5, rng=seed)
        report = repro.CensorHillelAPSP().solve(graph)
        assert np.array_equal(report.distances, repro.floyd_warshall(graph))

    def test_negative_cycle_detected(self):
        graph = repro.WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 2, -5), (2, 0, 1)])
        from repro.errors import NegativeCycleError

        with pytest.raises(NegativeCycleError):
            repro.CensorHillelAPSP().solve(graph)

    def test_rounds_scale_as_n_third(self):
        rounds = {}
        for n in (27, 64, 125, 216):
            graph = repro.random_digraph_no_negative_cycle(n, density=0.3, rng=1)
            rounds[n] = repro.CensorHillelAPSP().solve(graph).rounds
        # Per-squaring cost ~ n^{1/3}; squarings add a log factor.
        exponent, _, r2 = repro.fit_exponent(list(rounds), list(rounds.values()))
        assert 0.25 < exponent < 0.75
        assert r2 > 0.8

    def test_product_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            distributed_minplus_product(np.zeros((2, 2)), np.zeros((3, 3)))
