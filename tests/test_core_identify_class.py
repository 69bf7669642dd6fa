"""Tests for Algorithm IdentifyClass (Figure 2, Proposition 5)."""

import numpy as np
import pytest

import repro
from repro.congest.network import CongestClique
from repro.congest.partitions import CliquePartitions
from repro.core.constants import PaperConstants
from repro.core.evaluation import CodedWeights, block_two_hop
from repro.core.identify_class import (
    _class_of,
    classify_triples,
    run_identify_class,
    sample_partners,
)
from repro.core.problems import FindEdgesInstance
from repro.errors import ProtocolAbortedError

from tests.conftest import prop1_sub_instance
from tests.reference import classify_triples_loops


def setup_network(instance):
    n = instance.num_vertices
    network = CongestClique(n)
    partitions = CliquePartitions(n)
    network.register_scheme("triple", int(np.prod(partitions.grid_shape)))
    fine_blocks = partitions.fine.blocks()
    coded = CodedWeights.encode(instance.graph.weights)
    cache = {}

    def two_hop_for(bu, bv):
        if (bu, bv) not in cache:
            cache[(bu, bv)] = block_two_hop(
                coded,
                partitions.coarse.block(bu),
                partitions.coarse.block(bv),
                fine_blocks,
            )
        return cache[(bu, bv)]

    return network, partitions, two_hop_for, coded


class TestClassOf:
    def test_zero_estimate_is_class_zero(self):
        consts = PaperConstants(scale=1.0)
        assert _class_of(0.0, 256, consts) == 0

    def test_thresholds(self):
        consts = PaperConstants(scale=1.0)
        n = 256  # threshold(α) = 10·2^α·8
        assert _class_of(79.0, n, consts) == 0
        assert _class_of(80.0, n, consts) == 1
        assert _class_of(159.0, n, consts) == 1
        assert _class_of(160.0, n, consts) == 2


class TestRunIdentifyClass:
    def test_all_triples_classified(self):
        graph = repro.random_undirected_graph(16, density=0.6, max_weight=8, rng=3)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for, coded = setup_network(instance)
        consts = PaperConstants(scale=0.5)
        assignment = run_identify_class(
            network, instance, partitions, consts, two_hop_for, coded, rng=1
        )
        # One class per triple label, in the triple scheme's row-major order.
        assert assignment.grid.shape == (
            partitions.num_coarse, partitions.num_coarse, partitions.num_fine
        )
        assert assignment.grid.dtype == np.int64
        assert assignment.grid.shape == partitions.grid_shape
        assert int(assignment.grid.min()) >= 0

    def test_charges_broadcast_rounds(self):
        graph = repro.random_undirected_graph(16, density=0.6, max_weight=8, rng=3)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for, coded = setup_network(instance)
        run_identify_class(
            network, instance, partitions, PaperConstants(scale=0.5), two_hop_for, coded, rng=1
        )
        snapshot = network.ledger.snapshot()
        assert "identify_class.broadcast_samples" in snapshot
        assert "identify_class.broadcast_classes" in snapshot

    def test_no_negative_triangles_all_class_zero(self):
        graph, _ = repro.planted_negative_triangle_graph(16, num_planted=0, rng=2)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for, coded = setup_network(instance)
        assignment = run_identify_class(
            network, instance, partitions, PaperConstants(scale=0.5), two_hop_for, coded, rng=1
        )
        assert not assignment.grid.any()

    def test_dense_triangles_produce_high_class(self):
        # Every pair in many negative triangles: with full sampling
        # (scale high → rate 1) estimates are exact and large.
        graph = repro.random_undirected_graph(16, density=1.0, max_weight=1, rng=1)
        # Make all weights -1: every triple is a negative triangle.
        weights = np.where(np.isfinite(graph.weights), -1.0, np.inf)
        from repro.graphs.digraph import UndirectedWeightedGraph

        graph = UndirectedWeightedGraph(weights)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for, coded = setup_network(instance)
        # rate 1 (exact counts) and a class threshold small enough that the
        # ~dozens of witnessed pairs per triple exceed it.
        consts = PaperConstants(scale=4.0, class_threshold_factor=0.5)
        assignment = run_identify_class(
            network, instance, partitions, consts, two_hop_for, coded, rng=1
        )
        assert int(assignment.grid.max()) >= 1

    def test_abort_on_oversized_sample(self):
        graph = repro.random_undirected_graph(16, density=1.0, max_weight=8, rng=1)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for, coded = setup_network(instance)
        # rate forced to 1 but abort bound tiny ⇒ certain abort.
        consts = PaperConstants(scale=4.0, identify_abort_factor=0.01)
        with pytest.raises(ProtocolAbortedError):
            run_identify_class(
                network, instance, partitions, consts, two_hop_for, coded, rng=1
            )

    def test_estimates_track_delta_proposition5(self):
        # With sampling rate 1 the estimate d_{uvw} equals |Δ(u,v;w)| over
        # scope pairs exactly; check against brute force.
        graph = repro.random_undirected_graph(16, density=0.7, max_weight=6, rng=5)
        instance = FindEdgesInstance(graph)
        network, partitions, two_hop_for, coded = setup_network(instance)
        consts = PaperConstants(scale=4.0)  # identify_rate(16) = 1
        assignment = run_identify_class(
            network, instance, partitions, consts, two_hop_for, coded, rng=1
        )
        # Brute-force Δ(u, v; w) per triple, from Definition 3.
        scope = instance.effective_scope()
        w_weights = instance.graph.weights
        for (bu, bv, bw), alpha in np.ndenumerate(assignment.grid):
            fine = set(partitions.fine.block(bw).tolist())
            delta = 0
            for u, v in map(tuple, partitions.block_pairs(bu, bv).tolist()):
                if (u, v) not in scope:
                    continue
                pair_weight = w_weights[u, v]
                witnesses = [
                    w
                    for w in fine
                    if w not in (u, v)
                    and np.isfinite(w_weights[u, w])
                    and np.isfinite(w_weights[w, v])
                    and w_weights[u, w] + w_weights[w, v] < -pair_weight
                ]
                delta += int(bool(witnesses))
            expected_alpha = _class_of(float(delta), 16, consts)
            assert alpha == expected_alpha


class TestClassifyTriplesEquivalence:
    """The array-built ``R`` on coded tables gives the classes of the
    per-sample loop form on decoded float64 tables."""

    @staticmethod
    def assert_equivalent(instance, consts, seed):
        _, partitions, two_hop_for, coded = setup_network(instance)
        sampled = sample_partners(instance, consts, np.random.default_rng(seed))
        got = classify_triples(instance, partitions, consts, two_hop_for, coded, sampled)
        expected = classify_triples_loops(
            instance, partitions, consts,
            lambda bu, bv: coded.decode(two_hop_for(bu, bv)), sampled,
        )
        assert got.grid.dtype == expected.grid.dtype == np.int64
        assert np.array_equal(got.grid, expected.grid)
        assert got.sample_size == expected.sample_size
        return coded, got

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("max_weight, dtype", [(7, np.int8), (300, np.int16)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_instances(self, n, max_weight, dtype, seed):
        graph = repro.random_undirected_graph(n, density=0.6, max_weight=max_weight, rng=seed)
        consts = PaperConstants(scale=4.0, class_threshold_factor=0.05)
        coded, got = self.assert_equivalent(FindEdgesInstance(graph), consts, seed)
        assert coded.dtype == np.dtype(dtype)
        assert got.sample_size > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_weights_beyond_the_witness_bound(self, seed):
        instance = prop1_sub_instance(24, seed, density=0.8)
        consts = PaperConstants(scale=4.0, class_threshold_factor=0.05)
        coded, _ = self.assert_equivalent(instance, consts, seed)
        assert np.abs(instance.pair_graph.weights[np.isfinite(instance.pair_graph.weights)]).max() > (
            coded.sentinel - coded.bound
        )

    def test_explicit_scope_with_non_edges(self):
        graph = repro.random_undirected_graph(16, density=0.4, max_weight=5, rng=4)
        scope = {(u, v) for u in range(16) for v in range(u + 1, 16) if (u + v) % 3}
        consts = PaperConstants(scale=4.0, class_threshold_factor=0.05)
        self.assert_equivalent(FindEdgesInstance(graph, scope=scope), consts, 4)

    def test_empty_sample(self):
        graph = repro.random_undirected_graph(16, density=0.6, max_weight=5, rng=2)
        _, partitions, two_hop_for, coded = setup_network(FindEdgesInstance(graph))
        got = classify_triples(
            FindEdgesInstance(graph), partitions, PaperConstants(), two_hop_for, coded, {}
        )
        assert not got.grid.any() and got.sample_size == 0
